package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repliflow/internal/fullmodel"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// cancelCase is one exhaustive scan with raised limits. Each full solve
// takes 1.3-8 s on a 2-vCPU x86-64 container, so a cancellation after
// 20ms lands mid-scan. A sweep case runs a Pareto sweep's front oracle
// instead: its label pass takes about 150ms there, after 15ms of bound
// solves.
type cancelCase struct {
	name  string
	pr    Problem
	opts  Options
	sweep bool
}

func cancelCases() []cancelCase {
	hetPl := func(n int) platform.Platform {
		speeds := []float64{3, 1, 2, 5, 1, 4, 2, 3, 1, 2, 5, 1, 3, 2, 4}
		return platform.New(speeds[:n]...)
	}
	forkLimits := Options{MaxExhaustiveForkStages: 12, MaxExhaustiveForkProcs: 12}
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 5, 3, 9, 6, 2)
	fork := workflow.NewFork(3, 4, 1, 6, 2, 5, 7, 3)
	fj := workflow.NewForkJoin(3, 2, 4, 1, 6, 5, 7)
	// A chorded diamond followed by a fan and its join: series-parallel,
	// but none of the legacy shapes, so the block scan solves it.
	sp := workflow.NewSP(
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
		workflow.SPStep{Name: "c", Weight: 3, After: []string{"a", "b"}},
		workflow.SPStep{Name: "d", Weight: 1, After: []string{"b", "c"}},
		workflow.SPStep{Name: "e", Weight: 4, After: []string{"d"}},
		workflow.SPStep{Name: "f", Weight: 2, After: []string{"d"}},
		workflow.SPStep{Name: "g", Weight: 5, After: []string{"d"}},
		workflow.SPStep{Name: "h", Weight: 3, After: []string{"e", "f", "g"}},
		workflow.SPStep{Name: "i", Weight: 2, After: []string{"h"}},
		workflow.SPStep{Name: "j", Weight: 4, After: []string{"i"}},
		workflow.SPStep{Name: "k", Weight: 1, After: []string{"j"}},
	)
	commPipe := fullmodel.NewPipeline([]float64{4, 2, 7, 1, 5, 3, 6, 2, 3}, []float64{1, 2, 0, 3, 1, 2, 1, 0, 2, 1})
	commFork := fullmodel.Fork{
		Root: 3, In: 1, Out0: 2,
		Weights: []float64{4, 1, 6, 2, 5, 7, 3},
		Outs:    []float64{1, 0, 2, 1, 1, 2, 0},
	}
	bw := &fullmodel.Bandwidth{Uniform: 2}
	// A long pipeline with fractional weights on 6 fractional speeds:
	// cheap scalar solves, but a large label front in every state.
	var long []float64
	for len(long) < 64 {
		long = append(long, 14.3, 4.1, 2.7, 4.9, 7.2, 5.5, 3.3, 9.8, 6.1, 2.6, 8.4, 3.9, 5.2, 7.7, 1.9, 6.6)
	}
	longPipe := workflow.NewPipeline(long...)
	return []cancelCase{
		{"fork", Problem{Fork: &fork, Platform: hetPl(6), AllowDataParallel: true, Objective: MinLatency}, forkLimits, false},
		{"fork-join", Problem{ForkJoin: &fj, Platform: hetPl(6), AllowDataParallel: true, Objective: MinLatency}, forkLimits, false},
		{"pipeline-dp", Problem{Pipeline: &pipe, Platform: hetPl(14), AllowDataParallel: true, Objective: MinLatency},
			Options{MaxExhaustivePipelineProcs: 14}, false},
		{"sp-blocks", Problem{SP: &sp, Platform: hetPl(9), Objective: MinLatency}, forkLimits, false},
		{"comm-pipeline", Problem{CommPipeline: &commPipe, Bandwidth: bw, Platform: hetPl(9), Objective: MinLatency}, forkLimits, false},
		{"comm-fork", Problem{CommFork: &commFork, Bandwidth: bw, Platform: hetPl(7), Objective: MinLatency}, forkLimits, false},
		{"pipeline-front", Problem{Pipeline: &longPipe, Platform: platform.New(3.1, 1.2, 2.3, 5.4, 1.5, 4.6), AllowDataParallel: true},
			Options{}, true},
	}
}

// TestMidScanCancellation cancels every exhaustive scan about 20ms into
// a search whose full run takes far longer: the fork and fork-join
// partition scans, the pipeline bitmask DP, the SP block scan, the
// comm-pipeline interval walk, the comm-fork block scan and the label
// pass of a sweep's front oracle. Each must return context.Canceled long
// before the full search would finish.
func TestMidScanCancellation(t *testing.T) {
	for _, c := range cancelCases() {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(20*time.Millisecond, cancel)
			start := time.Now()
			var err error
			if c.sweep {
				var plan SweepPlan
				if plan, err = PlanSweep(c.pr, c.opts); err == nil {
					err = plan.FindFront(ctx)
				}
			} else {
				_, err = SolveContext(ctx, c.pr, c.opts)
			}
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("returned %v after %v, want context.Canceled", err, elapsed)
			}
			if elapsed > 400*time.Millisecond {
				t.Fatalf("cancellation took %v to land", elapsed)
			}
		})
	}
}
