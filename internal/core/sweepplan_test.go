package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repliflow/internal/fullmodel"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// chainSP returns the n-step chain a -> b -> ... as an SP graph.
func chainSP(weights ...float64) workflow.SP {
	steps := make([]workflow.SPStep, len(weights))
	for i, w := range weights {
		steps[i] = workflow.SPStep{Name: fmt.Sprintf("s%d", i), Weight: w}
		if i > 0 {
			steps[i].After = []string{steps[i-1].Name}
		}
	}
	return workflow.NewSP(steps...)
}

// TestPlanSweep pins the plan on one instance per case: exact sweeps
// over complete candidate sets whose two bi-criteria cells are served
// alike drop the probe, and every other sweep keeps it.
func TestPlanSweep(t *testing.T) {
	hetPipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	het13 := platform.New(5, 4, 3, 2, 2, 1, 1, 3, 2, 4, 1, 2, 3)
	cp := fullmodel.NewPipeline([]float64{3, 1, 2}, []float64{1, 2, 1, 1})
	fork := fullmodel.Fork{Root: 4, In: 1, Out0: 2, Weights: []float64{3, 5}, Outs: []float64{1, 2}}
	chain13 := chainSP(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9)
	chain12 := chainSP(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8)
	uniform := &fullmodel.Bandwidth{Uniform: 2}
	for _, c := range []struct {
		name           string
		pr             Problem
		opts           Options
		exact, tighten bool
	}{
		{"polynomial pipeline", Problem{Pipeline: &hetPipe, Platform: platform.Homogeneous(3, 2), AllowDataParallel: true}, Options{}, true, false},
		{"exhaustive pipeline", Problem{Pipeline: &hetPipe, Platform: platform.New(3, 2, 1), AllowDataParallel: true}, Options{}, true, false},
		{"13-processor pipeline, raised limits", Problem{Pipeline: &hetPipe, Platform: het13, AllowDataParallel: true}, Options{MaxExhaustivePipelineProcs: 13}, true, true},
		{"13-processor pipeline, heuristic", Problem{Pipeline: &hetPipe, Platform: het13, AllowDataParallel: true}, Options{}, false, true},
		{"budgeted pipeline", Problem{Pipeline: &hetPipe, Platform: platform.New(3, 2, 1), AllowDataParallel: true}, Options{AnytimeBudget: time.Second}, false, true},
		{"12-step SP chain", Problem{SP: &chain12, Platform: platform.New(3, 2, 1)}, Options{}, true, false},
		{"13-step SP chain", Problem{SP: &chain13, Platform: platform.New(3, 2, 1)}, Options{}, true, true},
		{"het comm-pipeline", Problem{CommPipeline: &cp, Platform: platform.New(3, 2, 1), Bandwidth: uniform}, Options{}, true, false},
		{"hom comm-pipeline", Problem{CommPipeline: &cp, Platform: platform.Homogeneous(3, 2), Bandwidth: uniform}, Options{}, true, true},
		{"comm-fork", Problem{CommFork: &fork, Platform: platform.New(3, 2, 1), Bandwidth: uniform}, Options{}, true, true},
	} {
		plan, err := PlanSweep(c.pr, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Exact != c.exact || plan.Tighten != c.tighten {
			t.Errorf("%s: plan exact=%v tighten=%v, want exact=%v tighten=%v",
				c.name, plan.Exact, plan.Tighten, c.exact, c.tighten)
		}
		if len(plan.Candidates) == 0 || plan.Problem.Objective != MinPeriod {
			t.Errorf("%s: plan has %d candidates and objective %v", c.name, len(plan.Candidates), plan.Problem.Objective)
		}
	}
	if _, err := PlanSweep(Problem{Pipeline: &hetPipe}, Options{}); err == nil {
		t.Error("plan accepted an instance without a platform")
	}
}

// randomTableBandwidth returns a per-link bandwidth table of random
// values.
func randomTableBandwidth(rng *rand.Rand, procs int) *fullmodel.Bandwidth {
	bw := &fullmodel.Bandwidth{Links: make([][]float64, procs), In: make([]float64, procs), Out: make([]float64, procs)}
	for u := range bw.Links {
		bw.Links[u] = make([]float64, procs)
		for v := range bw.Links[u] {
			if u != v {
				bw.Links[u][v] = float64(1 + rng.Intn(4))
			}
		}
		bw.In[u], bw.Out[u] = float64(1+rng.Intn(4)), float64(1+rng.Intn(4))
	}
	return bw
}

// TestCandidatePeriodsComplete checks the premise that lets exact sweeps
// drop the tightening probe: when a kind reports its candidate set
// complete, the period of every mapping a LatencyUnderPeriod solve
// returns at a candidate is itself a candidate. Besides the small random
// corpus it covers data-parallel pipelines on 11 and 12 processors,
// which are complete but solved heuristically under the default limits.
func TestCandidatePeriodsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	checked := map[workflow.Kind]int{}
	for trial := 0; trial < 600; trial++ {
		pr := randomHardishProblem(rng)
		if trial%10 == 0 {
			g := workflow.RandomPipeline(rng, 2+rng.Intn(5), 20)
			pr = Problem{Pipeline: &g, Platform: platform.Random(rng, 11+rng.Intn(2), 5), AllowDataParallel: true}
		}
		if pr.Bandwidth != nil && rng.Intn(2) == 0 {
			pr.Bandwidth = randomTableBandwidth(rng, pr.Platform.Processors())
		}
		pr.Objective = MinPeriod
		cands, complete := specOf(pr).CandidatePeriods(pr)
		if !complete {
			continue
		}
		for probe := 0; probe < 4; probe++ {
			sol, err := SolveContext(ctx, pr.withGoal(LatencyUnderPeriod, cands[rng.Intn(len(cands))]), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Feasible {
				continue
			}
			i := sort.SearchFloat64s(cands, sol.Cost.Period)
			near := i < len(cands) && numeric.Eq(cands[i], sol.Cost.Period) ||
				i > 0 && numeric.Eq(cands[i-1], sol.Cost.Period)
			if !near {
				t.Fatalf("trial %d (%v): mapping period %v is not among the %d candidates of a complete set",
					trial, CellKeyOf(pr), sol.Cost.Period, len(cands))
			}
			checked[pr.graphKind()]++
		}
	}
	if len(checked) != 5 {
		t.Fatalf("checked kinds %v, want the five with complete candidate sets", checked)
	}
}
