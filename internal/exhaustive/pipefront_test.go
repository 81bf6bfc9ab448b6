package exhaustive

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// frontOf reduces (period, latency) pairs to their Pareto front under the
// sweep's tolerant dominance: ascending periods, each point's latency
// strictly below the previous one's beyond numeric.Eps.
func frontOf(costs []mapping.Cost) []mapping.Cost {
	costs = slices.Clone(costs)
	slices.SortFunc(costs, func(a, b mapping.Cost) int {
		if a.Period != b.Period {
			if a.Period < b.Period {
				return -1
			}
			return 1
		}
		if a.Latency < b.Latency {
			return -1
		}
		if a.Latency > b.Latency {
			return 1
		}
		return 0
	})
	var front []mapping.Cost
	prev := numeric.Inf
	for _, c := range costs {
		if numeric.Less(c.Latency, prev) {
			front = append(front, c)
			prev = c.Latency
		}
	}
	return front
}

// oracleFront runs the label pass and returns its front as costs.
func oracleFront(t *testing.T, p workflow.Pipeline, pl platform.Platform, dp bool) []mapping.Cost {
	t.Helper()
	pp := NewPipelinePrepared(p, pl, dp)
	labels, err := pp.labelPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	periods, err := pp.FrontPeriods(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]mapping.Cost, len(labels))
	for i, l := range labels {
		if periods[i] != l.period {
			t.Fatalf("FrontPeriods[%d] = %v, label period %v", i, periods[i], l.period)
		}
		if i > 0 && !(l.period > labels[i-1].period && l.latency < labels[i-1].latency) {
			t.Fatalf("labels %v then %v are not strictly ascending in period and descending in latency", labels[i-1], l)
		}
		costs[i] = mapping.Cost{Period: l.period, Latency: l.latency}
	}
	return frontOf(costs)
}

// sameFront reports whether two fronts agree point for point within the
// tolerance.
func sameFront(a, b []mapping.Cost) bool {
	return slices.EqualFunc(a, b, func(x, y mapping.Cost) bool {
		return numeric.Eq(x.Period, y.Period) && numeric.Eq(x.Latency, y.Latency)
	})
}

// frontInstance draws a random pipeline and platform. Half the instances
// carry fractional weights and speeds, so label costs (w*perInv) and
// evaluated costs (w/(k*min)) differ in their last bits.
func frontInstance(rng *rand.Rand, n, p int, hom bool) (workflow.Pipeline, platform.Platform) {
	pipe := workflow.RandomPipeline(rng, n, 12)
	pl := platform.Random(rng, p, 5)
	if hom {
		pl = platform.Homogeneous(p, float64(1+rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		for i := range pipe.Weights {
			pipe.Weights[i] += float64(rng.Intn(1000)) / 1000
		}
		for i := range pl.Speeds {
			if !hom {
				pl.Speeds[i] += float64(rng.Intn(100)) / 100
			}
		}
	}
	return pipe, pl
}

// TestFrontPeriodsMatchesBruteForce: on instances of at most 4 stages and
// 4 processors the label pass's front equals the front of every
// enumerated mapping, on homogeneous and heterogeneous platforms, with
// and without data-parallelism.
func TestFrontPeriodsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 160; trial++ {
		hom, dp := trial%4 < 2, trial%2 == 0
		pipe, pl := frontInstance(rng, 1+rng.Intn(4), 1+rng.Intn(4), hom)
		var all []mapping.Cost
		enumeratePipeline(pipe, pl, dp, func(_ mapping.PipelineMapping, c mapping.Cost) {
			all = append(all, c)
		})
		want := frontOf(all)
		if got := oracleFront(t, pipe, pl, dp); !sameFront(got, want) {
			t.Fatalf("trial %d (pipe=%v pl=%v dp=%v): label front\n %v\nbrute-force front\n %v", trial, pipe.Weights, pl.Speeds, dp, got, want)
		}
	}
}

// TestFrontPeriodsMatchesPipelinePareto: on larger instances the label
// pass's front equals PipelinePareto's, which walks every candidate
// period with scalar solves and tightening probes and carries no labels.
func TestFrontPeriodsMatchesPipelinePareto(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 48
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		hom, dp := trial%4 < 1, trial%2 == 0
		pipe, pl := frontInstance(rng, 3+rng.Intn(4), 3+rng.Intn(3), hom)
		var want []mapping.Cost
		for _, res := range PipelinePareto(pipe, pl, dp) {
			want = append(want, res.Cost)
		}
		if got := oracleFront(t, pipe, pl, dp); !sameFront(got, want) {
			t.Fatalf("trial %d (pipe=%v pl=%v dp=%v): label front\n %v\nPipelinePareto\n %v", trial, pipe.Weights, pl.Speeds, dp, got, want)
		}
	}
}

// TestFrontPeriodsCancelled: with its three bound solves already
// memoized, a pass on a cancelled context fails at its first poll with
// the context's error and memoizes nothing, so a later pass on the same
// solver runs in full.
func TestFrontPeriodsCancelled(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 3)
	pl := platform.New(5, 4, 3, 2, 2, 1)
	pp := NewPipelinePrepared(pipe, pl, true)
	bg := context.Background()
	fastest, _, err := pp.Solve(bg, mapping.Goal{MinimizePeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, goal := range []mapping.Goal{{}, {PeriodCap: fastest.Cost.Period}} {
		if _, _, err := pp.Solve(bg, goal); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := pp.FrontPeriods(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pass returned %v, want context.Canceled", err)
	}
	got, err := pp.FrontPeriods(bg)
	if err != nil || len(got) < 2 {
		t.Fatalf("pass after a cancelled one: %v, %v", got, err)
	}
}
