package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/fullmodel"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// collectSweep runs SweepFront and returns the emitted points in order.
func collectSweep(t *testing.T, e *Engine, pr core.Problem, opts core.Options) ([]SweepPoint, SweepStats) {
	t.Helper()
	var points []SweepPoint
	stats, err := e.SweepFront(context.Background(), pr, opts, SweepObserver{Point: func(p SweepPoint) error {
		points = append(points, p)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return points, stats
}

// TestSweepFrontMatchesParetoFront: on a randomized corpus the emitted
// point sequence is exactly the ParetoFront slice (which in turn matches
// the serial core front — TestEngineParetoMatchesSerial), with sequential
// indices and consistent stats.
func TestSweepFrontMatchesParetoFront(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		pr := randomProblem(rng)
		e := New(4)
		want, err := e.ParetoFront(context.Background(), pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		points, stats := collectSweep(t, New(4), pr, core.Options{})
		got := make([]core.Solution, len(points))
		for i, p := range points {
			if p.Index != i {
				t.Errorf("trial %d: point %d carries index %d", trial, i, p.Index)
			}
			if p.Explored > p.Total {
				t.Errorf("trial %d: point %d explored %d of %d", trial, i, p.Explored, p.Total)
			}
			got[i] = p.Solution
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("trial %d: streamed front diverges from ParetoFront\nslice:  %v\nstream: %v", trial, want, got)
		}
		if stats.Points != len(points) || stats.Explored > stats.Total {
			t.Errorf("trial %d: inconsistent stats %+v for %d points", trial, stats, len(points))
		}
		if stats.Total > 0 && stats.Explored != stats.Total {
			t.Errorf("trial %d: completed sweep left %d of %d candidates unexplored", trial, stats.Total-stats.Explored, stats.Total)
		}
	}
}

// TestSweepFrontEmitsBeforeSweepCompletes: on a budget-staged slow sweep
// the first point must be confirmed while candidates are still
// outstanding — the defining property of the incremental generator. The
// point's own progress counter proves it without wall-clock assertions.
func TestSweepFrontEmitsBeforeSweepCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pipe := workflow.RandomPipeline(rng, 6, 9)
	pr := core.Problem{
		Pipeline:          &pipe,
		Platform:          platform.Random(rng, 4, 5),
		AllowDataParallel: true,
		Objective:         core.MinPeriod,
	}
	e := New(2)
	var first *SweepPoint
	stop := errors.New("first point seen")
	_, err := e.SweepFront(context.Background(), pr, core.Options{AnytimeBudget: 100 * time.Millisecond}, SweepObserver{
		Point: func(p SweepPoint) error {
			cp := p
			first = &cp
			return stop // stop the sweep at the first confirmed point
		},
	})
	if first == nil {
		t.Fatal("sweep finished without emitting a point")
	}
	if !errors.Is(err, stop) {
		t.Fatalf("stopped sweep returned %v, want the observer's stop error", err)
	}
	if first.Explored >= first.Total {
		t.Errorf("first point confirmed only after the whole sweep (explored %d of %d)", first.Explored, first.Total)
	}
	if !first.Solution.Feasible {
		t.Error("confirmed point is infeasible")
	}
}

// TestSweepFrontPartialIsPrefix: a sweep stopped by its observer has
// delivered exactly a prefix of the full front, in increasing-period
// order — the partial-front contract streaming clients rely on.
func TestSweepFrontPartialIsPrefix(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.New(3, 2, 2, 1), AllowDataParallel: true}

	full, err := New(4).ParetoFront(context.Background(), pr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Fatalf("staging instance has a front of %d points, need >= 2", len(full))
	}
	stop := errors.New("enough")
	for k := 1; k < len(full); k++ {
		var got []core.Solution
		_, err := New(4).SweepFront(context.Background(), pr, core.Options{}, SweepObserver{Point: func(p SweepPoint) error {
			got = append(got, p.Solution)
			if len(got) == k {
				return stop
			}
			return nil
		}})
		if !errors.Is(err, stop) {
			t.Fatalf("k=%d: sweep returned %v, want the observer's stop error", k, err)
		}
		if !reflect.DeepEqual(got, full[:k]) {
			t.Errorf("k=%d: partial front is not a prefix of the full front\nfull:    %v\npartial: %v", k, full, got)
		}
		for i := 1; i < len(got); i++ {
			if !numeric.Less(got[i-1].Cost.Period, got[i].Cost.Period) {
				t.Errorf("k=%d: partial front not in increasing-period order", k)
			}
		}
	}
}

// TestSweepFrontProgress: the progress callback is monotone and reaches
// the candidate total on a completed sweep.
func TestSweepFrontProgress(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.New(2, 1, 1), AllowDataParallel: true}
	var last, calls int
	var points []SweepPoint
	stats, err := New(2).SweepFront(context.Background(), pr, core.Options{}, SweepObserver{
		Point: func(p SweepPoint) error { points = append(points, p); return nil },
		Progress: func(explored, total int) {
			calls++
			if explored < last {
				t.Errorf("progress went backwards: %d after %d", explored, last)
			}
			if explored > total {
				t.Errorf("progress %d exceeds total %d", explored, total)
			}
			last = explored
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if last != stats.Total || stats.Explored != stats.Total {
		t.Errorf("completed sweep reports explored %d / stats %+v", last, stats)
	}
	if len(points) != stats.Points {
		t.Errorf("emitted %d points, stats say %d", len(points), stats.Points)
	}
}

// TestSweepFrontBudgeted: a budgeted NP-hard sweep streams an
// increasing-period front of anytime-certified points.
func TestSweepFrontBudgeted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pipe := workflow.RandomPipeline(rng, 6, 9)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Random(rng, 4, 5), AllowDataParallel: true}
	points, stats := collectSweep(t, New(4), pr, core.Options{AnytimeBudget: 50 * time.Millisecond})
	if len(points) == 0 {
		t.Fatal("budgeted sweep emitted no points")
	}
	prev := 0.0
	for i, p := range points {
		if !p.Solution.Feasible || p.Solution.Cost.Period < prev {
			t.Errorf("point %d breaks the front invariant: %+v", i, p.Solution.Cost)
		}
		prev = p.Solution.Cost.Period
		if p.Solution.Anytime && p.Solution.Gap < 0 {
			t.Errorf("point %d has negative gap %g", i, p.Solution.Gap)
		}
	}
	if stats.Explored != stats.Total {
		t.Errorf("completed sweep explored %d of %d", stats.Explored, stats.Total)
	}
}

// TestSweepFrontRequiresObserver: a missing Point callback is an error,
// not a silent no-op.
func TestSweepFrontRequiresObserver(t *testing.T) {
	pipe := workflow.NewPipeline(1)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.Homogeneous(1, 1)}
	if _, err := New(1).SweepFront(context.Background(), pr, core.Options{}, SweepObserver{}); err == nil {
		t.Fatal("nil Point observer accepted")
	}
}

// candidateSolves counts the candidate periods of a sweep whose
// LatencyUnderPeriod subproblem sits in the engine cache.
func candidateSolves(e *Engine, plan core.SweepPlan, opts core.Options) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, k := range plan.Candidates {
		sub := plan.Problem
		sub.Objective, sub.Bound = core.LatencyUnderPeriod, k
		if _, ok := e.cache[Fingerprint(sub, opts)]; ok {
			n++
		}
	}
	return n
}

// TestSweepFrontSolveCount guards the solves an exact sweep issues: on
// a fixed 8-stage heterogeneous data-parallel pipeline over 6 processors
// the front oracle names exactly the front's candidates, so the sweep
// runs one LatencyUnderPeriod solve per point, plus the MinPeriod solve
// that places the first point, and no PeriodUnderLatency probe. A
// re-sweep on the same engine solves nothing. A one-port fork sweep,
// whose candidate set is coarse, still probes every point it accepts.
func TestSweepFrontSolveCount(t *testing.T) {
	pipe := workflow.NewPipeline(14, 4, 2, 4, 7, 3, 9, 5)
	pr := core.Problem{Pipeline: &pipe, Platform: platform.New(5, 4, 3, 2, 2, 1), AllowDataParallel: true}
	opts := core.Options{}.Normalized()
	plan, err := core.PlanSweep(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Exact || plan.Tighten || !plan.Oracle() {
		t.Fatalf("plan exact=%v tighten=%v oracle=%v, want an exact sweep with a front oracle and without probes",
			plan.Exact, plan.Tighten, plan.Oracle())
	}
	e := New(2)
	points, stats := collectSweep(t, e, pr, opts)
	misses := e.Stats().Misses
	if solved := candidateSolves(e, plan, opts); misses != uint64(solved)+1 || e.CacheSize() != solved+1 {
		t.Errorf("%d misses and %d cache entries for %d candidate solves and one MinPeriod solve: the sweep ran other solves",
			misses, e.CacheSize(), solved)
	}
	if misses != uint64(len(points))+1 {
		t.Errorf("%d solves for %d points: the sweep solved candidates off the front", misses, len(points))
	}
	if again, _ := collectSweep(t, e, pr, opts); !reflect.DeepEqual(again, points) || e.Stats().Misses != misses {
		t.Errorf("warm re-sweep ran %d more solves (same points: %v)", e.Stats().Misses-misses, reflect.DeepEqual(again, points))
	}
	if len(points) < 2 {
		t.Fatalf("front of %d points, want a trade-off", len(points))
	}
	t.Logf("%d points, %d solves for %d candidates", len(points), misses, stats.Total)

	fork := fullmodel.Fork{Root: 4, In: 1, Out0: 2, Weights: []float64{3, 5}, Outs: []float64{1, 2}}
	cf := core.Problem{CommFork: &fork, Platform: platform.New(3, 2, 1), Bandwidth: &fullmodel.Bandwidth{Uniform: 2}}
	if plan, err = core.PlanSweep(cf, opts); err != nil {
		t.Fatal(err)
	}
	if !plan.Exact || !plan.Tighten {
		t.Fatalf("comm-fork plan %+v, want an exact sweep with probes", plan)
	}
	e = New(2)
	points, _ = collectSweep(t, e, cf, opts)
	if len(points) == 0 {
		t.Fatal("comm-fork sweep emitted no points")
	}
	if probes := e.Stats().Misses - uint64(candidateSolves(e, plan, opts)); probes != uint64(len(points)) {
		t.Errorf("comm-fork sweep ran %d probes for %d points, want one per accepted point", probes, len(points))
	}
}

// TestSweepFrontOracleIdentity: a sweep planned with a front oracle
// solves only the candidates the oracle names, yet emits exactly the
// front of the walk that solves every candidate and offers each to the
// dominance accumulator. The corpus is random NP-hard pipelines — half of
// them with fractional weights and speeds, where the candidates and the
// oracle compute one period by different float operations — swept on a
// 2-worker engine.
func TestSweepFrontOracleIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	trials, oracles := 80, 0
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		pipe := workflow.RandomPipeline(rng, 3+rng.Intn(5), 12)
		pl := platform.Random(rng, 2+rng.Intn(5), 5)
		if trial%2 == 1 {
			for i := range pipe.Weights {
				pipe.Weights[i] += float64(rng.Intn(1000)) / 1000
			}
			for i := range pl.Speeds {
				pl.Speeds[i] += float64(rng.Intn(100)) / 100
			}
		}
		pr := core.Problem{Pipeline: &pipe, Platform: pl, AllowDataParallel: trial%4 < 3}
		plan, err := core.PlanSweep(pr, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Oracle() {
			continue // a polynomial cell (homogeneous draw): no oracle
		}
		oracles++
		acc := core.NewFrontAccumulator()
		var want []core.Solution
		for _, k := range plan.Candidates {
			sub := plan.Problem
			sub.Objective, sub.Bound = core.LatencyUnderPeriod, k
			sol, err := core.SolveContext(ctx, sub, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if point, ok := acc.Offer(sol, nil); ok {
				want = append(want, point)
			}
		}
		points, stats := collectSweep(t, New(2), pr, core.Options{})
		got := make([]core.Solution, len(points))
		for i, p := range points {
			got[i] = p.Solution
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (pipe=%v pl=%v dp=%v): oracle sweep diverges from the full walk\noracle: %v\nwalk:   %v",
				trial, pipe.Weights, pl.Speeds, pr.AllowDataParallel, got, want)
		}
		if stats.Explored != stats.Total || stats.Total != len(plan.Candidates) {
			t.Errorf("trial %d: completed sweep explored %d of %d (%d candidates)", trial, stats.Explored, stats.Total, len(plan.Candidates))
		}
	}
	if oracles < trials*3/4 {
		t.Fatalf("only %d of %d sweeps ran the front oracle", oracles, trials)
	}
}
