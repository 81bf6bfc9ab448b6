package spdecomp

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

func mustSP(t *testing.T, steps ...workflow.SPStep) workflow.SP {
	t.Helper()
	g := workflow.NewSP(steps...)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid test graph: %v", err)
	}
	return g
}

func TestReduceChain(t *testing.T) {
	g := mustSP(t,
		workflow.SPStep{Name: "c", Weight: 3, After: []string{"b"}},
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
	)
	red, ok := Reduce(g)
	if !ok || red.Kind != workflow.KindPipeline {
		t.Fatalf("Reduce = %+v, %v; want pipeline", red, ok)
	}
	want := []float64{1, 2, 3}
	for i, w := range red.Pipeline.Weights {
		if w != want[i] {
			t.Fatalf("pipeline weights = %v, want %v", red.Pipeline.Weights, want)
		}
	}
	if red.Order[0] != 1 || red.Order[1] != 2 || red.Order[2] != 0 {
		t.Fatalf("Order = %v, want [1 2 0]", red.Order)
	}
}

func TestReduceForkAndForkJoin(t *testing.T) {
	fork := mustSP(t,
		workflow.SPStep{Name: "root", Weight: 5},
		workflow.SPStep{Name: "l1", Weight: 1, After: []string{"root"}},
		workflow.SPStep{Name: "l2", Weight: 2, After: []string{"root"}},
	)
	red, ok := Reduce(fork)
	if !ok || red.Kind != workflow.KindFork {
		t.Fatalf("fork Reduce = %+v, %v", red, ok)
	}
	if red.Fork.Root != 5 || red.Fork.Weights[0] != 1 || red.Fork.Weights[1] != 2 {
		t.Fatalf("fork = %+v", *red.Fork)
	}

	fj := mustSP(t,
		workflow.SPStep{Name: "root", Weight: 5},
		workflow.SPStep{Name: "l1", Weight: 1, After: []string{"root"}},
		workflow.SPStep{Name: "l2", Weight: 2, After: []string{"root"}},
		workflow.SPStep{Name: "join", Weight: 4, After: []string{"l1", "l2"}},
	)
	red, ok = Reduce(fj)
	if !ok || red.Kind != workflow.KindForkJoin {
		t.Fatalf("fork-join Reduce = %+v, %v", red, ok)
	}
	if red.ForkJoin.Root != 5 || red.ForkJoin.Join != 4 {
		t.Fatalf("fork-join = %+v", *red.ForkJoin)
	}
	// Canonical order: root, leaves, join.
	if got, want := red.Order, []int{0, 1, 2, 3}; !equalInts(got, want) {
		t.Fatalf("Order = %v, want %v", got, want)
	}
}

func TestReduceIrreducible(t *testing.T) {
	// Diamond with an extra chord: a -> {b, c} -> d, plus b -> c makes the
	// inner pair ordered, so the graph is neither a chain nor a fork(-join).
	g := mustSP(t,
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
		workflow.SPStep{Name: "c", Weight: 3, After: []string{"a", "b"}},
		workflow.SPStep{Name: "d", Weight: 1, After: []string{"b", "c"}},
	)
	if red, ok := Reduce(g); ok {
		t.Fatalf("Reduce matched %v on an irreducible DAG", red.Kind)
	}
	// Plain diamond is a fork-join.
	diamond := mustSP(t,
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
		workflow.SPStep{Name: "c", Weight: 3, After: []string{"a"}},
		workflow.SPStep{Name: "d", Weight: 1, After: []string{"b", "c"}},
	)
	if red, ok := Reduce(diamond); !ok || red.Kind != workflow.KindForkJoin {
		t.Fatalf("diamond Reduce = %v, %v; want fork-join", red.Kind, ok)
	}
	// Two-step chain reduces as a pipeline, not a one-leaf fork.
	two := mustSP(t,
		workflow.SPStep{Name: "a", Weight: 1},
		workflow.SPStep{Name: "b", Weight: 2, After: []string{"a"}},
	)
	if red, ok := Reduce(two); !ok || red.Kind != workflow.KindPipeline {
		t.Fatalf("two-step Reduce = %v, %v; want pipeline", red.Kind, ok)
	}
}

// wide returns an irreducible 6-step DAG used across the solver tests.
func wide(t *testing.T) workflow.SP {
	return mustSP(t,
		workflow.SPStep{Name: "in", Weight: 2},
		workflow.SPStep{Name: "x", Weight: 4, After: []string{"in"}},
		workflow.SPStep{Name: "y", Weight: 3, After: []string{"in"}},
		workflow.SPStep{Name: "xy", Weight: 5, After: []string{"x", "y"}},
		workflow.SPStep{Name: "z", Weight: 1, After: []string{"x"}},
		workflow.SPStep{Name: "out", Weight: 2, After: []string{"xy", "z"}},
	)
}

func TestEvalHandComputed(t *testing.T) {
	// a(2) -> b(4), a -> c(6), {b,c} -> d(2) on speeds {2, 1}.
	g := mustSP(t,
		workflow.SPStep{Name: "a", Weight: 2},
		workflow.SPStep{Name: "b", Weight: 4, After: []string{"a"}},
		workflow.SPStep{Name: "c", Weight: 6, After: []string{"a"}},
		workflow.SPStep{Name: "d", Weight: 2, After: []string{"b", "c"}},
	)
	pl := platform.New(2, 1)
	blocks := []mapping.SPBlock{
		{Proc: 0, Steps: []int{0, 2, 3}}, // a, c, d on the fast processor
		{Proc: 1, Steps: []int{1}},       // b on the slow one
	}
	c, err := Eval(g, pl, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Loads: P0 = 10/2 = 5, P1 = 4/1 = 4 -> period 5.
	if !numeric.Eq(c.Period, 5) {
		t.Errorf("period = %v, want 5", c.Period)
	}
	// Schedule: a on P0 [0,1); b on P1 [1,5); c on P0 [1,4); d waits for b
	// -> starts 5, runs 1 -> latency 6.
	if !numeric.Eq(c.Latency, 6) {
		t.Errorf("latency = %v, want 6", c.Latency)
	}
}

func TestEvalRejectsBadBlocks(t *testing.T) {
	g := wide(t)
	pl := platform.New(2, 1)
	cases := [][]mapping.SPBlock{
		nil,
		{{Proc: 0, Steps: []int{0, 1, 2, 3, 4}}}, // missing step
		{{Proc: 0, Steps: []int{0, 1, 2, 3, 4, 5}}, {Proc: 0, Steps: []int{0}}}, // dup proc+step
		{{Proc: 7, Steps: []int{0, 1, 2, 3, 4, 5}}},                             // proc range
		{{Proc: 0, Steps: []int{0, 1, 2, 3, 4, 5}}, {Proc: 1, Steps: nil}},      // empty block
	}
	for i, blocks := range cases {
		if _, err := Eval(g, pl, blocks); err == nil {
			t.Errorf("case %d: Eval accepted invalid blocks", i)
		}
	}
}

func TestExhaustiveBeatsHeuristicsAndRespectsBounds(t *testing.T) {
	g := wide(t)
	pl := platform.New(3, 2, 1)
	perLB, latLB := Bounds(g, pl)
	for _, goal := range []mapping.Goal{{MinimizePeriod: true}, {}} {
		blocks, cost, ok, err := Exhaustive(context.Background(), g, pl, goal)
		if err != nil || !ok {
			t.Fatalf("Exhaustive: %v ok=%v", err, ok)
		}
		if _, err := Eval(g, pl, blocks); err != nil {
			t.Fatalf("Exhaustive returned invalid blocks: %v", err)
		}
		if numeric.Less(cost.Period, perLB) || numeric.Less(cost.Latency, latLB) {
			t.Errorf("cost %v beats certified bounds (%v, %v)", cost, perLB, latLB)
		}
		for _, cand := range Heuristics(g, pl) {
			if goal.Better(cand.Cost, cost) {
				t.Errorf("heuristic %v beats exhaustive %v under %+v", cand.Cost, cost, goal)
			}
		}
	}
}

func TestExhaustiveDeterministic(t *testing.T) {
	g := wide(t)
	pl := platform.New(2, 2, 1)
	first, c1, _, err := Exhaustive(context.Background(), g, pl, mapping.Goal{MinimizePeriod: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, c2, _, err := Exhaustive(context.Background(), g, pl, mapping.Goal{MinimizePeriod: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBlocks(first, again) || c1 != c2 {
			t.Fatalf("non-deterministic exhaustive: %v (%v) vs %v (%v)", first, c1, again, c2)
		}
	}
}

func TestExhaustiveInfeasibleCaps(t *testing.T) {
	g := wide(t)
	pl := platform.New(1)
	_, _, ok, err := Exhaustive(context.Background(), g, pl, mapping.Goal{MinimizePeriod: true, PeriodCap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("period cap 0.5 should be infeasible on a speed-1 processor")
	}
}

func TestExhaustiveCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workflow.RandomSP(rng, 9, 9, 4, 3)
	pl := platform.Random(rng, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := Exhaustive(ctx, g, pl, mapping.Goal{MinimizePeriod: true}); err == nil {
		t.Fatal("cancelled exhaustive returned nil error")
	}
}

func TestHeuristicsValidOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := workflow.RandomSP(rng, 1+rng.Intn(10), 9, 4, 3)
		pl := platform.Random(rng, 1+rng.Intn(5), 5)
		cands := Heuristics(g, pl)
		if len(cands) == 0 {
			t.Fatalf("trial %d: no heuristic candidate", trial)
		}
		perLB, latLB := Bounds(g, pl)
		for _, c := range cands {
			got, err := Eval(g, pl, c.Blocks)
			if err != nil {
				t.Fatalf("trial %d: invalid heuristic blocks: %v\n%s", trial, err, g.Render())
			}
			if got != c.Cost {
				t.Fatalf("trial %d: candidate cost %v, Eval says %v", trial, c.Cost, got)
			}
			if numeric.Less(c.Cost.Period, perLB) || numeric.Less(c.Cost.Latency, latLB) {
				t.Fatalf("trial %d: heuristic cost %v beats bounds (%v, %v)", trial, c.Cost, perLB, latLB)
			}
		}
	}
}

func TestBudgetedImprovesOrMatchesSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := workflow.RandomSP(rng, 10, 9, 4, 3)
	pl := platform.Random(rng, 4, 5)
	goal := mapping.Goal{MinimizePeriod: true}
	seedBest, _ := Best(Heuristics(g, pl), goal)
	blocks, cost, iters, feasible, err := Budgeted(context.Background(), g, pl, goal, 42, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("unbounded goal must be feasible")
	}
	if iters <= 0 {
		t.Fatalf("iters = %d, want > 0", iters)
	}
	if _, err := Eval(g, pl, blocks); err != nil {
		t.Fatalf("budgeted blocks invalid: %v", err)
	}
	if goal.Better(seedBest.Cost, cost) {
		t.Fatalf("budgeted %v worse than its own seed %v", cost, seedBest.Cost)
	}
	perLB, _ := Bounds(g, pl)
	if numeric.Less(cost.Period, perLB) {
		t.Fatalf("budgeted period %v beats bound %v", cost.Period, perLB)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
