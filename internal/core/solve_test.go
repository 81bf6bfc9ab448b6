package core

import (
	"math/rand"
	"testing"

	"repliflow/internal/exhaustive"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

var section2 = workflow.NewPipeline(14, 4, 2, 4)

func TestSolveSection2HomPlatform(t *testing.T) {
	pl := platform.Homogeneous(3, 1)
	// Period: 8 by Theorem 1.
	sol, err := Solve(pipeProblem(section2, pl, true, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || !sol.Exact || !numeric.Eq(sol.Cost.Period, 8) {
		t.Errorf("period solution: %v", sol)
	}
	if sol.Method != MethodClosedForm {
		t.Errorf("method = %v, want closed-form", sol.Method)
	}
	// Latency with data-parallelism: 17 by Theorem 3.
	sol, err = Solve(pipeProblem(section2, pl, true, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(sol.Cost.Latency, 17) || sol.Method != MethodDP {
		t.Errorf("latency solution: %v", sol)
	}
	// Latency under period 8 forces full replication (latency 24).
	sol, err = Solve(pipeProblem(section2, pl, true, LatencyUnderPeriod, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(sol.Cost.Latency, 24) {
		t.Errorf("bi-criteria solution: %v", sol)
	}
	// Infeasible period bound.
	sol, err = Solve(pipeProblem(section2, pl, true, LatencyUnderPeriod, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible {
		t.Error("infeasible bound accepted")
	}
}

func TestSolveSection2HetPlatformExhaustive(t *testing.T) {
	// The NP-hard cell (data-parallelism on a heterogeneous platform) is
	// solved exactly for this small instance; the model-consistent optima
	// are period 4.5 and latency 8.5, not the paper's claimed 5 and 12.8
	// (table.Section2Report's rows E2.15 and E2.16 record why).
	pl := platform.New(2, 2, 1, 1)
	sol, err := Solve(pipeProblem(section2, pl, true, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodExhaustive || !sol.Exact || !numeric.Eq(sol.Cost.Period, 4.5) {
		t.Errorf("het period solution: %v", sol)
	}
	if sol.Classification.Complexity != NPHard {
		t.Errorf("classification = %v, want NP-hard", sol.Classification.Complexity)
	}
	sol, err = Solve(pipeProblem(section2, pl, true, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !numeric.Eq(sol.Cost.Latency, 8.5) {
		t.Errorf("het latency solution: %v", sol)
	}
}

func TestSolveHeuristicFallback(t *testing.T) {
	// Force the heuristic path with a tiny exhaustive limit.
	pl := platform.New(2, 2, 1, 1)
	opts := Options{MaxExhaustivePipelineProcs: 2}
	sol, err := Solve(pipeProblem(section2, pl, true, MinPeriod, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodHeuristic || sol.Exact {
		t.Errorf("expected heuristic solution, got %v", sol)
	}
	// Heuristic must stay sound: not better than the true optimum 4.5.
	if numeric.Less(sol.Cost.Period, 4.5) {
		t.Errorf("heuristic beats the optimum: %v", sol.Cost.Period)
	}
	// And the mapping must actually achieve the reported cost.
	got, err := mapping.EvalPipeline(section2, pl, *sol.PipelineMapping)
	if err != nil || !numeric.Eq(got.Period, sol.Cost.Period) {
		t.Errorf("reported %v, evaluated %v (err=%v)", sol.Cost, got, err)
	}
}

func TestSolveTheorem7Path(t *testing.T) {
	p := workflow.HomogeneousPipeline(5, 3)
	pl := platform.New(4, 2, 1)
	sol, err := Solve(pipeProblem(p, pl, false, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodBinarySearchDP || !sol.Exact {
		t.Errorf("expected Theorem 7 path, got %v", sol)
	}
	opt, _ := exhaustive.PipelinePeriod(p, pl, false)
	if !numeric.Eq(sol.Cost.Period, opt.Cost.Period) {
		t.Errorf("period %v != exhaustive %v", sol.Cost.Period, opt.Cost.Period)
	}
}

func TestSolveForkPaths(t *testing.T) {
	homFork := workflow.HomogeneousFork(2, 3, 1)
	hetFork := workflow.NewFork(2, 1, 3)
	homPlat := platform.Homogeneous(3, 1)
	hetPlat := platform.New(1, 2, 3)

	// Theorem 10 closed form.
	sol, err := Solve(forkProblem(hetFork, homPlat, false, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodClosedForm || !numeric.Eq(sol.Cost.Period, 2) { // 6/3
		t.Errorf("Theorem 10 path: %v", sol)
	}
	// Theorem 11 DP.
	sol, err = Solve(forkProblem(homFork, homPlat, true, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodDP || !sol.Exact {
		t.Errorf("Theorem 11 path: %v", sol)
	}
	// Theorem 14 binary search.
	sol, err = Solve(forkProblem(homFork, hetPlat, false, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodBinarySearchDP || !sol.Exact {
		t.Errorf("Theorem 14 path: %v", sol)
	}
	// NP-hard fork cell solved exhaustively at small size.
	sol, err = Solve(forkProblem(hetFork, homPlat, false, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodExhaustive || !sol.Exact {
		t.Errorf("NP-hard fork path: %v", sol)
	}
	opt, _ := exhaustive.ForkLatency(hetFork, homPlat, false)
	if !numeric.Eq(sol.Cost.Latency, opt.Cost.Latency) {
		t.Errorf("latency %v != exhaustive %v", sol.Cost.Latency, opt.Cost.Latency)
	}
	// Same cell with a tiny limit falls back to the heuristic.
	sol, err = Solve(forkProblem(hetFork, homPlat, false, MinLatency, 0), Options{MaxExhaustiveForkStages: 1, MaxExhaustiveForkProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodHeuristic || sol.Exact {
		t.Errorf("heuristic fork path: %v", sol)
	}
	if numeric.Less(sol.Cost.Latency, opt.Cost.Latency) {
		t.Errorf("heuristic beats optimum: %v < %v", sol.Cost.Latency, opt.Cost.Latency)
	}
}

func TestSolveForkJoinPaths(t *testing.T) {
	homFJ := workflow.HomogeneousForkJoin(2, 1, 2, 1)
	hetFJ := workflow.NewForkJoin(2, 1, 1, 3)
	homPlat := platform.Homogeneous(2, 1)
	hetPlat := platform.New(1, 2)

	sol, err := Solve(forkJoinProblem(homFJ, homPlat, false, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodClosedForm || !numeric.Eq(sol.Cost.Period, 2.5) { // 5/2
		t.Errorf("fork-join Theorem 10 path: %v", sol)
	}
	sol, err = Solve(forkJoinProblem(homFJ, homPlat, false, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodDP || !sol.Exact {
		t.Errorf("fork-join Theorem 11 path: %v", sol)
	}
	sol, err = Solve(forkJoinProblem(homFJ, hetPlat, false, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodBinarySearchDP || !sol.Exact {
		t.Errorf("fork-join Theorem 14 path: %v", sol)
	}
	// NP-hard fork-join cell (heterogeneous leaves, het platform).
	sol, err = Solve(forkJoinProblem(hetFJ, hetPlat, false, MinLatency, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Method != MethodExhaustive || !sol.Exact {
		t.Errorf("fork-join NP-hard path: %v", sol)
	}
	// Heuristic fallback stays sound.
	solH, err := Solve(forkJoinProblem(hetFJ, hetPlat, false, MinLatency, 0), Options{MaxExhaustiveForkStages: 1, MaxExhaustiveForkProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if solH.Method != MethodHeuristic || numeric.Less(solH.Cost.Latency, sol.Cost.Latency) {
		t.Errorf("fork-join heuristic path: %v (optimum %v)", solH, sol.Cost)
	}
}

func TestSolveMatchesExhaustiveOnRandomInstances(t *testing.T) {
	// End-to-end: on small instances every Solve result that claims Exact
	// must coincide with exhaustive search.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		dp := rng.Intn(2) == 0
		obj := []Objective{MinPeriod, MinLatency}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			p := workflow.RandomPipeline(rng, 1+rng.Intn(4), 9)
			pl := platform.Random(rng, 1+rng.Intn(4), 4)
			sol, err := Solve(pipeProblem(p, pl, dp, obj, 0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Exact {
				continue
			}
			var want float64
			if obj == MinPeriod {
				opt, _ := exhaustive.PipelinePeriod(p, pl, dp)
				want = opt.Cost.Period
			} else {
				opt, _ := exhaustive.PipelineLatency(p, pl, dp)
				want = opt.Cost.Latency
			}
			if !numeric.Eq(GoalOf(Problem{Objective: obj}).Value(sol.Cost), want) {
				t.Fatalf("trial %d: pipeline %v dp=%v obj=%v: Solve %v != exhaustive %v (%v)",
					trial, p.Weights, dp, obj, GoalOf(Problem{Objective: obj}).Value(sol.Cost), want, sol)
			}
		} else {
			f := workflow.RandomFork(rng, 1+rng.Intn(3), 9)
			pl := platform.Random(rng, 1+rng.Intn(3), 4)
			sol, err := Solve(forkProblem(f, pl, dp, obj, 0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Exact {
				continue
			}
			var want float64
			if obj == MinPeriod {
				opt, _ := exhaustive.ForkPeriod(f, pl, dp)
				want = opt.Cost.Period
			} else {
				opt, _ := exhaustive.ForkLatency(f, pl, dp)
				want = opt.Cost.Latency
			}
			if !numeric.Eq(GoalOf(Problem{Objective: obj}).Value(sol.Cost), want) {
				t.Fatalf("trial %d: fork %+v dp=%v obj=%v: Solve %v != exhaustive %v (%v)",
					trial, f, dp, obj, GoalOf(Problem{Objective: obj}).Value(sol.Cost), want, sol)
			}
		}
	}
}

func TestSolutionString(t *testing.T) {
	pl := platform.Homogeneous(2, 1)
	sol, err := Solve(pipeProblem(section2, pl, false, MinPeriod, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := sol.String(); s == "" {
		t.Error("empty solution string")
	}
	inf := infeasible(MethodDP, true, Classification{PolyDP, "Theorem 4"})
	if s := inf.String(); s == "" {
		t.Error("empty infeasible string")
	}
	for _, m := range []Method{MethodClosedForm, MethodDP, MethodBinarySearchDP, MethodExhaustive, MethodHeuristic, Method(9)} {
		if m.String() == "" {
			t.Error("empty method string")
		}
	}
}
