package core

import (
	"context"

	"repliflow/internal/exhaustive"
	"repliflow/internal/forkalgo"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/workflow"
)

func forkSolution(m mapping.ForkMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		ForkMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

func forkJoinSolution(m mapping.ForkJoinMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		ForkJoinMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

// wholeForkOnProcessor maps the entire fork onto the single processor q.
func wholeForkOnProcessor(f workflow.Fork, q int) mapping.ForkMapping {
	leaves := make([]int, f.Leaves())
	for i := range leaves {
		leaves[i] = i
	}
	return mapping.ForkMapping{Blocks: []mapping.ForkBlock{
		mapping.NewForkBlock(true, leaves, mapping.Replicated, q),
	}}
}

// wholeForkJoinOnProcessor maps the entire fork-join onto processor q.
func wholeForkJoinOnProcessor(fj workflow.ForkJoin, q int) mapping.ForkJoinMapping {
	leaves := make([]int, fj.Leaves())
	for i := range leaves {
		leaves[i] = i
	}
	return mapping.ForkJoinMapping{Blocks: []mapping.ForkJoinBlock{
		mapping.NewForkJoinBlock(true, true, leaves, mapping.Replicated, q),
	}}
}

// registerForkSolvers populates the registry with the fork and fork-join
// columns of Table 1; fork-joins classify exactly as forks (Section 6.3),
// so both kinds share the registration structure with kind-specific solver
// funcs.
func init() {
	bools := []bool{false, true}
	objs := []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency}

	registerKind(KindSpec{
		Kind:             workflow.KindFork,
		Name:             workflow.KindFork.String(),
		HasGraph:         func(pr Problem) bool { return pr.Fork != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Fork.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Fork.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  forkInLimits,
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.Fork.Leaves()+1 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		CandidatePeriods: forkCandidatePeriods,
		Anytime:          solveForkAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			mix(pr.Fork.Root)
			for _, w := range pr.Fork.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloat(append(b, 'F'), pr.Fork.Root)
			return fpFloats(b, pr.Fork.Weights)
		},
	})
	registerKind(KindSpec{
		Kind:             workflow.KindForkJoin,
		Name:             workflow.KindForkJoin.String(),
		HasGraph:         func(pr Problem) bool { return pr.ForkJoin != nil },
		ValidateGraph:    func(pr Problem) error { return pr.ForkJoin.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.ForkJoin.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  forkJoinInLimits,
		ParallelWorthwhile: func(pr Problem) bool {
			return pr.ForkJoin.Leaves()+2 >= parMinForkItems &&
				pr.Platform.Processors() >= parMinForkProcs
		},
		CandidatePeriods: forkJoinCandidatePeriods,
		Anytime:          solveForkJoinAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			mix(pr.ForkJoin.Root)
			mix(pr.ForkJoin.Join)
			for _, w := range pr.ForkJoin.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			b = fpFloat(append(b, 'J'), pr.ForkJoin.Root)
			b = fpFloat(b, pr.ForkJoin.Join)
			return fpFloats(b, pr.ForkJoin.Weights)
		},
	})
	for _, fam := range []forkFamily{forkCells(), forkJoinCells()} {
		kind := fam.kind
		hard := preparedOnce(fam.prepare, fam.beyond)

		// Homogeneous platforms: period is straightforward (Theorem 10);
		// the remaining objectives are polynomial only for homogeneous
		// forks (Theorem 11) and NP-hard otherwise (Theorem 12).
		for _, gh := range bools {
			for _, dp := range bools {
				register(CellKey{kind, true, gh, dp, MinPeriod}, fam.homPeriod)
			}
		}
		for _, dp := range bools {
			for _, obj := range objs[1:] {
				register(CellKey{kind, true, true, dp, obj}, fam.theorem11[obj])
				register(CellKey{kind, true, false, dp, obj},
					SolverEntry{MethodExhaustive, true, "Theorem 12", hard, fam.prepare})
			}
		}

		// Heterogeneous platforms: homogeneous forks without
		// data-parallelism stay polynomial (Theorem 14); data-parallelism
		// is NP-hard (Theorem 13), and so are heterogeneous forks
		// (Theorems 12/15).
		for _, obj := range objs {
			register(CellKey{kind, false, true, false, obj}, fam.theorem14[obj])
			source := "Theorems 12/15"
			if obj == MinPeriod {
				source = "Theorem 15"
			}
			register(CellKey{kind, false, false, false, obj},
				SolverEntry{MethodExhaustive, true, source, hard, fam.prepare})
			for _, gh := range bools {
				register(CellKey{kind, false, gh, true, obj},
					SolverEntry{MethodExhaustive, true, "Theorem 13", hard, fam.prepare})
			}
		}
	}
}

// forkFamily is what the fork and fork-join columns register per kind:
// fork-joins classify exactly as forks (Section 6.3), so both kinds
// share one registration structure.
type forkFamily struct {
	kind workflow.Kind
	// homPeriod is Theorem 10's cell; theorem11 and theorem14 hold the
	// polynomial cells of those theorems by objective.
	homPeriod            SolverEntry
	theorem11, theorem14 map[Objective]SolverEntry
	// prepare and beyond solve the NP-hard cells within and beyond the
	// exhaustive limits.
	prepare func(Problem, Options) *PreparedCell
	beyond  SolverFunc
}

func forkCells() forkFamily {
	return forkFamily{
		kind: workflow.KindFork,
		homPeriod: polynomial(MethodClosedForm, "Theorem 10", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
			return always(forkalgo.HomForkPeriod(*pr.Fork, pr.Platform))
		}),
		theorem11: map[Objective]SolverEntry{
			MinLatency: polynomial(MethodDP, "Theorem 11", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return always(forkalgo.HomForkLatency(*pr.Fork, pr.Platform, pr.AllowDataParallel))
			}),
			LatencyUnderPeriod: polynomial(MethodDP, "Theorem 11", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return forkalgo.HomForkLatencyUnderPeriod(*pr.Fork, pr.Platform, pr.AllowDataParallel, pr.Bound)
			}),
			PeriodUnderLatency: polynomial(MethodDP, "Theorem 11", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return forkalgo.HomForkPeriodUnderLatency(*pr.Fork, pr.Platform, pr.AllowDataParallel, pr.Bound)
			}),
		},
		theorem14: map[Objective]SolverEntry{
			MinPeriod: polynomial(MethodBinarySearchDP, "Theorem 14", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return always(forkalgo.HetHomForkPeriodNoDP(*pr.Fork, pr.Platform))
			}),
			MinLatency: polynomial(MethodBinarySearchDP, "Theorem 14", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return always(forkalgo.HetHomForkLatencyNoDP(*pr.Fork, pr.Platform))
			}),
			LatencyUnderPeriod: polynomial(MethodBinarySearchDP, "Theorem 14", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return forkalgo.HetHomForkLatencyUnderPeriodNoDP(*pr.Fork, pr.Platform, pr.Bound)
			}),
			PeriodUnderLatency: polynomial(MethodBinarySearchDP, "Theorem 14", forkSolution, func(pr Problem) (forkalgo.Result, bool, error) {
				return forkalgo.HetHomForkPeriodUnderLatencyNoDP(*pr.Fork, pr.Platform, pr.Bound)
			}),
		},
		prepare: prepareForkHard,
		beyond:  solveForkHeuristic,
	}
}

func forkJoinCells() forkFamily {
	return forkFamily{
		kind: workflow.KindForkJoin,
		homPeriod: polynomial(MethodClosedForm, "Theorem 10", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
			return always(forkalgo.HomForkJoinPeriod(*pr.ForkJoin, pr.Platform))
		}),
		theorem11: map[Objective]SolverEntry{
			MinLatency: polynomial(MethodDP, "Theorem 11", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return always(forkalgo.HomForkJoinLatency(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel))
			}),
			LatencyUnderPeriod: polynomial(MethodDP, "Theorem 11", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return forkalgo.HomForkJoinLatencyUnderPeriod(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel, pr.Bound)
			}),
			PeriodUnderLatency: polynomial(MethodDP, "Theorem 11", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return forkalgo.HomForkJoinPeriodUnderLatency(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel, pr.Bound)
			}),
		},
		theorem14: map[Objective]SolverEntry{
			MinPeriod: polynomial(MethodBinarySearchDP, "Theorem 14", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return always(forkalgo.HetHomForkJoinPeriodNoDP(*pr.ForkJoin, pr.Platform))
			}),
			MinLatency: polynomial(MethodBinarySearchDP, "Theorem 14", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return always(forkalgo.HetHomForkJoinLatencyNoDP(*pr.ForkJoin, pr.Platform))
			}),
			LatencyUnderPeriod: polynomial(MethodBinarySearchDP, "Theorem 14", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return forkalgo.HetHomForkJoinLatencyUnderPeriodNoDP(*pr.ForkJoin, pr.Platform, pr.Bound)
			}),
			PeriodUnderLatency: polynomial(MethodBinarySearchDP, "Theorem 14", forkJoinSolution, func(pr Problem) (forkalgo.ForkJoinResult, bool, error) {
				return forkalgo.HetHomForkJoinPeriodUnderLatencyNoDP(*pr.ForkJoin, pr.Platform, pr.Bound)
			}),
		},
		prepare: prepareForkJoinHard,
		beyond:  solveForkJoinHeuristic,
	}
}

// --- Fork solvers ----------------------------------------------------------

// forkInLimits reports whether a fork instance is within the exhaustive
// set-partition limits: its stages (root plus leaves) and processors.
func forkInLimits(pr Problem, opts Options) bool {
	return pr.Fork.Leaves()+1 <= opts.MaxExhaustiveForkStages &&
		pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
}

// forkJoinInLimits is forkInLimits for fork-joins, whose join is one
// more stage.
func forkJoinInLimits(pr Problem, opts Options) bool {
	return pr.ForkJoin.Leaves()+2 <= opts.MaxExhaustiveForkStages &&
		pr.Platform.Processors() <= opts.MaxExhaustiveForkProcs
}

// solveForkHeuristic solves the NP-hard fork cells beyond the exhaustive
// limits: the best polynomial heuristic candidate, polished by hill
// climbing on the optimized criterion and kept polished only if it still
// honours the bound.
func solveForkHeuristic(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	maps, costs := forkHeuristicCandidates(pr)
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	best, bestCost := maps[idx], costs[idx]
	goal := GoalOf(pr)
	if m, c, err := heuristics.LocalSearchFork(*pr.Fork, pr.Platform, best, goal); err == nil &&
		goal.Feasible(c) && numeric.Less(goal.Value(c), goal.Value(bestCost)) {
		best, bestCost = m, c
	}
	return forkSolution(best, bestCost, MethodHeuristic, false, cl), nil
}

// forkHeuristicCandidates returns the polynomial heuristic mappings of
// an NP-hard fork instance (with their costs, aligned by index): the
// candidate pool of both the heuristic fallback path and the anytime
// portfolio's seeds.
func forkHeuristicCandidates(pr Problem) ([]mapping.ForkMapping, []mapping.Cost) {
	f, pl := *pr.Fork, pr.Platform
	var maps []mapping.ForkMapping
	var costs []mapping.Cost
	add := func(m mapping.ForkMapping) {
		if c, err := mapping.EvalFork(f, pl, m); err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	add(mapping.ReplicateAllFork(f, pl))
	add(wholeForkOnProcessor(f, pl.Fastest()))
	if m, _, err := heuristics.HetForkPeriodGreedy(f, pl); err == nil {
		add(m)
	}
	if pl.IsHomogeneous() {
		if m, _, err := heuristics.HetForkLatencyLPT(f, pl); err == nil {
			add(m)
		}
	}
	return maps, costs
}

// --- Fork-join solvers -----------------------------------------------------

// solveForkJoinHeuristic solves the NP-hard fork-join cells beyond the
// exhaustive limits with the best polynomial heuristic candidate.
func solveForkJoinHeuristic(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	maps, costs := forkJoinHeuristicCandidates(pr)
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return forkJoinSolution(maps[idx], costs[idx], MethodHeuristic, false, cl), nil
}

// forkJoinHeuristicCandidates returns the polynomial heuristic mappings
// of an NP-hard fork-join instance (with their costs, aligned by index):
// the candidate pool of both the heuristic fallback path and the anytime
// portfolio's seeds.
func forkJoinHeuristicCandidates(pr Problem) ([]mapping.ForkJoinMapping, []mapping.Cost) {
	fj, pl := *pr.ForkJoin, pr.Platform
	var maps []mapping.ForkJoinMapping
	var costs []mapping.Cost
	add := func(m mapping.ForkJoinMapping) {
		if c, err := mapping.EvalForkJoin(fj, pl, m); err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	add(mapping.ReplicateAllForkJoin(fj, pl))
	add(wholeForkJoinOnProcessor(fj, pl.Fastest()))
	if m, _, err := heuristics.HetForkJoinGreedy(fj, pl, GoalOf(pr).MinimizePeriod); err == nil {
		add(m)
	}
	return maps, costs
}

// prepareForkHard is the registry Prepare capability of the NP-hard fork
// cells: within the exhaustive limits it shares one
// exhaustive.ForkPrepared — enumeration scratch, anytime bounds,
// per-goal memo — across every solve of the family. Outside the limits
// it returns nil, and the one-shot solver takes solveForkHeuristic.
func prepareForkHard(pr Problem, opts Options) *PreparedCell {
	if !forkInLimits(pr, opts) {
		return nil
	}
	fp := exhaustive.NewForkPrepared(*pr.Fork, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(searchParallelism(opts, pr))
	return &PreparedCell{Solve: exhaustiveSolve(fp, forkSolution), SetParallelism: fp.SetParallelism}
}

// prepareForkJoinHard is prepareForkHard for fork-join graphs.
func prepareForkJoinHard(pr Problem, opts Options) *PreparedCell {
	if !forkJoinInLimits(pr, opts) {
		return nil
	}
	fp := exhaustive.NewForkJoinPrepared(*pr.ForkJoin, pr.Platform, pr.AllowDataParallel)
	fp.SetParallelism(searchParallelism(opts, pr))
	return &PreparedCell{Solve: exhaustiveSolve(fp, forkJoinSolution), SetParallelism: fp.SetParallelism}
}
