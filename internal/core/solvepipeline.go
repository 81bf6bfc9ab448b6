package core

import (
	"context"

	"repliflow/internal/exhaustive"
	"repliflow/internal/heuristics"
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/pipealgo"
	"repliflow/internal/workflow"
)

// pipeSolution wraps a pipeline mapping into a Solution.
func pipeSolution(m mapping.PipelineMapping, c mapping.Cost, method Method, exact bool, cl Classification) Solution {
	cp := m
	return Solution{
		PipelineMapping: &cp, Cost: c,
		Method: method, Exact: exact, Feasible: true, Classification: cl,
	}
}

func infeasible(method Method, exact bool, cl Classification) Solution {
	return Solution{Method: method, Exact: exact, Feasible: false, Classification: cl}
}

// registerPipelineSolvers populates the registry with the pipeline column
// of Table 1. Cells whose algorithm ignores an axis (e.g. Theorem 1 works
// for any graph homogeneity) are registered once per concrete key so the
// registry stays total over the cross product.
func init() {
	kind := workflow.KindPipeline
	bools := []bool{false, true}

	registerKind(KindSpec{
		Kind:             kind,
		Name:             kind.String(),
		HasGraph:         func(pr Problem) bool { return pr.Pipeline != nil },
		ValidateGraph:    func(pr Problem) error { return pr.Pipeline.Validate() },
		GraphHomogeneous: func(pr Problem) bool { return pr.Pipeline.IsHomogeneous() },
		DataParallel:     true,
		Classify:         classifyLegacy,
		ExactlySolvable:  pipelineInLimits,
		CandidatePeriods: pipelineCandidatePeriods,
		FrontPeriods: func(ctx context.Context, pr Problem) ([]float64, error) {
			return exhaustive.NewPipelinePrepared(*pr.Pipeline, pr.Platform, pr.AllowDataParallel).FrontPeriods(ctx)
		},
		Anytime: solvePipelineAnytime,
		SeedMix: func(pr Problem, mix func(float64)) {
			for _, w := range pr.Pipeline.Weights {
				mix(w)
			}
		},
		AppendFingerprint: func(pr Problem, b []byte) []byte {
			return fpFloats(append(b, 'P'), pr.Pipeline.Weights)
		},
	})

	// Homogeneous platforms: every cell is polynomial (Theorems 1-4,
	// Corollary 1). Corollary 1: without data-parallelism every mapping
	// has latency W/s, so replicating everything reaches the minimum
	// period; the bound only decides feasibility.
	for _, gh := range bools {
		for _, dp := range bools {
			register(CellKey{kind, true, gh, dp, MinPeriod}, polynomial(MethodClosedForm, "Theorem 1", pipeSolution,
				func(pr Problem) (pipealgo.Result, bool, error) {
					return always(pipealgo.HomPeriod(*pr.Pipeline, pr.Platform))
				}))
		}
		register(CellKey{kind, true, gh, false, MinLatency}, polynomial(MethodClosedForm, "Theorem 2", pipeSolution,
			func(pr Problem) (pipealgo.Result, bool, error) {
				return always(pipealgo.HomLatencyNoDP(*pr.Pipeline, pr.Platform))
			}))
		for _, obj := range []Objective{LatencyUnderPeriod, PeriodUnderLatency} {
			register(CellKey{kind, true, gh, false, obj}, polynomial(MethodClosedForm, "Corollary 1", pipeSolution,
				func(pr Problem) (pipealgo.Result, bool, error) {
					res, err := pipealgo.HomBiCriteriaNoDP(*pr.Pipeline, pr.Platform)
					return res, GoalOf(pr).Feasible(res.Cost), err
				}))
		}
		register(CellKey{kind, true, gh, true, MinLatency}, polynomial(MethodDP, "Theorem 3", pipeSolution,
			func(pr Problem) (pipealgo.Result, bool, error) {
				return always(pipealgo.HomLatencyDP(*pr.Pipeline, pr.Platform))
			}))
		register(CellKey{kind, true, gh, true, LatencyUnderPeriod}, polynomial(MethodDP, "Theorem 4", pipeSolution,
			func(pr Problem) (pipealgo.Result, bool, error) {
				return pipealgo.HomLatencyUnderPeriodDP(*pr.Pipeline, pr.Platform, pr.Bound)
			}))
		register(CellKey{kind, true, gh, true, PeriodUnderLatency}, polynomial(MethodDP, "Theorem 4", pipeSolution,
			func(pr Problem) (pipealgo.Result, bool, error) {
				return pipealgo.HomPeriodUnderLatencyDP(*pr.Pipeline, pr.Platform, pr.Bound)
			}))
	}

	// Heterogeneous platforms without data-parallelism: latency is always
	// polynomial (Theorem 6); period-type objectives are polynomial for
	// homogeneous pipelines (Theorems 7-8) and NP-hard otherwise
	// (Theorem 9).
	for _, gh := range bools {
		register(CellKey{kind, false, gh, false, MinLatency}, polynomial(MethodClosedForm, "Theorem 6", pipeSolution,
			func(pr Problem) (pipealgo.Result, bool, error) {
				return always(pipealgo.HetLatencyNoDP(*pr.Pipeline, pr.Platform))
			}))
	}
	register(CellKey{kind, false, true, false, MinPeriod}, polynomial(MethodBinarySearchDP, "Theorem 7", pipeSolution,
		func(pr Problem) (pipealgo.Result, bool, error) {
			return always(pipealgo.HetHomPipelinePeriodNoDP(*pr.Pipeline, pr.Platform))
		}))
	register(CellKey{kind, false, true, false, LatencyUnderPeriod}, polynomial(MethodBinarySearchDP, "Theorem 8", pipeSolution,
		func(pr Problem) (pipealgo.Result, bool, error) {
			return pipealgo.HetHomPipelineLatencyUnderPeriodNoDP(*pr.Pipeline, pr.Platform, pr.Bound)
		}))
	register(CellKey{kind, false, true, false, PeriodUnderLatency}, polynomial(MethodBinarySearchDP, "Theorem 8", pipeSolution,
		func(pr Problem) (pipealgo.Result, bool, error) {
			return pipealgo.HetHomPipelinePeriodUnderLatencyNoDP(*pr.Pipeline, pr.Platform, pr.Bound)
		}))
	hard := preparedOnce(preparePipelineHard, solvePipelineHeuristic)
	for _, obj := range []Objective{MinPeriod, LatencyUnderPeriod, PeriodUnderLatency} {
		register(CellKey{kind, false, false, false, obj},
			SolverEntry{MethodExhaustive, true, "Theorem 9", hard, preparePipelineHard})
	}

	// Data-parallelism on heterogeneous platforms is NP-hard across the
	// board (Theorem 5 covers homogeneous pipelines; heterogeneous ones
	// inherit the hardness).
	for _, gh := range bools {
		for _, obj := range []Objective{MinPeriod, MinLatency, LatencyUnderPeriod, PeriodUnderLatency} {
			register(CellKey{kind, false, gh, true, obj},
				SolverEntry{MethodExhaustive, true, "Theorem 5", hard, preparePipelineHard})
		}
	}
}

// --- NP-hard cells ---------------------------------------------------------

// pipelineInLimits reports whether a pipeline instance is within the
// exhaustive limits of the bitmask DP, whose cost grows as 3^p.
func pipelineInLimits(pr Problem, opts Options) bool {
	return pr.Platform.Processors() <= opts.MaxExhaustivePipelineProcs
}

// solvePipelineHeuristic solves the NP-hard pipeline cells beyond the
// exhaustive limits: the best polynomial heuristic candidate that meets
// the bound (if any).
func solvePipelineHeuristic(_ context.Context, pr Problem, _ Options) (Solution, error) {
	cl := classificationOf(pr)
	maps, costs := pipelineHeuristicCandidates(pr)
	idx, ok := pickBestIndex(costs, pr)
	if !ok {
		return infeasible(MethodHeuristic, false, cl), nil
	}
	return pipeSolution(maps[idx], costs[idx], MethodHeuristic, false, cl), nil
}

// preparePipelineHard is the registry Prepare capability of the NP-hard
// pipeline cells: within the exhaustive limits it shares one
// exhaustive.PipelinePrepared — platform tables, epoch-reset DP arrays,
// candidate periods, per-bound memo — across every solve of the family.
// The DP always runs serially, so the cell has no SetParallelism. Outside
// the limits it returns nil, and the one-shot solver takes
// solvePipelineHeuristic.
func preparePipelineHard(pr Problem, opts Options) *PreparedCell {
	if !pipelineInLimits(pr, opts) {
		return nil
	}
	pp := exhaustive.NewPipelinePrepared(*pr.Pipeline, pr.Platform, pr.AllowDataParallel)
	return &PreparedCell{Solve: exhaustiveSolve(pp, pipeSolution)}
}

// goalSolver is a prepared exhaustive solver of one legacy kind.
type goalSolver[M any] interface {
	Solve(ctx context.Context, goal mapping.Goal) (exhaustive.Result[M], bool, error)
}

// exhaustiveSolve is the prepared solve of a legacy NP-hard cell within
// the exhaustive limits: s answers GoalOf(pr), and wrap builds the
// kind's exact Solution.
func exhaustiveSolve[M any](s goalSolver[M], wrap solutionWrap[M]) PreparedSolve {
	return func(ctx context.Context, pr Problem) (Solution, error) {
		res, ok, err := s.Solve(ctx, GoalOf(pr))
		return answer(pr, MethodExhaustive, wrap, res, ok, err)
	}
}

// pipelineHeuristicCandidates returns the polynomial heuristic mappings
// of an NP-hard pipeline instance (with their costs, aligned by index).
// It is the candidate pool of both the oversized-instance heuristic path
// and the anytime portfolio's seeds.
func pipelineHeuristicCandidates(pr Problem) ([]mapping.PipelineMapping, []mapping.Cost) {
	p, pl := *pr.Pipeline, pr.Platform
	var maps []mapping.PipelineMapping
	var costs []mapping.Cost
	add := func(m mapping.PipelineMapping, c mapping.Cost, err error) {
		if err == nil {
			maps = append(maps, m)
			costs = append(costs, c)
		}
	}
	if pr.AllowDataParallel {
		m, c, err := heuristics.HetPipelineWithDP(p, pl, GoalOf(pr).MinimizePeriod)
		add(m, c, err)
		m, c, err = heuristics.HetPipelineWithDP(p, pl, false)
		add(m, c, err)
	}
	m, c, err := heuristics.HetPipelinePeriodNoDP(p, pl)
	add(m, c, err)
	{
		res, err := pipealgo.HetLatencyNoDP(p, pl)
		add(res.Mapping, res.Cost, err)
	}
	return maps, costs
}

// pickBestIndex selects the candidate cost minimizing the requested
// objective among those meeting the bound.
func pickBestIndex(costs []mapping.Cost, pr Problem) (int, bool) {
	best := -1
	goal := GoalOf(pr)
	for i, c := range costs {
		if !goal.Feasible(c) {
			continue
		}
		if best < 0 || numeric.Less(goal.Value(c), goal.Value(costs[best])) {
			best = i
		}
	}
	return best, best >= 0
}
