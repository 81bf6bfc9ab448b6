package anytime

import (
	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Spec states the optimization target of a portfolio run: the goal in
// cost terms (the kind-independent projection of a core.Problem's
// objective) and whether data-parallel groups are allowed.
type Spec struct {
	mapping.Goal
	// AllowDP permits data-parallel groups.
	AllowDP bool
}

// PeriodLB is the sum-of-work period bound: a set of groups of total
// weight work, mapped onto disjoint processor sets whose speeds sum to
// at most speedSum, has max-group-period >= work/speedSum — a
// replicated group's capacity k·min(s) and a data-parallel group's
// capacity Σs are both at most the group's speed sum, and the group
// speed sums are disjoint slices of speedSum.
func PeriodLB(work, speedSum float64) float64 {
	return work / speedSum
}

// LatencyLB is the serial-chain latency bound: work units that must be
// traversed sequentially take at least work/maxSpeed time units without
// data-parallelism (a replicated group's delay is weight/min(s) >=
// weight/maxSpeed) and at least work/speedSum with it (a data-parallel
// group's delay is weight/Σs >= work-share/speedSum).
func LatencyLB(work, speedSum, maxSpeed float64, allowDP bool) float64 {
	if allowDP {
		return work / speedSum
	}
	return work / maxSpeed
}

// PipelineLB returns a lower bound on the spec's optimized criterion
// over all valid mappings of the pipeline: sum-of-work for the period,
// full-traversal (every stage is on the single data path) for the
// latency. The bound holds for the bounded-objective variants too —
// a feasibility constraint only shrinks the mapping set.
func PipelineLB(p workflow.Pipeline, pl platform.Platform, spec Spec) float64 {
	if spec.MinimizePeriod {
		return PeriodLB(p.TotalWork(), pl.TotalSpeed())
	}
	return LatencyLB(p.TotalWork(), pl.TotalSpeed(), pl.MaxSpeed(), spec.AllowDP)
}

// heaviest returns the largest weight, or 0 for a leafless graph.
func heaviest(weights []float64) float64 {
	if len(weights) == 0 {
		return 0
	}
	return numeric.MaxFloat(weights)
}

// ForkLB returns a lower bound on the spec's optimized criterion over
// all valid mappings of the fork: sum-of-work for the period,
// critical-path (root plus heaviest leaf) for the latency.
func ForkLB(f workflow.Fork, pl platform.Platform, spec Spec) float64 {
	if spec.MinimizePeriod {
		return PeriodLB(f.TotalWork(), pl.TotalSpeed())
	}
	return LatencyLB(f.Root+heaviest(f.Weights), pl.TotalSpeed(), pl.MaxSpeed(), spec.AllowDP)
}

// ForkJoinLB returns a lower bound on the spec's optimized criterion
// over all valid mappings of the fork-join: sum-of-work for the
// period, critical-path (root, heaviest leaf, join) for the latency.
func ForkJoinLB(fj workflow.ForkJoin, pl platform.Platform, spec Spec) float64 {
	if spec.MinimizePeriod {
		return PeriodLB(fj.TotalWork(), pl.TotalSpeed())
	}
	return LatencyLB(fj.Root+heaviest(fj.Weights)+fj.Join, pl.TotalSpeed(), pl.MaxSpeed(), spec.AllowDP)
}
