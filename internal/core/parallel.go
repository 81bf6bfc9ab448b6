package core

import "runtime"

// Auto-mode crossover thresholds: sharding a search has a fixed fan-out
// cost (goroutines, per-worker scratch, shard prefixes), so negative
// Parallelism only parallelizes searches whose serial cost dwarfs that
// overhead. Forks, fork-joins and irreducible SP DAGs qualify once both
// the partition item count and the processor count are non-trivial; the
// heterogeneous comm-pipeline scan once it visits parMinCommPipeLeaves
// complete mappings (see commPipeLeaves), which keeps every instance
// within the default exhaustive limits serial. Pipelines and reducible SP
// chains never parallelize: their DP runs serially. Explicit positive
// Parallelism skips the heuristic. The values are documented in
// docs/performance.md; change both together.
const (
	parMinForkItems      = 5
	parMinForkProcs      = 4
	parMinCommPipeLeaves = 1 << 14
)

// searchParallelism resolves Options.Parallelism into the concrete
// worker count of one exhaustive search on pr: explicit counts above 1
// apply as-is, 0/1 stay serial, and negative values (auto) use up to
// -n workers (-1 = GOMAXPROCS) when the instance clears the crossover.
func searchParallelism(opts Options, pr Problem) int {
	par := opts.Parallelism
	if par >= 0 {
		if par <= 1 {
			return 1
		}
		return par
	}
	want := -par
	if par == -1 {
		want = runtime.GOMAXPROCS(0)
	}
	if want < 2 || !parallelWorthwhile(pr) {
		return 1
	}
	return want
}

// parallelWorthwhile is the auto-mode crossover heuristic on a validated
// problem, delegated to the kind's capability. Kinds without a parallel
// search path (no ParallelWorthwhile capability) always stay serial.
func parallelWorthwhile(pr Problem) bool {
	spec := specOf(pr)
	return spec != nil && spec.ParallelWorthwhile != nil && spec.ParallelWorthwhile(pr)
}
