// Package exhaustive provides exact optimal mappers by exponential-time
// search. They serve two purposes in the reproduction of Benoit & Robert
// (RR-6308):
//
//   - ground truth for every polynomial algorithm of the paper (the
//     algorithm's optimum must coincide with the exhaustive optimum on
//     randomized instances), and
//   - exact baselines for the NP-hard problem instances, against which the
//     polynomial heuristics are measured.
//
// Pipelines are solved by a dynamic program over (next stage, set of used
// processors) — exact because interval costs are independent given the
// processor subset. Forks and fork-joins enumerate the set partitions of
// the stages (restricted growth strings) and assign processor subsets per
// block by a similar bitmask dynamic program.
//
// All solvers are exponential in the number of processors (and, for forks,
// in the number of stages); they are intended for the small instances used
// in tests and benchmarks, up to roughly p = 12 for pipelines and
// n, p = 6 for forks.
//
// # Prepared solvers
//
// Pareto sweeps and bi-criteria binary searches solve the same
// (workflow, platform) pair hundreds of times, varying only the bound.
// The prepared solvers — PipelinePrepared, ForkPrepared, ForkJoinPrepared
// — share everything that does not depend on the bound across those
// solves: the per-platform subset tables (cached process-wide, see
// tableFor), the DP/enumeration scratch memory (reset by epoch counters,
// never reallocated), the candidate-period sets, and a per-bound result
// memo. Each answers any mapping.Goal through one Solve method, and its
// results are byte-identical to the one-shot entry points, which are
// themselves thin wrappers over a prepared solver used once.
package exhaustive

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repliflow/internal/platform"
)

// maskInfo caches per-subset aggregates of a platform. The inverse fields
// turn the divisions of the DP inner loops into multiplications, and procs
// is the expanded (sorted) processor list of the mask, so the hot paths
// neither divide nor allocate. max feeds the anytime lower bounds used for
// branch pruning. procs is internal scratch shared by every solver on the
// table: search loops alias it freely, but any mapping that escapes the
// package copies it (reconstruct, the enumerators' retain) — the table must never
// leak into caller-visible results.
type maskInfo struct {
	count int
	min   float64
	max   float64
	sum   float64
	// invMin is 1/min: delay of a replicated group of weight w is w*invMin.
	invMin float64
	// invSum is 1/sum: cost of a data-parallel group of weight w is w*invSum.
	invSum float64
	// perInv is 1/(count*min): period of a replicated group of weight w is
	// w*perInv.
	perInv float64
	// procs is the sorted processor index list of the mask.
	procs []int
}

// buildMaskInfo precomputes aggregates for every non-empty processor subset.
func buildMaskInfo(pl platform.Platform) []maskInfo {
	p := pl.Processors()
	info := make([]maskInfo, 1<<p)
	// One backing array for every procs slice: mask m holds OnesCount(m)
	// indices, so the total length is p * 2^(p-1).
	backing := make([]int, p<<max(p-1, 0))
	for mask := 1; mask < 1<<p; mask++ {
		// Split off the highest set bit, so sum accumulates in ascending
		// processor order — bit-identical to platform.SubsetSpeedSum over
		// the sorted procs list, which the inline enumeration costs rely
		// on to reproduce mapping.Eval* exactly.
		high := bits.Len(uint(mask)) - 1
		rest := mask &^ (1 << high)
		s := pl.Speeds[high]
		in := maskInfo{count: 1, min: s, max: s, sum: s}
		if rest != 0 {
			prev := &info[rest]
			in = maskInfo{
				count: prev.count + 1,
				min:   math.Min(prev.min, s),
				max:   math.Max(prev.max, s),
				sum:   prev.sum + s,
			}
		}
		in.invMin = 1 / in.min
		in.invSum = 1 / in.sum
		in.perInv = 1 / (float64(in.count) * in.min)
		procs := backing[:0:in.count]
		backing = backing[in.count:]
		for m := mask; m != 0; m &= m - 1 {
			procs = append(procs, bits.TrailingZeros(uint(m)))
		}
		in.procs = procs
		info[mask] = in
	}
	return info
}

// maxTableCacheWords bounds the process-wide platform table cache by its
// approximate footprint in 8-byte words (~32MB), not by table count: a
// table is O(2^p) entries plus a p*2^(p-1)-int procs backing array, so a
// count bound alone would let a few large-p platforms pin hundreds of MB
// past every other memory bound (engine.SetCacheLimit evicts solutions,
// never these). When an insert would exceed the budget the whole cache is
// dropped (tables are cheap to rebuild, and real deployments see few
// distinct platforms); a single table heavier than the budget is built
// per solver and never cached — the transient cost every solve paid
// before the cache existed.
const maxTableCacheWords = 4 << 20

var (
	platTables     sync.Map // string (raw speed bits) -> []maskInfo
	platTableWords atomic.Int64
)

// tableWeight approximates a platform table's footprint in words: 2^p
// maskInfo entries (8 fields each) plus the p*2^(p-1) procs backing.
func tableWeight(p int) int64 {
	if p <= 0 {
		return 1
	}
	return int64(8)<<p + int64(p)<<(p-1)
}

// platKey is the cache identity of a platform: the raw bits of its speed
// vector, so platforms differing by one ULP get distinct tables.
func platKey(pl platform.Platform) string {
	b := make([]byte, 8*len(pl.Speeds))
	for i, s := range pl.Speeds {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(s))
	}
	return string(b)
}

// tableFor returns the shared subset table of a platform, building and
// caching it on first use. Every solver for the same speed vector — across
// solves, goroutines and graph kinds — shares one table, so a Pareto sweep
// pays the 2^p preprocessing once instead of once per candidate bound.
func tableFor(pl platform.Platform) []maskInfo {
	key := platKey(pl)
	if t, ok := platTables.Load(key); ok {
		return t.([]maskInfo)
	}
	info := buildMaskInfo(pl)
	weight := tableWeight(pl.Processors())
	if weight > maxTableCacheWords {
		return info // oversized: per-solver transient, never cached
	}
	if _, loaded := platTables.LoadOrStore(key, info); !loaded {
		if platTableWords.Add(weight) > maxTableCacheWords {
			// Overflow: drop everything and restart the count. Racy counts
			// only make the flush early or late by a table, which is
			// harmless — correctness never depends on the cache.
			platTables.Range(func(k, _ any) bool {
				platTables.Delete(k)
				return true
			})
			platTableWords.Store(0)
		}
	}
	return info
}

// groupCosts returns (period, delay) of a stage group of weight w on the
// subset described by info, for the given mode.
func groupCosts(w float64, info maskInfo, dataParallel bool) (period, delay float64) {
	if dataParallel {
		c := w / info.sum
		return c, c
	}
	return w / (float64(info.count) * info.min), w / info.min
}
