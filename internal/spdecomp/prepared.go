package spdecomp

import (
	"context"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/partition"
	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// Prepared solves one irreducible SP instance repeatedly under varying
// goals: the topological order, predecessor lists and evaluation scratch
// of evalState, the restricted-growth/assignment buffers of the
// exhaustive enumeration, the certified Bounds and the goal-independent
// heuristic candidate set all persist across solves, and each goal's
// exhaustive result is memoized. Results are bit-identical to the
// one-shot entry points, which wrap a prepared solver used once. Not
// safe for concurrent use.
type Prepared struct {
	g  workflow.SP
	pl platform.Platform

	periodLB  float64
	latencyLB float64

	par int
	// search holds one enumeration scratch per worker; search[0] serves
	// serial solves, the rest are built on their worker's goroutine
	// (so the hot scratch of different workers never shares a cache
	// line) when parallelism first asks for them.
	search []*blockSearch

	heur     []Candidate
	heurDone bool

	memo map[mapping.Goal]spResult
}

// spResult is one exhaustive solve: the best blocks and their cost.
type spResult struct {
	blocks []mapping.SPBlock
	c      mapping.Cost
	ok     bool
}

// NewPrepared builds a prepared solver, validating the graph structure
// once (the same topological-order check the one-shot path performs).
func NewPrepared(g workflow.SP, pl platform.Platform) (*Prepared, error) {
	bs, err := newBlockSearch(g, pl)
	if err != nil {
		return nil, err
	}
	periodLB, latencyLB := Bounds(g, pl)
	return &Prepared{
		g: g, pl: pl,
		periodLB: periodLB, latencyLB: latencyLB,
		search: []*blockSearch{bs},
		memo:   make(map[mapping.Goal]spResult),
	}, nil
}

// SetParallelism sets the worker count of subsequent Exhaustive calls;
// values below two keep the scan serial. The ordered scan folds
// deterministically, so the answer is bit-identical either way.
func (pp *Prepared) SetParallelism(workers int) { pp.par = workers }

// lowerBound returns the certified lower bound on the goal's minimized
// metric: once an incumbent reaches it no candidate can strictly improve
// (beyond the comparison tolerance), and ties resolve to the earlier
// candidate anyway, so enumeration past it cannot change the result.
func (pp *Prepared) lowerBound(goal mapping.Goal) float64 {
	if goal.MinimizePeriod {
		return pp.periodLB
	}
	return pp.latencyLB
}

func cloneSPBlocks(bs []mapping.SPBlock) []mapping.SPBlock {
	if bs == nil {
		return nil
	}
	out := make([]mapping.SPBlock, len(bs))
	for i, b := range bs {
		out[i] = mapping.SPBlock{Proc: b.Proc, Steps: append([]int(nil), b.Steps...)}
	}
	return out
}

// blockSearch is one worker's enumeration scratch: the evaluation state,
// the restricted-growth string, the processor of each block, the
// injective-assignment marks and the context poller.
type blockSearch struct {
	st        *evalState
	assign    []int
	blockProc []int
	usedProc  []bool
	poll      incumbent.Poller
}

func newBlockSearch(g workflow.SP, pl platform.Platform) (*blockSearch, error) {
	st, err := newEvalState(g, pl)
	if err != nil {
		return nil, err
	}
	n := len(g.Steps)
	return &blockSearch{
		st:        st,
		assign:    make([]int, n),
		blockProc: make([]int, n),
		usedProc:  make([]bool, pl.Processors()),
	}, nil
}

// scan searches the block mappings under one shard prefix: every
// partition of the steps into blocks on distinct processors
// (restricted-growth set partitions crossed with injective processor
// assignments), feeding the feasible ones to the shard's install rule.
func (bs *blockSearch) scan(ctx context.Context, pre partition.Prefix, goal mapping.Goal, sh *incumbent.Shard) (spResult, error) {
	st := bs.st
	n := len(bs.assign)
	var best spResult
	bs.poll.Reset(ctx)
	copy(bs.assign, pre.Assign)
	partition.From(bs.assign, n, len(bs.usedProc), len(pre.Assign), pre.Used, func(assign []int, blocks int) bool {
		return partition.Injective(bs.blockProc, bs.usedProc, blocks, func() bool {
			if !bs.poll.Ok() {
				return false
			}
			for s := 0; s < n; s++ {
				st.procOf[s] = bs.blockProc[assign[s]]
			}
			c := st.costOf()
			if !goal.Feasible(c) {
				return true
			}
			install, stop := sh.Offer(goal.Value(c))
			if install {
				best = spResult{blocks: st.blocks(), c: c, ok: true}
			}
			return !stop
		})
	})
	return best, bs.poll.Err()
}

// Exhaustive is the exhaustive block search for the prepared instance:
// scratch persists across calls, each goal's result is memoized, and
// with SetParallelism >= 2 the partition space is sharded across workers
// by the ordered scan of incumbent.Scan.
func (pp *Prepared) Exhaustive(ctx context.Context, goal mapping.Goal) ([]mapping.SPBlock, mapping.Cost, bool, error) {
	r, hit := pp.memo[goal]
	if !hit {
		shards := partition.Plan(len(pp.g.Steps), pp.pl.Processors(), pp.par)
		workers := min(max(pp.par, 1), len(shards))
		for len(pp.search) < workers {
			pp.search = append(pp.search, nil)
		}
		var err error
		r, _, err = incumbent.Scan(ctx, workers, len(shards), pp.lowerBound(goal),
			func(ctx context.Context, w int, sh *incumbent.Shard) (spResult, error) {
				if pp.search[w] == nil {
					bs, err := newBlockSearch(pp.g, pp.pl)
					if err != nil {
						return spResult{}, err
					}
					pp.search[w] = bs
				}
				return pp.search[w].scan(ctx, shards[sh.Index()], goal, sh)
			})
		if err != nil {
			return nil, mapping.Cost{}, false, err
		}
		pp.memo[goal] = r
	}
	return cloneSPBlocks(r.blocks), r.c, r.ok, nil
}

// BestHeuristic returns the goal-best candidate of the deterministic
// heuristic set, computing the (goal-independent) set once per prepared
// instance. The returned blocks are the caller's to keep.
func (pp *Prepared) BestHeuristic(goal mapping.Goal) (Candidate, bool) {
	if !pp.heurDone {
		pp.heur = Heuristics(pp.g, pp.pl)
		pp.heurDone = true
	}
	cand, ok := Best(pp.heur, goal)
	if !ok {
		return Candidate{}, false
	}
	return Candidate{Blocks: cloneSPBlocks(cand.Blocks), Cost: cand.Cost}, true
}

// Exhaustive enumerates every partition of the steps into blocks on
// distinct processors (restricted-growth set partitions crossed with
// injective processor assignments) and returns the best feasible
// mapping. ok is false when the caps admit no mapping. The enumeration
// order is deterministic, so ties resolve identically across runs.
func Exhaustive(ctx context.Context, g workflow.SP, pl platform.Platform, goal mapping.Goal) ([]mapping.SPBlock, mapping.Cost, bool, error) {
	pp, err := NewPrepared(g, pl)
	if err != nil {
		return nil, mapping.Cost{}, false, err
	}
	return pp.Exhaustive(ctx, goal)
}
