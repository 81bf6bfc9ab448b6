package exhaustive

import (
	"context"

	"repliflow/internal/incumbent"
	"repliflow/internal/mapping"
	"repliflow/internal/partition"
)

// Result is an optimal mapping together with its exact cost.
type Result[M any] struct {
	Mapping M
	Cost    mapping.Cost
}

// ForkResult is an optimal fork mapping together with its exact cost.
type ForkResult = Result[mapping.ForkMapping]

// ForkJoinResult is an optimal fork-join mapping with its exact cost.
type ForkJoinResult = Result[mapping.ForkJoinMapping]

// blockEnum is the resettable enumerator of one graph kind's block
// mappings (forkEnum, fjEnum): every set partition of the stages, every
// assignment of disjoint processor subsets to the blocks, and every
// legal mode combination.
type blockEnum[M any] interface {
	// runFrom visits the mappings under a restricted-growth prefix
	// naming used blocks (nil enumerates everything), stopping once
	// visit returns false, and returns the latched context error. The
	// visited mapping aliases the enumerator's scratch.
	runFrom(ctx context.Context, prefix []int, used int, visit func(M, mapping.Cost) bool) error
	// retain deep-copies a visited mapping so it outlives the scan.
	retain(M) M
	// fresh returns a new enumerator of the same instance, with its own
	// scratch.
	fresh() blockEnum[M]
	// clone copies a memoized mapping's block slice, so every solve
	// hands out a fresh mapping exactly like a fresh solver.
	clone(M) M
}

// blockWorker is one worker's scan state: its enumerator, and a visitor
// built once per worker, so scanning a shard allocates nothing but the
// mappings it installs.
type blockWorker[M any] struct {
	e     blockEnum[M]
	goal  mapping.Goal
	sh    *incumbent.Shard
	best  Result[M]
	visit func(M, mapping.Cost) bool
}

func newBlockWorker[M any](e blockEnum[M]) *blockWorker[M] {
	w := &blockWorker[M]{e: e}
	w.visit = func(m M, c mapping.Cost) bool {
		if !w.goal.Feasible(c) {
			return true
		}
		install, stop := w.sh.Offer(w.goal.Value(c))
		if install {
			w.best = Result[M]{Mapping: w.e.retain(m), Cost: c}
		}
		return !stop
	}
	return w
}

// scanBlocks runs the ordered scan of incumbent.Scan over the block
// mappings and keeps the goal's best one. lb is the anytime lower bound
// on the goal's objective: once an incumbent reaches it the scan stops —
// later mappings can at most tie, and ties never replace the incumbent,
// so the result is byte-identical to the full scan. Pass lb <= 0 to
// disable the stop. workers holds one worker per scan worker, and the
// partition space is sharded across len(workers) of them; a nil entry
// is filled from workers[0] on the worker's own goroutine, so the hot
// scratch of different workers never shares a cache line.
func scanBlocks[M any](ctx context.Context, workers []*blockWorker[M], items, procs int,
	goal mapping.Goal, lb float64) (Result[M], bool, error) {
	shards := partition.Plan(items, procs, len(workers))
	return incumbent.Scan(ctx, len(workers), len(shards), lb,
		func(ctx context.Context, w int, sh *incumbent.Shard) (Result[M], error) {
			if workers[w] == nil {
				workers[w] = newBlockWorker(workers[0].e.fresh())
			}
			wk := workers[w]
			wk.goal, wk.sh, wk.best = goal, sh, Result[M]{}
			pre := shards[sh.Index()]
			err := wk.e.runFrom(ctx, pre.Assign, pre.Used, wk.visit)
			return wk.best, err
		})
}

// blockMemo is one memoized scan result of a prepared block solver.
type blockMemo[M any] struct {
	res Result[M]
	ok  bool
}

// blockPrepared is the prepared-solver shell of ForkPrepared and
// ForkJoinPrepared: per-worker enumeration scratch shared across solves,
// the anytime lower bound of each objective computed once, and goal-keyed
// memos. Not safe for concurrent use.
type blockPrepared[M any] struct {
	items, procs int
	// workers holds one scan worker per worker; workers[0] serves
	// serial solves, the rest are built when parallelism first asks.
	workers []*blockWorker[M]
	par     int
	// lbLatency and lbPeriod are the anytime lower bounds of the two
	// objectives.
	lbLatency, lbPeriod float64
	memo                map[mapping.Goal]blockMemo[M]
}

func newBlockPrepared[M any](items, procs int, e blockEnum[M], lb func(minimizePeriod bool) float64) blockPrepared[M] {
	return blockPrepared[M]{
		items: items, procs: procs,
		workers:   []*blockWorker[M]{newBlockWorker(e)},
		lbLatency: lb(false), lbPeriod: lb(true),
		memo: make(map[mapping.Goal]blockMemo[M]),
	}
}

// SetParallelism sets the worker count of subsequent solves: counts
// above 1 shard the partition space across workers (see scanBlocks),
// anything else scans serially. Results are byte-identical either way,
// so the memos may mix entries computed at different counts; the
// prepared solver itself stays single-owner.
func (bp *blockPrepared[M]) SetParallelism(workers int) {
	bp.par = workers
}

// Solve answers one goal, from the memo when it was solved before. A
// zero cap leaves its metric unbounded, as in mapping.Goal; a negative
// or NaN cap admits no mapping.
func (bp *blockPrepared[M]) Solve(ctx context.Context, goal mapping.Goal) (Result[M], bool, error) {
	if !capsAdmit(goal) {
		return Result[M]{}, false, nil
	}
	m, hit := bp.memo[goal]
	if !hit {
		lb := bp.lbLatency
		if goal.MinimizePeriod {
			lb = bp.lbPeriod
		}
		for len(bp.workers) < bp.par {
			bp.workers = append(bp.workers, nil)
		}
		res, found, err := scanBlocks(ctx, bp.workers[:max(bp.par, 1)], bp.items, bp.procs, goal, lb)
		if err != nil {
			return Result[M]{}, false, err
		}
		m = blockMemo[M]{res: res, ok: found}
		bp.memo[goal] = m
	}
	res := m.res
	res.Mapping = bp.workers[0].e.clone(res.Mapping)
	return res, m.ok, nil
}

// capsAdmit reports whether a goal's caps can admit any mapping: a zero
// cap is no cap, a negative or NaN one admits nothing.
func capsAdmit(goal mapping.Goal) bool {
	return goal.PeriodCap >= 0 && goal.LatencyCap >= 0
}

// once drops the error of a background-context solve, which can never
// be cancelled: the shape of the package's one-shot entry points.
func once[R any](res R, ok bool, _ error) (R, bool) {
	return res, ok
}
