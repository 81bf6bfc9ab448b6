package incumbent

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repliflow/internal/numeric"
)

// Ordered sharded scan. Every exhaustive partition search splits its
// enumeration into shards whose concatenation, in shard index order, is
// exactly the serial visit order (internal/partition.Shards builds such
// shards from restricted-growth prefixes). Workers claim shard indices
// from a shared counter (work stealing: a worker that drains a cheap
// subtree immediately claims the next), keep a shard-local incumbent
// with the serial install rule, and share two atomics:
//
//   - a Bound on the objective — a candidate strictly worse (beyond the
//     numeric tolerance) than the best seen by ANY shard can never win
//     the final fold, so shards skip it; equal-or-better candidates
//     always survive, keeping ties alive for the fold; and
//   - the lowest shard index that reached the certified lower bound —
//     the serial scan stops at its first lb-reaching incumbent, so every
//     shard after that index is irrelevant and stops.
//
// The fold walks the per-shard bests in shard index order with the
// serial rule (strict improvement replaces, ties keep the earlier shard)
// and the serial lower-bound stop, so the result is byte-identical to
// the serial scan for every worker count and timing. The serial scan is
// the one-worker case: it runs inline on the caller's goroutine.

// Shard is one shard's view of an ordered scan: its position in the
// serial visit order, its local best under the serial install rule, and
// the state shared with the other shards.
type Shard struct {
	run   *scanRun
	index int
	obj   float64
	found bool
}

// scanRun is the state the shards of one scan share.
type scanRun struct {
	next    atomic.Int64 // shard claim counter
	bound   Bound
	lbShard atomic.Int64 // lowest shard index that reached lb
	lb      float64
}

// Index returns the shard's position in the serial visit order.
func (s *Shard) Index() int { return s.index }

// Bound returns the shared objective bound. A lower bound on a subtree
// that surely exceeds it (beyond the comparison tolerance) proves the
// subtree holds no candidate that can win the fold.
func (s *Shard) Bound() float64 { return s.run.bound.Load() }

// Stopped reports whether an earlier shard reached the lower bound, so
// nothing this shard finds can change the fold.
func (s *Shard) Stopped() bool { return int64(s.index) > s.run.lbShard.Load() }

// Offer applies the serial install rule to a feasible candidate of
// objective value obj. install reports a strict improvement of the
// shard's best — the caller then records the candidate's mapping — and
// stop that the shard is done: an earlier shard decided the fold, or the
// new best reached the lower bound (later candidates can at most tie,
// and ties never replace the incumbent).
func (s *Shard) Offer(obj float64) (install, stop bool) {
	if s.found && obj >= s.obj {
		return false, s.Stopped() // the common case: no improvement
	}
	return s.offer(obj)
}

func (s *Shard) offer(obj float64) (install, stop bool) {
	r := s.run
	if s.Stopped() {
		return false, true
	}
	if s.found && !numeric.Less(obj, s.obj) {
		return false, false
	}
	if numeric.Greater(obj, r.bound.Load()) {
		return false, false // strictly worse than some shard's best: cannot win
	}
	s.obj, s.found = obj, true
	r.bound.Tighten(obj)
	if r.lb > 0 && numeric.LessEq(obj, r.lb) {
		for {
			old := r.lbShard.Load()
			if old <= int64(s.index) || r.lbShard.CompareAndSwap(old, int64(s.index)) {
				break
			}
		}
		return true, true
	}
	return true, false
}

// fold accumulates per-shard bests in shard index order with the serial
// install rule and lower-bound stop.
type fold[R any] struct {
	best  R
	obj   float64
	found bool
	lb    float64
}

// add folds one shard's result, reporting whether the fold is decided.
func (f *fold[R]) add(res R, sh *Shard) bool {
	if !sh.found || (f.found && !numeric.Less(sh.obj, f.obj)) {
		return false
	}
	f.best, f.obj, f.found = res, sh.obj, true
	return f.lb > 0 && numeric.LessEq(f.obj, f.lb)
}

// Scan runs an ordered scan of nshards shards on up to workers workers
// and returns the fold's winner. scan searches one shard: it feeds every
// feasible candidate to sh.Offer and returns the mapping of the last
// installed one. worker identifies the calling worker (0..workers-1) so
// scans can keep per-worker scratch; worker 0 always runs on the
// caller's goroutine. lb is the certified lower bound on the objective
// (<= 0 disables the early stop). A scan error (cancellation) is
// returned, the first in worker order winning.
func Scan[R any](ctx context.Context, workers, nshards int, lb float64,
	scan func(ctx context.Context, worker int, sh *Shard) (R, error)) (R, bool, error) {
	// One allocation serves the shared state and the serial scan's shard.
	state := &struct {
		run    scanRun
		serial Shard
	}{run: scanRun{lb: lb}}
	r := &state.run
	r.bound.bits.Store(math.Float64bits(math.Inf(1)))
	r.lbShard.Store(math.MaxInt64)
	f := fold[R]{lb: lb}
	var zero R

	if workers = min(workers, nshards); workers <= 1 {
		sh := &state.serial
		for i := 0; i < nshards; i++ {
			*sh = Shard{run: r, index: i}
			res, err := scan(ctx, 0, sh)
			if err != nil {
				return zero, false, err
			}
			if f.add(res, sh) {
				break
			}
		}
		return f.best, f.found, nil
	}

	results := make([]R, nshards)
	shards := make([]Shard, nshards)
	errs := make([]error, workers)
	work := func(w int) {
		for {
			i := int(r.next.Add(1)) - 1
			if i >= nshards {
				return
			}
			sh := &shards[i]
			sh.run, sh.index = r, i
			if sh.Stopped() {
				continue // the fold is decided before this shard
			}
			res, err := scan(ctx, w, sh)
			if err != nil {
				errs[w] = err
				return
			}
			results[i] = res
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return zero, false, err
		}
	}
	for i := range shards {
		if f.add(results[i], &shards[i]) {
			break
		}
	}
	return f.best, f.found, nil
}
