package exhaustive

import (
	"context"
	"math"
	"slices"

	"repliflow/internal/anytime"
	"repliflow/internal/numeric"
)

// label is one (period, latency) pair of a suffix mapping in the
// bi-criteria label pass.
type label struct {
	period, latency float64
}

// frontPass is the scratch of the bi-criteria label pass over the
// pipeline DP's states. Under the Section 3.4 model a mapping's period is
// the max over its intervals and its latency the sum of their delays, so
// a state's non-dominated suffix labels combine with an interval exactly
// like the scalar DP's values do, and the labels of state (0, 0) are the
// exact Pareto front.
type frontPass struct {
	// labels[id] is the label front of state id, valid where the solver's
	// visited[id] equals its epoch.
	labels [][]label
	// arena backs every labels[id]; a state's front is appended once and
	// never written again, so slices into an outgrown backing array stay
	// valid.
	arena []label
	// stack holds the label fronts of the states being expanded, each
	// state's run above its caller's.
	stack []label
	// pCut and lCut bound the labels worth keeping (see FrontPeriods).
	pCut, lCut float64
}

// terminal is the label of the empty suffix.
var terminal = []label{{}}

// FrontPeriods returns the periods of the exact (period, latency) Pareto
// front, ascending, from one label pass over the DP states. Each state
// keeps its suffix's non-dominated labels sorted by period ascending and
// latency descending, and the pass prunes against a box taken from three
// scalar solves on the same solver:
//
//   - pMax is the period of the min-latency mapping, LUP(+Inf): a label
//     of larger period is dominated by that mapping.
//   - lMax is the latency of LUP at the minimum period, the front's
//     smallest-period point: a label whose latency, plus the least
//     latency the stages before its state can have on the processors
//     already used (anytime.LatencyLB), exceeds lMax extends to no front
//     point.
//
// Both bounds are widened by numeric.Eps, a relative margin, so a
// mapping whose label and evaluated cost differ in the last bits is
// never pruned: the result may hold a few periods beyond the front, never
// fewer. The result is memoized on the prepared solver.
func (pp *PipelinePrepared) FrontPeriods(ctx context.Context) ([]float64, error) {
	front, err := pp.labelPass(ctx)
	if err != nil {
		return nil, err
	}
	periods := make([]float64, len(front))
	for i, l := range front {
		periods[i] = l.period
	}
	return periods, nil
}

// labelPass runs (once) the label pass of FrontPeriods and returns the
// labels of state (0, 0).
func (pp *PipelinePrepared) labelPass(ctx context.Context) ([]label, error) {
	if pp.hasFront {
		return pp.front, nil
	}
	unbounded, ok, err := pp.latencyUnderPeriod(ctx, numeric.Inf)
	if err != nil || !ok {
		return nil, err
	}
	fastest, ok, err := pp.minPeriod(ctx)
	if err != nil || !ok {
		return nil, err
	}
	first, ok, err := pp.latencyUnderPeriod(ctx, fastest.Cost.Period)
	if err != nil || !ok {
		return nil, err
	}
	s := pp.s
	s.reset(ctx, numeric.Inf, false)
	f := &s.front
	if f.labels == nil {
		f.labels = make([][]label, len(s.memo))
	}
	f.arena, f.stack = f.arena[:0], f.stack[:0]
	f.pCut, f.lCut = margin(unbounded.Cost.Period), margin(first.Cost.Latency)
	root := s.frontLabels(0, 0)
	if err := s.poll.Err(); err != nil {
		return nil, err
	}
	pp.front, pp.hasFront = root, true
	return pp.front, nil
}

// frontLabels returns the label front of mapping stages i..n-1 onto the
// processors outside usedMask, pruned to the box, sorted by period
// ascending and latency descending. The loops mirror solve's: subsets
// outer, interval ends inner, and an interval end whose group period or
// delay leaves the box ends the inner loop, because both grow with the
// interval.
func (s *pipeSolver) frontLabels(i, usedMask int) []label {
	if i == s.n {
		return terminal
	}
	id := i<<s.pbits | usedMask
	f := &s.front
	if s.visited[id] == s.epoch {
		return f.labels[id]
	}
	s.visited[id] = s.epoch
	// The stages before i ran on usedMask, which bounds their latency
	// from below: a suffix label above latCap extends to no front point.
	latCap := f.lCut
	if usedMask != 0 {
		ui := &s.info[usedMask]
		latCap -= anytime.LatencyLB(s.suffix[0]-s.suffix[i], ui.sum, ui.max, s.allowDP)
	}
	base := len(f.stack)
	free := s.full &^ usedMask
	// Every suffix mapping on the free processors has at least the
	// anytime bounds' latency and period; a state whose bounds leave the
	// box has no labels to offer.
	fi := &s.info[free]
	if free == 0 || anytime.LatencyLB(s.suffix[i], fi.sum, fi.max, s.allowDP) > latCap ||
		anytime.PeriodLB(s.suffix[i], fi.sum) > f.pCut {
		f.labels[id] = nil
		return nil
	}
	wi := s.p.Weights[i]
	for sub := free; sub > 0; sub = (sub - 1) & free {
		if !s.poll.Ok() {
			return nil // cancelled: FrontPeriods surfaces the error
		}
		info := &s.info[sub]
		w := 0.0
		for j := i; j < s.n; j++ {
			w += s.p.Weights[j]
			period, delay := w*info.perInv, w*info.invMin
			if period > f.pCut || delay > latCap {
				break
			}
			s.combine(base, period, delay, latCap, s.frontLabels(j+1, usedMask|sub))
		}
		if s.allowDP {
			c := wi * info.invSum
			if c <= f.pCut && c <= latCap {
				s.combine(base, c, c, latCap, s.frontLabels(i+1, usedMask|sub))
			}
		}
	}
	start := len(f.arena)
	f.arena = append(f.arena, f.stack[base:]...)
	f.stack = f.stack[:base]
	f.labels[id] = f.arena[start:len(f.arena):len(f.arena)]
	return f.labels[id]
}

// combine adds to the state's front stack[base:] the labels of one
// interval of the given period and delay followed by the suffix labels
// rest. Suffix labels of period up to the interval's collapse into the
// one of least latency, the last of them; each later one keeps its own
// period. Labels whose latency leaves the box (above latCap) are dropped
// as they are generated.
func (s *pipeSolver) combine(base int, period, delay, latCap float64, rest []label) {
	f := &s.front
	k := 0
	for k < len(rest) && rest[k].period <= period {
		k++
	}
	if k > 0 {
		if l := delay + rest[k-1].latency; l <= latCap {
			f.add(base, label{period, l})
		}
	}
	for _, r := range rest[k:] {
		if l := delay + r.latency; l <= latCap {
			f.add(base, label{r.period, l})
		}
	}
}

// add inserts l into the state's front stack[base:], sorted by period
// ascending and latency descending, unless a label of no larger period
// and no larger latency is already there; the labels l dominates leave.
// Of two equal labels the first one added stays.
func (f *frontPass) add(base int, l label) {
	front := f.stack[base:]
	// k is the number of labels of period <= l.period.
	lo, hi := 0, len(front)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if front[m].period <= l.period {
			lo = m + 1
		} else {
			hi = m
		}
	}
	k := lo
	if k > 0 && front[k-1].latency <= l.latency {
		return
	}
	// l dominates a label of its own period, then every later label down
	// to its latency.
	if k > 0 && front[k-1].period == l.period {
		k--
	}
	end := k
	for end < len(front) && front[end].latency >= l.latency {
		end++
	}
	if end > k {
		front[k] = l
		n := copy(front[k+1:], front[end:])
		f.stack = f.stack[:base+k+1+n]
		return
	}
	f.stack = slices.Insert(f.stack, base+k, l)
}

// margin returns the largest value the box admits for a bound: the bound
// plus numeric.Eq's relative tolerance, so a label equal to the bound up
// to rounding is kept.
func margin(bound float64) float64 {
	return bound + numeric.Eps*math.Max(1, math.Abs(bound))
}
