package fullmodel

import (
	"math"

	"repliflow/internal/mapping"
	"repliflow/internal/numeric"
)

// The optimizers below cover the two regimes the paper's related work
// identifies as tractable or small:
//
//   - fully homogeneous platforms: Subhlok-Vondran style dynamic programs
//     (processor identities are irrelevant, only the partition matters);
//   - heterogeneous platforms: exact search by a dynamic program over
//     (next stage, used-processor mask, processor of the previous
//     interval), exponential in p but exact — the natural baseline given
//     that the simplified special case is already NP-hard (Theorem 9).

// homIntervalCost is the Equation (1) bracket on a fully homogeneous
// platform: only the interval matters.
func homIntervalCost(p Pipeline, s, b float64, first, last int) float64 {
	return p.Data[first]/b + p.IntervalWork(first, last)/s + p.Data[last+1]/b
}

// HomLatencyUnderPeriod minimizes Equation (2) subject to every interval's
// Equation (1) bracket being at most maxPeriod, on a fully homogeneous
// platform. It returns the optimal mapping (processors 0..m-1 in interval
// order) or ok=false when the bound is infeasible. Complexity O(n²·p).
func HomLatencyUnderPeriod(p Pipeline, pl Platform, maxPeriod float64) (Mapping, mapping.Cost, bool, error) {
	if err := p.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, false, err
	}
	if err := pl.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, false, err
	}
	if !pl.IsFullyHomogeneous() {
		return Mapping{}, mapping.Cost{}, false, errPlatformNotHomogeneous
	}
	s, b := pl.Speeds[0], pl.InBand[0]
	n, maxQ := p.Stages(), pl.Processors()
	L, cut := newHomDP(n, maxQ)
	m, ok := homLUPInto(p, s, b, n, maxQ, L, cut, maxPeriod)
	if !ok {
		return Mapping{}, mapping.Cost{}, false, nil
	}
	c, err := Eval(p, pl, m)
	if err != nil {
		panic("fullmodel: DP produced invalid mapping: " + err.Error())
	}
	return m, c, true, nil
}

// newHomDP allocates the (n+1)x(maxQ+1) latency and cut tables of the
// homogeneous interval DP. The prepared solver allocates them once and
// reuses them across bounds; the one-shot path allocates fresh ones.
func newHomDP(n, maxQ int) ([][]float64, [][]int) {
	L := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for i := range L {
		L[i] = make([]float64, maxQ+1)
		cut[i] = make([]int, maxQ+1)
	}
	return L, cut
}

// homLUPInto runs the latency-under-period DP in the given tables
// (resetting them first) and reconstructs the optimal mapping. Both the
// one-shot entry point and the prepared solver run this exact function,
// so reused tables cannot change a bit of the result.
// L[i][q]: min latency for stages i.. with q processors left.
func homLUPInto(p Pipeline, s, b float64, n, maxQ int, L [][]float64, cut [][]int, maxPeriod float64) (Mapping, bool) {
	const unset = -1.0
	for i := range L {
		for q := range L[i] {
			L[i][q] = unset
		}
	}
	var solve func(i, q int) float64
	solve = func(i, q int) float64 {
		if i == n {
			return 0
		}
		if q == 0 {
			return numeric.Inf
		}
		if L[i][q] != unset {
			return L[i][q]
		}
		best := numeric.Inf
		bestJ := -1
		for j := i; j < n; j++ {
			c := homIntervalCost(p, s, b, i, j)
			if numeric.Greater(c, maxPeriod) {
				continue
			}
			rest := solve(j+1, q-1)
			if v := c + rest; numeric.Less(v, best) {
				best = v
				bestJ = j
			}
		}
		L[i][q] = best
		cut[i][q] = bestJ
		return best
	}
	if math.IsInf(solve(0, maxQ), 1) {
		return Mapping{}, false
	}
	var m Mapping
	i, q := 0, maxQ
	for i < n {
		j := cut[i][q]
		m.Bounds = append(m.Bounds, j+1)
		m.Alloc = append(m.Alloc, len(m.Alloc))
		i, q = j+1, q-1
	}
	return m, true
}

// homPeriodCandidates lists every Equation (1) bracket value on a fully
// homogeneous platform.
func homPeriodCandidates(p Pipeline, s, b float64) []float64 {
	n := p.Stages()
	var cands []float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			cands = append(cands, homIntervalCost(p, s, b, i, j))
		}
	}
	return numeric.DedupSorted(cands)
}

// HomPeriod minimizes Equation (1) on a fully homogeneous platform by
// binary search over the finite candidate set with the latency DP as the
// feasibility check.
func HomPeriod(p Pipeline, pl Platform) (Mapping, mapping.Cost, error) {
	if err := p.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, err
	}
	if err := pl.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, err
	}
	if !pl.IsFullyHomogeneous() {
		return Mapping{}, mapping.Cost{}, errPlatformNotHomogeneous
	}
	cands := homPeriodCandidates(p, pl.Speeds[0], pl.InBand[0])
	lo, hi := 0, len(cands)-1
	var bestM Mapping
	var bestC mapping.Cost
	found := false
	for lo <= hi {
		mid := (lo + hi) / 2
		m, c, ok, err := HomLatencyUnderPeriod(p, pl, cands[mid])
		if err != nil {
			return Mapping{}, mapping.Cost{}, err
		}
		if ok {
			bestM, bestC = m, c
			found = true
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if !found {
		panic("fullmodel: largest candidate period must be feasible")
	}
	return bestM, bestC, nil
}

// HomLatency minimizes Equation (2) on a fully homogeneous platform
// (no period constraint).
func HomLatency(p Pipeline, pl Platform) (Mapping, mapping.Cost, error) {
	m, c, ok, err := HomLatencyUnderPeriod(p, pl, numeric.Inf)
	if err != nil {
		return Mapping{}, mapping.Cost{}, err
	}
	if !ok {
		panic("fullmodel: unconstrained latency DP infeasible")
	}
	return m, c, nil
}

// errPlatformNotHomogeneous mirrors the simplified-model errors.
var errPlatformNotHomogeneous = errHomogeneous{}

type errHomogeneous struct{}

func (errHomogeneous) Error() string {
	return "fullmodel: platform is not fully homogeneous (use ExactPeriod / ExactLatency)"
}

// ExactSolve exhaustively optimizes the heterogeneous full model by
// enumerating all interval partitions and distinct-processor allocations,
// evaluating each complete mapping with Eval (a bracket's value depends on
// the neighbouring intervals' processors, so partial mappings cannot be
// scored incrementally without care — full evaluation keeps the baseline
// obviously correct). minimizePeriod selects the objective; periodCap
// bounds every bracket (use numeric.Inf for none). Exponential in p;
// intended for p <= ~8.
func ExactSolve(p Pipeline, pl Platform, minimizePeriod bool, periodCap float64) (Mapping, mapping.Cost, bool, error) {
	if err := p.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, false, err
	}
	if err := pl.Validate(); err != nil {
		return Mapping{}, mapping.Cost{}, false, err
	}
	n, procs := p.Stages(), pl.Processors()
	best := numeric.Inf
	var bestM Mapping
	var cur Mapping
	var walk func(i, mask int)
	walk = func(i, mask int) {
		if i == n {
			c, err := Eval(p, pl, Mapping{Bounds: cur.Bounds, Alloc: cur.Alloc})
			if err != nil {
				panic("fullmodel: enumeration built invalid mapping: " + err.Error())
			}
			if numeric.Greater(c.Period, periodCap) {
				return
			}
			obj := c.Latency
			if minimizePeriod {
				obj = c.Period
			}
			if numeric.Less(obj, best) {
				best = obj
				bestM = Mapping{
					Bounds: append([]int(nil), cur.Bounds...),
					Alloc:  append([]int(nil), cur.Alloc...),
				}
			}
			return
		}
		for j := i; j < n; j++ {
			for u := 0; u < procs; u++ {
				if mask&(1<<u) != 0 {
					continue
				}
				cur.Bounds = append(cur.Bounds, j+1)
				cur.Alloc = append(cur.Alloc, u)
				walk(j+1, mask|1<<u)
				cur.Bounds = cur.Bounds[:len(cur.Bounds)-1]
				cur.Alloc = cur.Alloc[:len(cur.Alloc)-1]
			}
		}
	}
	walk(0, 0)
	if math.IsInf(best, 1) {
		return Mapping{}, mapping.Cost{}, false, nil
	}
	c, err := Eval(p, pl, bestM)
	if err != nil {
		panic("fullmodel: best mapping invalid: " + err.Error())
	}
	return bestM, c, true, nil
}
