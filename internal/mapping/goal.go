package mapping

import "repliflow/internal/numeric"

// Goal is the objective of a solve in cost terms, shared by every
// search: minimize the period or the latency, subject to optional caps
// on either (0 = unbounded). The four objectives of Table 1's
// bi-criteria columns are its four shapes.
type Goal struct {
	MinimizePeriod bool
	PeriodCap      float64
	LatencyCap     float64
}

// Value returns the minimized metric of a cost.
func (g Goal) Value(c Cost) float64 {
	if g.MinimizePeriod {
		return c.Period
	}
	return c.Latency
}

// Feasible reports whether a cost respects the caps.
func (g Goal) Feasible(c Cost) bool {
	if g.PeriodCap > 0 && numeric.Greater(c.Period, g.PeriodCap) {
		return false
	}
	if g.LatencyCap > 0 && numeric.Greater(c.Latency, g.LatencyCap) {
		return false
	}
	return true
}

// Better reports whether a strictly improves on b under the goal:
// feasibility first, then the smaller cap violation, then the minimized
// metric.
func (g Goal) Better(a, b Cost) bool {
	fa, fb := g.Feasible(a), g.Feasible(b)
	if fa != fb {
		return fa
	}
	if !fa {
		if va, vb := g.violation(a), g.violation(b); !numeric.Eq(va, vb) {
			return va < vb
		}
	}
	return numeric.Less(g.Value(a), g.Value(b))
}

func (g Goal) violation(c Cost) float64 {
	var v float64
	if g.PeriodCap > 0 && c.Period > g.PeriodCap {
		v += c.Period - g.PeriodCap
	}
	if g.LatencyCap > 0 && c.Latency > g.LatencyCap {
		v += c.Latency - g.LatencyCap
	}
	return v
}
