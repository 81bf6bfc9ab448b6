package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, or 0 for an empty sample. xs is
// not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLevels are the tail percentiles the benchmark may report, highest
// first; a run reports the highest one with at least minBeyond samples
// above it.
var tailLevels = []int{99, 95, 90, 75, 50}

// minBeyond is the sample count a reported tail percentile must leave
// above itself.
const minBeyond = 10

// tailLevel returns, as a quantile, the highest tail level that leaves
// at least minBeyond of n samples beyond it.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if n*(100-p) >= minBeyond*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// quartileSpread returns (Q3 - Q1) / median, with the quartiles
// computed exactly as Python's statistics.quantiles(xs, n=4) computes
// them (its default "exclusive" method), which is how run-to-run spread
// is judged.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
