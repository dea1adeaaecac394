package main

import (
	"math"
	"slices"
)

// quartiles returns the three cut points Python's statistics.quantiles(xs,
// n=4) gives (the default "exclusive" method), so spreads computed here match
// the ones computed from the printed metrics. It needs at least two samples.
// internal/stats.Quartiles interpolates differently.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
