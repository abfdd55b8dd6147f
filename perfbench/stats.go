package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's stability check is defined with. It needs at least two
// samples; fewer yield NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailPercentiles is the ladder tail reports climb, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest percentile of the ladder that still has at
// least minBeyond samples strictly above its (nearest-rank) value, so a
// tail figure always rests on that many observations. ok is false when
// even the median lacks them.
func tail(xs []float64, minBeyond int) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		// Nearest rank; the guard keeps float error in p*n/100 from
		// pushing an exact rank up by one.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 {
			continue
		}
		v := s[rank-1]
		b := n - sort.Search(n, func(i int) bool { return s[i] > v })
		if b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}
