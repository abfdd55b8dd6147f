package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), whose exclusive method defines the
// benchmark's spread check; the expected values were computed by Python.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.75, 2.0}, 1.625, 3.5, 6.875},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.9, 0.1, 0.4, 0.7, 0.3, 0.8, 0.2, 0.6, 0.5, 1.0, 1.1}, 0.3, 0.6, 0.9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{7}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one sample = %g, want NaN", q1)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.25}, 0.25},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// TestTail checks the tail rule: the highest percentile of the ladder
// with at least ten samples strictly beyond it, and none below twenty
// samples, where even the median has fewer than ten beyond.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		ok     bool
		pct, v float64
		beyond int
	}{
		{19, false, 0, 0, 0},
		{20, true, 50, 10, 10},
		{40, true, 75, 30, 10},
		{100, true, 90, 90, 10},
		{300, true, 95, 285, 15},
		{1000, true, 99, 990, 10},
		{10000, true, 99.9, 9990, 10},
	}
	for _, c := range cases {
		pct, v, beyond, ok := tail(seq(c.n), 10)
		if ok != c.ok || pct != c.pct || v != c.v || beyond != c.beyond {
			t.Errorf("tail(1..%d) = p%g %g (%d beyond, ok %t); want p%g %g (%d beyond, ok %t)",
				c.n, pct, v, beyond, ok, c.pct, c.v, c.beyond, c.ok)
		}
	}
	// Samples tied with the percentile's value are not beyond it: in
	// 1..14 plus seven 15s, p75 and up land on the ties with none beyond.
	xs := append(seq(14), 15, 15, 15, 15, 15, 15, 15)
	if pct, v, beyond, ok := tail(xs, 10); !ok || pct != 50 || v != 11 || beyond != 10 {
		t.Errorf("tail with ties = p%g %g (%d beyond, ok %t); want p50 11 (10 beyond)", pct, v, beyond, ok)
	}
}

// TestRefMedian checks that each wall time is scaled by the reference
// workload paired with it, not by a run-wide figure: a host twice as slow
// for the second sample leaves its reference time unchanged.
func TestRefMedian(t *testing.T) {
	nominal := calibNominal.Seconds()
	walls := []float64{0.2, 0.4, 0.3}
	calibs := []float64{nominal, 2 * nominal, nominal}
	if got := refMedian(walls, calibs); !near(got, 0.2) {
		t.Errorf("refMedian(%v, %v) = %g, want 0.2", walls, calibs, got)
	}
}
