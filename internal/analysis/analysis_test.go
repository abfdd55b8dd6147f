package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"microtools/internal/launcher"
	"microtools/internal/stats"
)

func meas(name string, v float64) *launcher.Measurement {
	return &launcher.Measurement{Kernel: name, Value: v}
}

// TestBestWorstAndRank: a ranking's head is the best variant and its tail
// the worst (per-iteration cost stands in when no per-element cost was
// derived); Gain and Report summarize the spread.
func TestBestWorstAndRank(t *testing.T) {
	ms := []*launcher.Measurement{meas("a", 3), meas("b", 1), meas("c", 2)}
	r := RankPerElement(ms)
	if r[0].Kernel != "b" || r[2].Kernel != "a" {
		t.Errorf("rank order wrong: %v", r)
	}
	if g := r.Gain(); g < 0.66 || g > 0.67 {
		t.Errorf("gain = %v, want (3-1)/3", g)
	}
	rep := r.Report()
	if !strings.Contains(rep, "* b") || !strings.Contains(rep, "66.7%") {
		t.Errorf("report:\n%s", rep)
	}
	if empty := RankPerElement(nil); len(empty) != 0 || empty.Gain() != 0 {
		t.Errorf("empty ranking = %v, gain %v", empty, empty.Gain())
	}
}

func TestFindKnees(t *testing.T) {
	s := &stats.Series{}
	for _, p := range []struct{ x, y float64 }{
		{10, 4}, {20, 4.1}, {30, 4.2}, {40, 9}, {50, 9.3}, {60, 20},
	} {
		s.Add(p.x, p.y)
	}
	knees := FindKnees(s, 1.5)
	if len(knees) != 2 || knees[0].X != 40 || knees[1].X != 60 {
		t.Errorf("knees = %+v", knees)
	}
	if FindKnees(&stats.Series{}, 1.5) != nil {
		t.Error("empty series has knees")
	}
}

func TestFindPlateaus(t *testing.T) {
	s := &stats.Series{}
	ys := []float64{4, 4.1, 3.9, 9, 9.2, 9.1, 20}
	for i, y := range ys {
		s.Add(float64(i), y)
	}
	ps := FindPlateaus(s, 0.15)
	if len(ps) != 3 {
		t.Fatalf("plateaus = %+v", ps)
	}
	if ps[0].N != 3 || ps[1].N != 3 || ps[2].N != 1 {
		t.Errorf("plateau sizes = %+v", ps)
	}
	if ps[1].StartX != 3 || ps[1].EndX != 5 {
		t.Errorf("plateau 1 range = %+v", ps[1])
	}
}

func TestSpeedup(t *testing.T) {
	a := &stats.Series{Name: "seq"}
	b := &stats.Series{Name: "omp"}
	a.Add(1, 10)
	a.Add(2, 12)
	a.Add(3, 14) // no matching b point
	b.Add(1, 5)
	b.Add(2, 3)
	sp, err := Speedup(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Points) != 2 || sp.Points[0].Y != 2 || sp.Points[1].Y != 4 {
		t.Errorf("speedup = %+v", sp.Points)
	}
	if sp.Name != "seq/omp" {
		t.Errorf("name = %q", sp.Name)
	}
	b0 := &stats.Series{Name: "z"}
	b0.Add(1, 0)
	if _, err := Speedup(a, b0); err == nil {
		t.Error("zero denominator accepted")
	}
	if _, err := Speedup(a, &stats.Series{Name: "empty"}); err == nil {
		t.Error("disjoint series accepted")
	}
	if _, err := Speedup(nil, b); err == nil {
		t.Error("nil series accepted")
	}
}

func TestStudyReport(t *testing.T) {
	tab := &stats.Table{Title: "study"}
	seq := tab.AddSeries("sequential")
	omp := tab.AddSeries("openmp")
	for i := 1; i <= 4; i++ {
		seq.Add(float64(i), 10)
		omp.Add(float64(i), 4)
	}
	rep := StudyReport(tab)
	for _, want := range []string{"sequential", "plateau", "speedup sequential/openmp: 2.50x-2.50x"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// Property: RankPerElement keeps every measurement, sorts ascending, and
// its head is the minimum.
func TestPropertyRanking(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var ms []*launcher.Measurement
		for i, v := range vals {
			ms = append(ms, meas(strings.Repeat("k", i%3+1), float64(v)))
		}
		r := RankPerElement(ms)
		if len(r) != len(ms) {
			return false
		}
		for i := 1; i < len(r); i++ {
			if r[i].Value < r[i-1].Value {
				return false
			}
		}
		for _, m := range ms {
			if m.Value < r[0].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: plateaus partition the series (point counts sum to the series
// length) regardless of tolerance.
func TestPropertyPlateausPartition(t *testing.T) {
	f := func(ys []uint8, tolPct uint8) bool {
		s := &stats.Series{}
		for i, y := range ys {
			s.Add(float64(i), float64(y)+1)
		}
		ps := FindPlateaus(s, float64(tolPct%50)/100)
		n := 0
		for _, p := range ps {
			n += p.N
		}
		return n == len(ys)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestWorstSkipNaN(t *testing.T) {
	nan := math.NaN()
	// A NaN in the first slot must not poison the comparison chain and rank
	// as the best measurement.
	ms := []*launcher.Measurement{meas("broken", nan), meas("a", 3), meas("b", 1)}
	r := RankPerElement(ms)
	if r[0].Kernel != "b" || r[1].Kernel != "a" {
		t.Errorf("best/worst measured variant with leading NaN = %s/%s; want b/a", r[0].Kernel, r[1].Kernel)
	}
	if r[len(r)-1].Kernel != "broken" {
		t.Errorf("RankPerElement did not sort NaN last: %v", r)
	}
}

func TestKendallTau(t *testing.T) {
	same := []float64{1, 2, 3, 4}
	if tau := KendallTau(same, []float64{10, 20, 30, 40}); tau != 1 {
		t.Errorf("identical ordering: tau = %v, want 1", tau)
	}
	if tau := KendallTau(same, []float64{40, 30, 20, 10}); tau != -1 {
		t.Errorf("reversed ordering: tau = %v, want -1", tau)
	}
	// One swapped adjacent pair out of 6 pairs: (5-1)/6.
	if tau := KendallTau(same, []float64{10, 20, 40, 30}); math.Abs(tau-4.0/6.0) > 1e-15 {
		t.Errorf("one swap: tau = %v, want %v", tau, 4.0/6.0)
	}
	// Ties contribute nothing: a constant side has no ordering signal.
	if tau := KendallTau(same, []float64{7, 7, 7, 7}); tau != 0 {
		t.Errorf("all ties: tau = %v, want 0", tau)
	}
	if tau := KendallTau([]float64{1}, []float64{2}); tau != 0 {
		t.Errorf("degenerate input: tau = %v, want 0", tau)
	}
	if tau := KendallTau(same, []float64{1, 2}); tau != 0 {
		t.Errorf("mismatched lengths: tau = %v, want 0", tau)
	}
}
