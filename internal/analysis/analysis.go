// Package analysis implements the §7 future-work direction: "data-mining
// techniques allow to process the MicroTools data generated in order to
// automate the analysis". It turns raw measurement sets and experiment
// series into the conclusions the paper draws by hand — the best variant in
// a family, the cutting points of a sweep (Fig. 3's "500 is one of the
// cutting points"), the plateaus of a hierarchy study (Figs. 11-12), and
// speedup comparisons between configurations (Figs. 17-18).
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"microtools/internal/launcher"
	"microtools/internal/stats"
)

// Best returns the measurement with the smallest Value (time per iteration:
// smaller is better). NaN values are skipped — a NaN in the first slot used
// to poison the whole comparison chain (every `m.Value < NaN` is false) and
// return the broken measurement as the "best". All-NaN input is an error.
func Best(ms []*launcher.Measurement) (*launcher.Measurement, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("analysis: no measurements")
	}
	var best *launcher.Measurement
	for _, m := range ms {
		if math.IsNaN(m.Value) {
			continue
		}
		if best == nil || m.Value < best.Value {
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("analysis: all %d measurements are NaN", len(ms))
	}
	return best, nil
}

// Worst returns the measurement with the largest Value, skipping NaN values
// (see Best).
func Worst(ms []*launcher.Measurement) (*launcher.Measurement, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("analysis: no measurements")
	}
	var worst *launcher.Measurement
	for _, m := range ms {
		if math.IsNaN(m.Value) {
			continue
		}
		if worst == nil || m.Value > worst.Value {
			worst = m
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("analysis: all %d measurements are NaN", len(ms))
	}
	return worst, nil
}

// Ranking is a measurement set ordered best-first.
type Ranking []*launcher.Measurement

// Rank sorts measurements by Value ascending (stable, so generation order
// breaks ties deterministically). NaN values sort last.
func Rank(ms []*launcher.Measurement) Ranking {
	out := append(Ranking(nil), ms...)
	sort.SliceStable(out, func(i, j int) bool { return lessNaNLast(out[i].Value, out[j].Value) })
	return out
}

// lessNaNLast orders float64s ascending with NaN after every number, giving
// rankings a deterministic order even over broken measurements.
func lessNaNLast(a, b float64) bool {
	if math.IsNaN(a) {
		return false
	}
	if math.IsNaN(b) {
		return true
	}
	return a < b
}

// metric returns the fairest available comparison value: per-element cost
// when the launcher could derive it, per-iteration cost otherwise.
func metric(m *launcher.Measurement) float64 {
	if m.ValuePerElement > 0 {
		return m.ValuePerElement
	}
	return m.Value
}

// RankPerElement sorts by per-element cost, the fair comparison across
// unroll factors (an 8x-unrolled iteration does 8x the work).
func RankPerElement(ms []*launcher.Measurement) Ranking {
	out := append(Ranking(nil), ms...)
	sort.SliceStable(out, func(i, j int) bool { return lessNaNLast(metric(out[i]), metric(out[j])) })
	return out
}

// Gain returns the relative improvement of the best variant over the worst:
// (worst-best)/worst, in the ranking's own metric.
func (r Ranking) Gain() float64 {
	if len(r) < 2 || metric(r[len(r)-1]) == 0 {
		return 0
	}
	return (metric(r[len(r)-1]) - metric(r[0])) / metric(r[len(r)-1])
}

// Report renders the ranking as the text summary the §7 workflow prints.
func (r Ranking) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d variants, best-first:\n", len(r))
	for i, m := range r {
		marker := "  "
		if i == 0 {
			marker = "* "
		}
		if m.ValuePerElement > 0 {
			fmt.Fprintf(&b, "%s%-32s %10.4f %s/element\n", marker, m.Kernel, m.ValuePerElement, m.Unit)
		} else {
			fmt.Fprintf(&b, "%s%-32s %10.4f %s\n", marker, m.Kernel, m.Value, m.Unit)
		}
	}
	if len(r) >= 2 {
		fmt.Fprintf(&b, "best variant is %.1f%% faster than the worst\n", 100*r.Gain())
	}
	return b.String()
}

// KendallTau computes Kendall's rank correlation (tau-a) between two
// paired value slices: the fraction of concordant minus discordant pairs
// over all pairs. +1 means identical orderings, -1 reversed, 0 no
// association. The repository uses it to quantify how well the static
// dataflow bound (Measurement.StaticBound) predicts the measured ranking
// of a variant family — the number EXPERIMENTS.md reports for the
// screening fidelity of core.ScreenTopK. Ties on either side contribute
// nothing (counted as neither concordant nor discordant). Returns 0 for
// fewer than two pairs or mismatched lengths.
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			da, db := a[i]-a[j], b[i]-b[j]
			switch prod := da * db; {
			case prod > 0:
				concordant++
			case prod < 0:
				discordant++
			}
		}
	}
	pairs := len(a) * (len(a) - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// Knee is a detected cutting point in a sweep.
type Knee struct {
	// X is the sweep coordinate where the cost jumps; Ratio is the jump
	// factor y(X)/y(previous X).
	X     float64
	Ratio float64
}

// FindKnees locates the points of a series where the value jumps by at
// least minRatio relative to the previous point — the "cutting points" of
// §2's size sweep.
func FindKnees(s *stats.Series, minRatio float64) []Knee {
	if minRatio <= 1 {
		minRatio = 1.25
	}
	var out []Knee
	pts := append([]stats.Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Y <= 0 {
			continue
		}
		if r := pts[i].Y / pts[i-1].Y; r >= minRatio {
			out = append(out, Knee{X: pts[i].X, Ratio: r})
		}
	}
	return out
}

// Plateau is a run of consecutive sweep points with similar values.
type Plateau struct {
	StartX, EndX float64
	Mean         float64
	N            int
}

// FindPlateaus clusters consecutive points whose values stay within tol
// (relative) of the running plateau mean — the flat levels of the
// hierarchy figures.
func FindPlateaus(s *stats.Series, tol float64) []Plateau {
	if tol <= 0 {
		tol = 0.15
	}
	pts := append([]stats.Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	var out []Plateau
	for _, p := range pts {
		if n := len(out); n > 0 {
			cur := &out[n-1]
			if cur.Mean > 0 {
				rel := (p.Y - cur.Mean) / cur.Mean
				if rel < 0 {
					rel = -rel
				}
				if rel <= tol {
					cur.Mean = (cur.Mean*float64(cur.N) + p.Y) / float64(cur.N+1)
					cur.N++
					cur.EndX = p.X
					continue
				}
			}
		}
		out = append(out, Plateau{StartX: p.X, EndX: p.X, Mean: p.Y, N: 1})
	}
	return out
}

// Speedup returns a series of a/b values at the X points both series share
// (e.g. sequential over OpenMP, Figs. 17-18).
func Speedup(num, den *stats.Series) (*stats.Series, error) {
	if num == nil || den == nil {
		return nil, fmt.Errorf("analysis: nil series")
	}
	out := &stats.Series{Name: num.Name + "/" + den.Name}
	for _, p := range num.Points {
		d, err := den.YAt(p.X)
		if err != nil {
			continue
		}
		if d == 0 {
			return nil, fmt.Errorf("analysis: zero denominator at x=%v", p.X)
		}
		out.Add(p.X, p.Y/d)
	}
	if len(out.Points) == 0 {
		return nil, fmt.Errorf("analysis: series share no x values")
	}
	return out, nil
}

// StudyReport renders the automated analysis of a full experiment table:
// per-series plateaus and knees, plus pairwise speedups for two-series
// tables.
func StudyReport(t *stats.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis of %q\n", t.Title)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "series %s:\n", s.Name)
		for _, p := range FindPlateaus(s, 0.15) {
			fmt.Fprintf(&b, "  plateau x=[%g,%g] mean=%.3f (%d points)\n", p.StartX, p.EndX, p.Mean, p.N)
		}
		for _, k := range FindKnees(s, 1.3) {
			fmt.Fprintf(&b, "  cutting point at x=%g (%.2fx jump)\n", k.X, k.Ratio)
		}
	}
	if len(t.Series) == 2 {
		if sp, err := Speedup(t.Series[0], t.Series[1]); err == nil {
			min, max := sp.MinY(), sp.MaxY()
			fmt.Fprintf(&b, "speedup %s: %.2fx-%.2fx\n", sp.Name, min, max)
		}
	}
	return b.String()
}
