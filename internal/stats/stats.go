// Package stats provides the summary statistics, stability metrics and CSV
// rendering used by MicroLauncher to report measurement results (§4.3 of the
// paper: "The output of the launcher is a generic CSV file providing the
// execution time of the benchmark program which is by default the number of
// cycles per iteration").
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary condenses a set of repeated measurements (the outer experiment
// loop of MicroLauncher, §4.5) into the statistics the paper reports:
// the minimum is used for figure series ("For each unroll group, the minimum
// value was taken though the variance was minimal", §5.1) and the
// coefficient of variation quantifies run-to-run stability (§4.7).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	// StdDev is the population standard deviation (÷n), the historical
	// CSV/report-facing dispersion figure (CV derives from it).
	StdDev float64
	// SampleStdDev is the sample standard deviation (÷(n−1)), the
	// estimator confidence-interval math requires: RCIW plugs it into the
	// Student-t interval. Zero when n < 2 (the estimator is undefined;
	// RCIW reports the degenerate case explicitly instead).
	SampleStdDev float64
}

// Summarize computes a Summary over samples. It panics on an empty input:
// the launcher never reports an experiment with zero repetitions.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		panic("stats: Summarize on empty sample set") //microlint:disable L010 -- documented precondition, not an error path
	}
	s := Summary{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, v := range samples {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(samples))
	var sq float64
	for _, v := range samples {
		d := v - s.Mean
		sq += d * d
	}
	s.StdDev = math.Sqrt(sq / float64(len(samples)))
	if len(samples) > 1 {
		s.SampleStdDev = math.Sqrt(sq / float64(len(samples)-1))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CV returns the coefficient of variation (stddev/mean), the launcher's
// stability metric. It returns 0 for a zero mean.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// tCrit95 holds the two-sided 95% Student-t critical values t(0.975, df)
// for df = 1..29. Above df 29 the normal approximation is within 0.5% and
// TCrit95 falls back to z = 1.96.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: the tabulated quantile for df < 30, the normal
// z = 1.96 beyond, and +Inf for df < 1 (no interval exists from a single
// observation).
func TCrit95(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.96
}

// RCIW returns the relative 95% confidence-interval width of the mean —
// 2·t(0.975, n−1)·(s/√n)/|mean| with the sample stddev s — the stability
// signal μOpTime's adaptive repetition budgeting keys on: a run whose
// RCIW is still wide needs more repetitions, not a tighter statistic.
//
// Degenerate summaries return +Inf, the documented "no confidence"
// sentinel: fewer than two repetitions admit no interval estimate, and a
// zero mean admits no relative one. +Inf orders correctly against any
// finite target (never "stable enough") and the JSON boundaries render it
// null (launcher.WriteJSON in reports, the Stability codec in caches and
// the API).
func (s Summary) RCIW() float64 {
	if s.N < 2 || s.Mean == 0 {
		return math.Inf(1)
	}
	half := TCrit95(s.N-1) * s.SampleStdDev / math.Sqrt(float64(s.N))
	return 2 * half / math.Abs(s.Mean)
}

// Stability bundles the per-measurement stability statistics carried by
// campaign results and the measurement cache: the repetition count, the
// mean, and the two relative dispersion signals (CV, RCIW) downstream
// consumers — result ranking, adaptive budget planners — read to decide
// how much to trust the value.
type Stability struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	CV   float64 `json:"cv"`
	RCIW float64 `json:"rciw"`
}

// StabilityOf derives the stability statistics from a summary. It is a
// pure function of the summary, so recomputing it (e.g. for a cache
// entry written before the field existed) reproduces the stored value
// bit for bit.
func StabilityOf(s Summary) Stability {
	return Stability{N: s.N, Mean: s.Mean, CV: s.CV(), RCIW: s.RCIW()}
}

// LegacyStabilityOf derives the stability statistics with the pre-fix
// formulas: population stddev, fixed z = 1.96 regardless of n, and 0 for a
// zero mean or empty summary. It exists for one purpose — versioned
// backfill of cache entries written before the launcher stored the
// Stability field, whose readers historically saw exactly these values
// (see campaign.stabilityFor). New measurements always use StabilityOf.
func LegacyStabilityOf(s Summary) Stability {
	st := Stability{N: s.N, Mean: s.Mean, CV: s.CV()}
	if s.Mean != 0 && s.N != 0 {
		half := 1.96 * s.StdDev / math.Sqrt(float64(s.N))
		st.RCIW = 2 * half / s.Mean
	}
	return st
}

// stabilityWire is Stability's JSON shape: RCIW rides a pointer so the
// degenerate +Inf (which encoding/json rejects) round-trips as null while
// finite values keep their exact historical encoding — cache entries and
// API payloads written before the codec existed decode bit-identically.
type stabilityWire struct {
	N    int      `json:"n"`
	Mean float64  `json:"mean"`
	CV   float64  `json:"cv"`
	RCIW *float64 `json:"rciw"`
}

// MarshalJSON encodes a non-finite RCIW as null; finite values encode
// exactly as the plain struct always did.
func (s Stability) MarshalJSON() ([]byte, error) {
	w := stabilityWire{N: s.N, Mean: s.Mean, CV: s.CV}
	if !math.IsInf(s.RCIW, 0) && !math.IsNaN(s.RCIW) {
		r := s.RCIW
		w.RCIW = &r
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes null (and a missing field) back to the +Inf
// sentinel only when the summary is non-degenerate on its face; a wholly
// absent Stability object never reaches this method, so pre-field cache
// entries keep their zero value and the backfill path.
func (s *Stability) UnmarshalJSON(b []byte) error {
	var w stabilityWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	s.N, s.Mean, s.CV = w.N, w.Mean, w.CV
	if w.RCIW != nil {
		s.RCIW = *w.RCIW
	} else {
		s.RCIW = math.Inf(1)
	}
	return nil
}

// Spread returns (max-min)/min, the relative spread across repetitions.
// The paper's §2 alignment study uses exactly this ("The variation is less
// than 3% for any alignment configuration").
func (s Summary) Spread() float64 {
	if s.Min == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Min
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f med=%.3f mean=%.3f max=%.3f sd=%.3f",
		s.N, s.Min, s.Median, s.Mean, s.Max, s.StdDev)
}

// Statistic selects which summary statistic a launcher run reports.
type Statistic int

const (
	// StatMin reports the minimum over repetitions (paper default for
	// figure series).
	StatMin Statistic = iota
	// StatMedian reports the median.
	StatMedian
	// StatMean reports the arithmetic mean.
	StatMean
	// StatMax reports the maximum (useful for worst-case alignment
	// studies such as Figs. 15-16).
	StatMax
)

// normalize maps an out-of-range Statistic to StatMean, the documented
// fallback. Every method of the type routes through it so Of and String
// agree on what an invalid value means.
func (st Statistic) normalize() Statistic {
	if st < StatMin || st > StatMax {
		return StatMean
	}
	return st
}

// String returns the CSV-facing name of the statistic. Out-of-range values
// render as the fallback statistic actually applied by Of ("mean").
func (st Statistic) String() string {
	switch st.normalize() {
	case StatMin:
		return "min"
	case StatMedian:
		return "median"
	case StatMax:
		return "max"
	default:
		return "mean"
	}
}

// ParseStatistic parses a statistic name as accepted by the
// microlauncher -statistic option.
func ParseStatistic(name string) (Statistic, error) {
	switch name {
	case "min":
		return StatMin, nil
	case "median":
		return StatMedian, nil
	case "mean":
		return StatMean, nil
	case "max":
		return StatMax, nil
	}
	return 0, fmt.Errorf("stats: unknown statistic %q (want min|median|mean|max)", name)
}

// Of applies the statistic to a summary. Out-of-range values fall back to
// the mean, matching what String reports for them.
func (st Statistic) Of(s Summary) float64 {
	switch st.normalize() {
	case StatMin:
		return s.Min
	case StatMedian:
		return s.Median
	case StatMax:
		return s.Max
	default:
		return s.Mean
	}
}
