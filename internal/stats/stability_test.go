package stats

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestTCrit95Table checks TCrit95 against published values of
// t(0.975, df): exactly the three-decimal table up to df 29, within 1e-4
// of the four-decimal quantile beyond it (the Cornish–Fisher expansion),
// tending to the normal z for large df, and +Inf below one degree of
// freedom.
func TestTCrit95Table(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
		{10, 2.228}, {20, 2.086}, {29, 2.045},
	}
	for _, c := range cases {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	beyond := []struct {
		df   int
		want float64
	}{
		{30, 2.0423}, {39, 2.0227}, {60, 2.0003}, {100, 1.9840}, {120, 1.9799}, {1 << 20, 1.9600},
	}
	for _, c := range beyond {
		if got := TCrit95(c.df); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("TCrit95(%d) = %v, want %v ± 1e-4", c.df, got, c.want)
		}
	}
	if got := TCrit95(0); !math.IsInf(got, 1) {
		t.Errorf("TCrit95(0) = %v, want +Inf", got)
	}
	if got := TCrit95(-3); !math.IsInf(got, 1) {
		t.Errorf("TCrit95(-3) = %v, want +Inf", got)
	}
}

// TestSampleVsPopulationStdDev pins the two estimators apart: StdDev stays
// the population (÷n) figure the CSV always reported, SampleStdDev is the
// ÷(n−1) estimator the confidence interval needs.
func TestSampleVsPopulationStdDev(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if want := math.Sqrt(1.25); !approxEq(s.StdDev, want) {
		t.Errorf("StdDev = %v, want population %v", s.StdDev, want)
	}
	if want := math.Sqrt(5.0 / 3.0); !approxEq(s.SampleStdDev, want) {
		t.Errorf("SampleStdDev = %v, want sample %v", s.SampleStdDev, want)
	}
	single := Summarize([]float64{7})
	if single.SampleStdDev != 0 {
		t.Errorf("single-sample SampleStdDev = %v, want 0", single.SampleStdDev)
	}
}

// TestRCIWStudentT hand-computes the relative CI width for a small sample:
// 2·t(0.975,3)·s/√4/|mean| with the SAMPLE stddev — the bug this test
// guards against was the population estimator (and a fixed z) leaking in.
func TestRCIWStudentT(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	want := 2 * 3.182 * math.Sqrt(5.0/3.0) / math.Sqrt(4) / 2.5
	if got := s.RCIW(); !approxEq(got, want) {
		t.Errorf("RCIW = %v, want %v", got, want)
	}
	// A 40-sample summary is past the t table: t(0.975, 39) = 2.0227
	// still applies, not the normal z.
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i%2) + 10 // alternating 10, 11
	}
	sb := Summarize(big)
	wantBig := 2 * 2.0227 * sb.SampleStdDev / math.Sqrt(40) / sb.Mean
	if got := sb.RCIW(); math.Abs(got-wantBig) > 1e-4*wantBig {
		t.Errorf("RCIW(n=40) = %v, want %v", got, wantBig)
	}
}

// TestRCIWDegenerate pins the +Inf sentinel: a single repetition and a
// zero mean admit no (relative) interval estimate.
func TestRCIWDegenerate(t *testing.T) {
	if got := Summarize([]float64{7}).RCIW(); !math.IsInf(got, 1) {
		t.Errorf("RCIW(n=1) = %v, want +Inf", got)
	}
	if got := Summarize([]float64{-1, 1}).RCIW(); !math.IsInf(got, 1) {
		t.Errorf("RCIW(mean=0) = %v, want +Inf", got)
	}
	var q Sequential
	if got := q.RCIW(); !math.IsInf(got, 1) {
		t.Errorf("Sequential.RCIW(n=0) = %v, want +Inf", got)
	}
	q.Push(3)
	if got := q.RCIW(); !math.IsInf(got, 1) {
		t.Errorf("Sequential.RCIW(n=1) = %v, want +Inf", got)
	}
}

// Property: the Welford accumulator agrees with the two-pass Summarize on
// every statistic the planner consults.
func TestSequentialMatchesSummarize(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		var q Sequential
		for i, v := range raw {
			vals[i] = float64(v)
			q.Push(vals[i])
		}
		s := Summarize(vals)
		if q.N() != s.N || q.Min() != s.Min || q.Max() != s.Max {
			return false
		}
		if !approxEq(q.Mean(), s.Mean) {
			return false
		}
		if math.Abs(q.SampleStdDev()-s.SampleStdDev) > 1e-6*(1+s.SampleStdDev) {
			return false
		}
		qr, sr := q.RCIW(), s.RCIW()
		if math.IsInf(sr, 1) {
			return math.IsInf(qr, 1)
		}
		return math.Abs(qr-sr) < 1e-6*(1+sr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLegacyStabilityOf pins the pre-fix formula generation the versioned
// cache backfill replays: population stddev, fixed z, zero for the
// degenerate cases the current formula maps to +Inf.
func TestLegacyStabilityOf(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	legacy := LegacyStabilityOf(s)
	want := 2 * 1.96 * s.StdDev / math.Sqrt(4) / s.Mean
	if !approxEq(legacy.RCIW, want) {
		t.Errorf("legacy RCIW = %v, want %v", legacy.RCIW, want)
	}
	if legacy.N != 4 || legacy.Mean != s.Mean || legacy.CV != s.CV() {
		t.Errorf("legacy stability = %+v", legacy)
	}
	if got := LegacyStabilityOf(Summarize([]float64{9})).RCIW; got != 0 {
		t.Errorf("legacy RCIW(n=1) = %v, want 0", got)
	}
	if got := LegacyStabilityOf(Summarize([]float64{-1, 1})).RCIW; got != 0 {
		t.Errorf("legacy RCIW(mean=0) = %v, want 0", got)
	}
}

// TestStabilityJSONRoundTrip exercises the codec across both regimes:
// finite RCIW values keep the exact historical encoding (cache warm-ness),
// the +Inf sentinel rides as null and comes back as +Inf.
func TestStabilityJSONRoundTrip(t *testing.T) {
	finite := Stability{N: 4, Mean: 2.5, CV: 0.4472, RCIW: 1.6432}
	b, err := json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	// The historical encoding: the plain struct without the codec.
	legacy, err := json.Marshal(struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		CV   float64 `json:"cv"`
		RCIW float64 `json:"rciw"`
	}{finite.N, finite.Mean, finite.CV, finite.RCIW})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(legacy) {
		t.Errorf("finite encoding %s diverged from the historical %s: caches would go cold", b, legacy)
	}
	var back Stability
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != finite {
		t.Errorf("round trip %+v != %+v", back, finite)
	}

	inf := Stability{N: 1, Mean: 3, RCIW: math.Inf(1)}
	b, err = json.Marshal(inf)
	if err != nil {
		t.Fatalf("marshaling +Inf RCIW: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if raw["rciw"] != nil {
		t.Errorf("+Inf RCIW encoded as %v, want null", raw["rciw"])
	}
	var backInf Stability
	if err := json.Unmarshal(b, &backInf); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(backInf.RCIW, 1) || backInf.N != 1 || backInf.Mean != 3 {
		t.Errorf("null rciw decoded to %+v, want the +Inf sentinel", backInf)
	}
}

// TestStabilityOfRecomputes pins StabilityOf as a pure function of the
// summary — the cache backfill invariant.
func TestStabilityOfRecomputes(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	a, b := StabilityOf(s), StabilityOf(s)
	if a != b {
		t.Errorf("StabilityOf not deterministic: %+v vs %+v", a, b)
	}
	if a.N != 3 || a.Mean != 4 || a.CV != s.CV() || a.RCIW != s.RCIW() {
		t.Errorf("StabilityOf = %+v", a)
	}
}
