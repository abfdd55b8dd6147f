package experiments

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment goldens with current output")

// quickRun runs one experiment in quick mode at the default worker count
// and checks its CSV against testdata/<id>.csv byte for byte.
func quickRun(t *testing.T, id string) (ex *Experiment, table *TableAlias) {
	t.Helper()
	return runGolden(t, id, Config{Quick: true})
}

// runGolden runs one experiment under cfg and compares its CSV with the
// committed golden; -update rewrites the golden instead.
func runGolden(t *testing.T, id string, cfg Config) (*Experiment, *TableAlias) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	got := []byte(tab.CSVString())
	path := filepath.Join("testdata", id+".csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return e, tab
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s (workers %d) drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", id, cfg.Workers, path, got, want)
	}
	return e, tab
}

// TestGoldensAtOneWorker reruns experiments that fan launches out at one
// worker: a serial run must reproduce the default run's golden exactly.
func TestGoldensAtOneWorker(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by the default-worker runs")
	}
	for _, id := range []string{"fig11", "fig17", "stability"} {
		t.Run(id, func(t *testing.T) {
			runGolden(t, id, Config{Quick: true, Workers: 1})
		})
	}
}

// TestCanceledContextStopsExperiment checks that a canceled context ends
// an experiment with an error that still is context.Canceled.
func TestCanceledContextStopsExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig03", "fig15"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(ctx, Config{Quick: true}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: err = %v, want context.Canceled", id, err)
		}
	}
}

// TableAlias keeps the test helpers readable.
type TableAlias = statsTable

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-arith", "ext-power", "ext-stride",
		"fig03", "fig04", "fig05", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "stability", "tab02"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Paper == "" || e.Machine == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig03ShapeRisesAcrossHierarchy(t *testing.T) {
	_, tab := quickRun(t, "fig03")
	s := tab.Series[0]
	// The plateau must break upward once the C matrix leaves the last
	// cache level (the paper's cutting point near N=500; N≈313 scaled).
	// The step is bounded by the 8-column line reuse of the walk, so it
	// is a moderate rise, as in the paper.
	plateau := s.MinY()
	large := s.Points[len(s.Points)-1].Y
	if large <= plateau*1.25 {
		t.Errorf("fig03: cycles/iter at largest N (%.2f) not clearly above the plateau (%.2f)", large, plateau)
	}
}

func TestFig04AlignmentInsensitiveAtCacheResidentSize(t *testing.T) {
	_, tab := quickRun(t, "fig04")
	s := tab.Series[0]
	spread := (s.MaxY() - s.MinY()) / s.MinY()
	// Paper: <3%. Allow a little more on the scaled machine.
	if spread > 0.08 {
		t.Errorf("fig04: alignment spread %.1f%% too large for the cache-resident size", spread*100)
	}
}

func TestFig05MicrobenchTracksActual(t *testing.T) {
	_, tab := quickRun(t, "fig05")
	actual, micro := tab.Get("actual code"), tab.Get("microbenchmark")
	if actual == nil || micro == nil {
		t.Fatal("missing series")
	}
	a1, _ := actual.YAt(1)
	a8, _ := actual.YAt(8)
	m1, _ := micro.YAt(1)
	m8, _ := micro.YAt(8)
	if a8 >= a1 || m8 >= m1 {
		t.Errorf("fig05: unrolling did not help (actual %.2f->%.2f, micro %.2f->%.2f)", a1, a8, m1, m8)
	}
	gainA := (a1 - a8) / a1
	gainM := (m1 - m8) / m1
	if diff := gainA - gainM; diff < -0.35 || diff > 0.35 {
		t.Errorf("fig05: microbenchmark gain %.0f%% does not track actual %.0f%%", gainM*100, gainA*100)
	}
}

func TestFig11HierarchyOrdering(t *testing.T) {
	_, tab := quickRun(t, "fig11")
	if len(tab.Series) != 4 {
		t.Fatalf("fig11: %d series, want L1/L2/L3/RAM", len(tab.Series))
	}
	// At max unroll, deeper levels cost at least as much per instruction.
	for i := 1; i < 4; i++ {
		lo, _ := tab.Series[i-1].YAt(8)
		hi, _ := tab.Series[i].YAt(8)
		if hi < lo*0.95 {
			t.Errorf("fig11: %s (%.2f) cheaper than %s (%.2f) at u=8",
				tab.Series[i].Name, hi, tab.Series[i-1].Name, lo)
		}
	}
	// Unrolling advantageous in L1: best per-instruction cost at u=8 below u=1.
	l1 := tab.Get("L1")
	u1, _ := l1.YAt(1)
	u8, _ := l1.YAt(8)
	if u8 >= u1 {
		t.Errorf("fig11: L1 per-instruction cost did not improve with unroll (%.2f -> %.2f)", u1, u8)
	}
}

func TestFig12MovssCheaperThanMovapsInRAM(t *testing.T) {
	_, aps := quickRun(t, "fig11")
	_, ss := quickRun(t, "fig12")
	apsRAM, _ := aps.Get("RAM").YAt(8)
	ssRAM, _ := ss.Get("RAM").YAt(8)
	// movaps moves 4x the data per instruction: must cost more per
	// instruction out of RAM ("Accessing data from RAM with vectorized
	// instructions has a greater latency impact", §5.1).
	if apsRAM <= ssRAM {
		t.Errorf("fig11/12: movaps RAM %.2f not above movss RAM %.2f cycles/inst", apsRAM, ssRAM)
	}
}

func TestFig13CoreVsUncoreDomains(t *testing.T) {
	_, tab := quickRun(t, "fig13")
	l1 := tab.Get("L1")
	ram := tab.Get("RAM")
	if l1 == nil || ram == nil {
		t.Fatal("missing series")
	}
	// L1: TSC cycles/load shrink as the core speeds up.
	l1Slow := l1.Points[0].Y
	l1Fast := l1.Points[len(l1.Points)-1].Y
	if l1Fast >= l1Slow*0.8 {
		t.Errorf("fig13: L1 TSC cost did not scale with core frequency (%.2f -> %.2f)", l1Slow, l1Fast)
	}
	// RAM: roughly constant.
	ramSlow := ram.Points[0].Y
	ramFast := ram.Points[len(ram.Points)-1].Y
	ratio := ramFast / ramSlow
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("fig13: RAM TSC cost varied %.2fx with core frequency, want ~constant", ratio)
	}
}

func TestFig14SaturationKnee(t *testing.T) {
	_, tab := quickRun(t, "fig14")
	s := tab.Get("movaps")
	one, _ := s.YAt(1)
	twelve, _ := s.YAt(12)
	if twelve < one*1.5 {
		t.Errorf("fig14: 12-core latency %.1f not clearly above 1-core %.1f", twelve, one)
	}
	// Under the knee the growth is modest.
	four, _ := s.YAt(4)
	if four > one*1.6 {
		t.Errorf("fig14: latency grows too early (1 core %.1f -> 4 cores %.1f)", one, four)
	}
}

func TestFig15And16AlignmentVariation(t *testing.T) {
	_, f15 := quickRun(t, "fig15")
	_, f16 := quickRun(t, "fig16")
	s15, s16 := f15.Series[0], f16.Series[0]
	if spread := (s15.MaxY() - s15.MinY()) / s15.MinY(); spread < 0.02 {
		t.Errorf("fig15: alignment spread %.2f%% too small — alignment must matter under load", spread*100)
	}
	// 32-core run sits above the 8-core run (memory saturation).
	if s16.MinY() <= s15.MinY() {
		t.Errorf("fig16: 32-core band (min %.1f) not above 8-core band (min %.1f)", s16.MinY(), s15.MinY())
	}
}

func TestFig17OpenMPWinsAndFig18GainShrinks(t *testing.T) {
	_, f17 := quickRun(t, "fig17")
	_, f18 := quickRun(t, "fig18")
	gain := func(tab *TableAlias, u float64) float64 {
		s, _ := tab.Get("sequential").YAt(u)
		o, _ := tab.Get("openmp").YAt(u)
		return s / o
	}
	g17 := gain(f17, 8)
	g18 := gain(f18, 8)
	if g17 <= 1 {
		t.Errorf("fig17: OpenMP not faster (gain %.2fx)", g17)
	}
	if g18 >= g17 {
		t.Errorf("fig17/18: RAM-resident OpenMP gain (%.2fx) not below cache-resident gain (%.2fx)", g18, g17)
	}
}

func TestTab02SequentialImprovesOpenMPFlat(t *testing.T) {
	_, tab := quickRun(t, "tab02")
	seq := tab.Get("sequential (s)")
	omp := tab.Get("openmp (s)")
	s1, _ := seq.YAt(1)
	s8, _ := seq.YAt(8)
	o1, _ := omp.YAt(1)
	o8, _ := omp.YAt(8)
	if s8 >= s1 {
		t.Errorf("tab02: sequential did not improve with unroll (%.2fs -> %.2fs)", s1, s8)
	}
	if o1 <= 0 || o8 <= 0 {
		t.Fatalf("tab02: non-positive OpenMP times (%f, %f)", o1, o8)
	}
	// Sequential must improve systematically; OpenMP stays in a flat band
	// (the paper: 18.30s -> ~14.5s vs a flat ~9.3s).
	seqGain := (s1 - s8) / s1
	if seqGain < 0.04 {
		t.Errorf("tab02: sequential unroll gain %.1f%% too small", seqGain*100)
	}
	ompSpread := (o1 - o8) / o1
	if ompSpread < 0 {
		ompSpread = -ompSpread
	}
	if ompSpread > 0.2 {
		t.Errorf("tab02: OpenMP times not flat (spread %.0f%%)", ompSpread*100)
	}
	// OpenMP must win outright (paper: 9.3s vs 14.4-18.3s).
	if o1 >= s1 || o8 >= s8 {
		t.Errorf("tab02: OpenMP (%.2f/%.2f) not faster than sequential (%.2f/%.2f)", o1, o8, s1, s8)
	}
}

func TestStabilityProtocolSuppressesNoise(t *testing.T) {
	_, tab := quickRun(t, "stability")
	cv := func(name string) float64 {
		s := tab.Get(name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		return s.Points[0].Y
	}
	full := cv("full protocol")
	naive := cv("noise, naive")
	if full > 0.5 {
		t.Errorf("stability: full protocol CV %.2f%% too high", full)
	}
	if naive <= full {
		t.Errorf("stability: naive CV (%.2f%%) not above protocol CV (%.2f%%)", naive, full)
	}
}

func TestCSVAndASCIIRender(t *testing.T) {
	_, tab := quickRun(t, "fig13")
	csv := tab.CSVString()
	if !strings.Contains(csv, "L1") || !strings.Contains(csv, "RAM") {
		t.Errorf("CSV missing series: %s", csv)
	}
	art := tab.ASCII(60, 12)
	if !strings.Contains(art, "Fig. 13") {
		t.Errorf("ASCII chart missing title:\n%s", art)
	}
}

// statsTable aliases stats.Table for the helpers above.
type statsTable = stats.Table

func TestExtStrideCostRises(t *testing.T) {
	_, tab := quickRun(t, "ext-stride")
	s := tab.Series[0]
	small := s.Points[0].Y
	large := s.Points[len(s.Points)-1].Y
	if large <= small*1.5 {
		t.Errorf("ext-stride: stride-%v cost (%.2f) not clearly above stride-%v (%.2f)",
			s.Points[len(s.Points)-1].X, large, s.Points[0].X, small)
	}
}

func TestExtArithHiding(t *testing.T) {
	_, tab := quickRun(t, "ext-arith")
	s := tab.Series[0]
	// The first few arithmetic instructions ride under the memory
	// latency: cost at 2 addps stays within 25% of cost at 1.
	y1, err := s.YAt(1)
	if err != nil {
		t.Fatal(err)
	}
	y2, _ := s.YAt(2)
	if y2 > y1*1.25 {
		t.Errorf("ext-arith: 2nd addps not hidden (%.2f -> %.2f)", y1, y2)
	}
	// Eventually arithmetic becomes the bottleneck.
	last := s.Points[len(s.Points)-1]
	if last.Y <= y1*1.2 {
		t.Errorf("ext-arith: %v addps (%.2f) never dominated the memory cost (%.2f)", last.X, last.Y, y1)
	}
}

func TestExtPowerRegimes(t *testing.T) {
	_, tab := quickRun(t, "ext-power")
	l1 := tab.Get("L1-bound")
	ram := tab.Get("RAM-bound")
	if l1 == nil || ram == nil {
		t.Fatal("missing series")
	}
	// For the core-bound kernel, higher frequency shortens the run enough
	// that EDP improves (delay dominates); normalized EDP at max frequency
	// must be below 1.
	l1Last := l1.Points[len(l1.Points)-1].Y
	if l1Last >= 1 {
		t.Errorf("ext-power: L1-bound EDP did not improve with frequency (%.2f)", l1Last)
	}
	// For the RAM-bound kernel frequency buys much less: its EDP benefit
	// is smaller than the core-bound one's.
	ramLast := ram.Points[len(ram.Points)-1].Y
	if ramLast <= l1Last {
		t.Errorf("ext-power: RAM-bound EDP (%.2f) should benefit less than L1-bound (%.2f)", ramLast, l1Last)
	}
}
