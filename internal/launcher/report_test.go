package launcher

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"microtools/internal/memsim"
	"microtools/internal/obs"
	"microtools/internal/power"
	"microtools/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenMeasurements is a deterministic fixture covering both the
// Energy/Counters-attached and the bare paths, plus a degenerate all-zero
// summary whose cv is NaN.
func goldenMeasurements() []*Measurement {
	full := &Measurement{
		Kernel:          "movaps_u4",
		Mode:            Sequential,
		Cores:           1,
		Value:           1.25,
		Unit:            UnitTSC,
		Summary:         stats.Summarize([]float64{1.25, 1.5, 1.75, 1.25}),
		Iterations:      4096,
		ValuePerElement: 0.3125,
		OverheadCycles:  30,
		Arrays:          []uint64{0x7f0000000000},
		MemStats: memsim.Stats{
			Loads: 16384, L1Hits: 16320, L1Misses: 64,
			L2Hits: 32, L2Misses: 32, L3Hits: 24, L3Misses: 8,
			MemAccesses: 8, BytesFromMemory: 512,
		},
		Counters: &obs.Counters{
			Mem: memsim.Stats{
				Loads: 16384, L1Hits: 16320, L1Misses: 64,
				L2Hits: 32, L2Misses: 32, L3Hits: 24, L3Misses: 8,
				MemAccesses: 8, BytesFromMemory: 512,
			},
			RetiredInsts:        81920,
			Branches:            16384,
			BranchMispredicts:   16,
			FrontendStallCycles: 512,
			CoreCycles:          20480,
		},
		Energy: &power.Estimate{TotalJoules: 0.0125, AvgWatts: 62.5},
	}
	bare := &Measurement{
		Kernel:  "calibration_like",
		Mode:    Fork,
		Cores:   2,
		Value:   0,
		Unit:    UnitCoreCycles,
		Summary: stats.Summarize([]float64{0, 0, 0}),
	}
	return []*Measurement{full, bare}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestJSONReportGolden pins the JSON report schema.
func TestJSONReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenMeasurements()); err != nil {
		t.Fatal(err)
	}
	// The report must always be valid JSON, NaN statistics included.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	checkGolden(t, "report_golden.json", buf.Bytes())
}

// TestCSVGolden pins the CSV output for both the Energy != nil and nil
// paths (previously only exercised indirectly via energy_test.go).
func TestCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, goldenMeasurements()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "csv_golden.csv", buf.Bytes())
}

// TestCSVNaNRendering: NaN/Inf statistics must render as empty cells, not
// "NaN", which breaks downstream parsers. Summary.CV guards the zero-mean
// case itself, so the fixture injects non-finite values directly — the
// formatter must be robust no matter which statistic degenerates.
func TestCSVNaNRendering(t *testing.T) {
	m := &Measurement{
		Kernel: "zeros",
		Mode:   Sequential,
		Cores:  1,
		Unit:   UnitTSC,
		Value:  math.NaN(),
		Summary: stats.Summary{
			N: 2, Min: math.Inf(-1), Max: math.Inf(1),
			Mean: math.NaN(), Median: 0, StdDev: math.NaN(),
		},
	}
	if cv := m.Summary.CV(); cv == cv { // NaN != NaN
		t.Fatalf("fixture cv = %f, expected NaN", cv)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Measurement{m}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		if strings.Contains(out, bad) {
			t.Errorf("CSV output contains %q:\n%s", bad, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d CSV lines, want 2", len(lines))
	}
	fields := strings.Split(lines[1], ",")
	header := strings.Split(lines[0], ",")
	if len(fields) != len(header) {
		t.Fatalf("row has %d fields, header %d", len(fields), len(header))
	}
	cvIdx := -1
	for i, h := range header {
		if h == "cv" {
			cvIdx = i
		}
	}
	if cvIdx < 0 || fields[cvIdx] != "" {
		t.Errorf("cv cell = %q, want empty", fields[cvIdx])
	}
}

// TestReportFormatParsing covers the -report flag surface.
func TestReportFormatParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ReportFormat
	}{{"csv", ReportCSV}, {"json", ReportJSON}} {
		got, err := ParseReportFormat(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseReportFormat(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseReportFormat("xml"); err == nil {
		t.Error("ParseReportFormat accepted xml")
	}
}

// TestWriteReportDispatch: WriteReport routes to the right encoder.
func TestWriteReportDispatch(t *testing.T) {
	ms := goldenMeasurements()
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteReport(&csvBuf, ReportCSV, ms); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&jsonBuf, ReportJSON, ms); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "kernel,") {
		t.Errorf("csv dispatch output = %q", csvBuf.String()[:40])
	}
	if !strings.Contains(jsonBuf.String(), `"measurements"`) {
		t.Error("json dispatch output missing measurements")
	}
}

// The reference encoder: the report's historical struct shape run through
// encoding/json with a two-space indent. WriteJSON appends its bytes
// directly; these types are the oracle it must match byte for byte.

// jsonFloat marshals NaN/Inf as null (encoding/json rejects them).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

type reportSummary struct {
	N            int       `json:"n"`
	Min          jsonFloat `json:"min"`
	Median       jsonFloat `json:"median"`
	Mean         jsonFloat `json:"mean"`
	Max          jsonFloat `json:"max"`
	StdDev       jsonFloat `json:"stddev"`
	SampleStdDev jsonFloat `json:"sample_stddev"`
	CV           jsonFloat `json:"cv"`
	RCIW         jsonFloat `json:"rciw"`
}

type reportAdaptive struct {
	MinReps      int       `json:"min_reps"`
	MaxReps      int       `json:"max_reps"`
	TargetRCIW   jsonFloat `json:"target_rciw"`
	StableRuns   int       `json:"stable_runs"`
	Reps         int       `json:"reps"`
	AchievedRCIW jsonFloat `json:"achieved_rciw"`
	StopReason   string    `json:"stop_reason"`
}

type reportDerived struct {
	CPI            jsonFloat `json:"cycles_per_inst"`
	IPC            jsonFloat `json:"insts_per_cycle"`
	L1HitRate      jsonFloat `json:"l1_hit_rate"`
	L1MPKI         jsonFloat `json:"l1_mpki"`
	L2MPKI         jsonFloat `json:"l2_mpki"`
	L3MPKI         jsonFloat `json:"l3_mpki"`
	MispredictRate jsonFloat `json:"mispredict_rate"`
}

type reportCounters struct {
	*obs.Counters
	Derived reportDerived `json:"derived"`
}

type reportEnergy struct {
	TotalJoules jsonFloat `json:"total_joules"`
	AvgWatts    jsonFloat `json:"avg_watts"`
}

type reportEntry struct {
	Kernel          string          `json:"kernel"`
	Mode            string          `json:"mode"`
	Cores           int             `json:"cores"`
	Unit            string          `json:"unit"`
	Value           jsonFloat       `json:"value"`
	ValuePerElement jsonFloat       `json:"value_per_element,omitempty"`
	Summary         reportSummary   `json:"summary"`
	Iterations      uint64          `json:"iterations"`
	OverheadCycles  jsonFloat       `json:"overhead_cycles"`
	StaticBound     jsonFloat       `json:"static_bound,omitempty"`
	Truncated       bool            `json:"truncated"`
	Arrays          []uint64        `json:"arrays,omitempty"`
	Adaptive        *reportAdaptive `json:"adaptive,omitempty"`
	Counters        *reportCounters `json:"counters,omitempty"`
	Energy          *reportEnergy   `json:"energy,omitempty"`
}

type jsonReport struct {
	Version      int           `json:"version"`
	Measurements []reportEntry `json:"measurements"`
}

// referenceJSON encodes ms through the reference types.
func referenceJSON(ms []*Measurement) ([]byte, error) {
	doc := jsonReport{Version: 1, Measurements: make([]reportEntry, 0, len(ms))}
	for _, m := range ms {
		e := reportEntry{
			Kernel:          m.Kernel,
			Mode:            m.Mode.String(),
			Cores:           m.Cores,
			Unit:            m.Unit.String(),
			Value:           jsonFloat(m.Value),
			ValuePerElement: jsonFloat(m.ValuePerElement),
			Summary: reportSummary{
				N:            m.Summary.N,
				Min:          jsonFloat(m.Summary.Min),
				Median:       jsonFloat(m.Summary.Median),
				Mean:         jsonFloat(m.Summary.Mean),
				Max:          jsonFloat(m.Summary.Max),
				StdDev:       jsonFloat(m.Summary.StdDev),
				SampleStdDev: jsonFloat(m.Summary.SampleStdDev),
				CV:           jsonFloat(m.Summary.CV()),
				RCIW:         jsonFloat(m.Summary.RCIW()),
			},
			Iterations:     m.Iterations,
			OverheadCycles: jsonFloat(m.OverheadCycles),
			StaticBound:    jsonFloat(m.StaticBound),
			Truncated:      m.Truncated,
			Arrays:         m.Arrays,
		}
		if a := m.Adaptive; a != nil {
			e.Adaptive = &reportAdaptive{
				MinReps:      a.Plan.MinReps,
				MaxReps:      a.Plan.MaxReps,
				TargetRCIW:   jsonFloat(a.Plan.TargetRCIW),
				StableRuns:   a.Plan.StableRuns,
				Reps:         a.Reps,
				AchievedRCIW: jsonFloat(a.RCIW),
				StopReason:   a.StopReason,
			}
		}
		if c := m.Counters; c != nil {
			e.Counters = &reportCounters{
				Counters: c,
				Derived: reportDerived{
					CPI:            jsonFloat(c.CPI()),
					IPC:            jsonFloat(c.IPC()),
					L1HitRate:      jsonFloat(c.L1HitRate()),
					L1MPKI:         jsonFloat(c.L1MPKI()),
					L2MPKI:         jsonFloat(c.L2MPKI()),
					L3MPKI:         jsonFloat(c.L3MPKI()),
					MispredictRate: jsonFloat(c.MispredictRate()),
				},
			}
		}
		if en := m.Energy; en != nil {
			e.Energy = &reportEnergy{
				TotalJoules: jsonFloat(en.TotalJoules),
				AvgWatts:    jsonFloat(en.AvgWatts),
			}
		}
		doc.Measurements = append(doc.Measurements, e)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}

// checkReportMatchesReference fails unless WriteJSON and the reference
// encoder produce the same bytes for ms.
func checkReportMatchesReference(t *testing.T, ms []*Measurement) {
	t.Helper()
	want, err := referenceJSON(ms)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, ms); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from the reference encoder\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}

// floatFields lists every float the report encodes directly (the derived
// cv, rciw and counter metrics are computed from these and the counts);
// m must carry Adaptive and Energy blocks.
func floatFields(m *Measurement) []*float64 {
	return []*float64{
		&m.Value, &m.ValuePerElement, &m.OverheadCycles, &m.StaticBound,
		&m.Summary.Min, &m.Summary.Median, &m.Summary.Mean, &m.Summary.Max,
		&m.Summary.StdDev, &m.Summary.SampleStdDev,
		&m.Adaptive.Plan.TargetRCIW, &m.Adaptive.RCIW,
		&m.Energy.TotalJoules, &m.Energy.AvgWatts,
	}
}

// reportFixture builds a measurement whose optional blocks and field
// values are picked by flags and vals: bit 0 attaches Adaptive, bit 1
// Counters, bit 2 Energy, bits 3-4 choose Arrays (nil, empty, one, two
// addresses), bits 5-6 the mode, bit 7 the unit, bit 8 Truncated. Float
// field j takes vals[(j+rot)%len(vals)].
func reportFixture(kernel, stop string, vals []float64, rot int, flags uint16) *Measurement {
	m := &Measurement{
		Kernel:     kernel,
		Mode:       Mode(flags >> 5 & 3),
		Cores:      int(flags>>9) - 8,
		Unit:       TimeUnit(flags >> 7 & 1),
		Summary:    stats.Summary{N: int(flags >> 10)},
		Iterations: uint64(flags) << 48,
		Truncated:  flags>>8&1 == 1,
		Adaptive: &AdaptiveOutcome{
			Plan:       Plan{MinReps: 2, MaxReps: int(flags), StableRuns: 1},
			Reps:       int(flags >> 4),
			StopReason: stop,
		},
		Energy: &power.Estimate{},
	}
	for j, p := range floatFields(m) {
		*p = vals[(j+rot)%len(vals)]
	}
	switch flags >> 3 & 3 {
	case 1:
		m.Arrays = []uint64{}
	case 2:
		m.Arrays = []uint64{0x7f0000000000}
	case 3:
		m.Arrays = []uint64{0, math.MaxUint64}
	}
	if flags&1 == 0 {
		m.Adaptive = nil
	}
	if flags&2 != 0 {
		n := int64(flags)
		m.Counters = &obs.Counters{
			Mem:          memsim.Stats{Loads: n * 3, L1Hits: n, L1Misses: n * 2, L3Misses: -n, BytesFromMemory: 1 << 40},
			RetiredInsts: n >> 2, Branches: n >> 3, BranchMispredicts: n >> 5,
			InterruptStallCycles: math.MinInt64, CoreCycles: n >> 1,
		}
	}
	if flags&4 == 0 {
		m.Energy = nil
	}
	return m
}

// reportKernelNames exercises every string path: plain ASCII, HTML
// specials, quotes and backslashes, control bytes, non-ASCII, the JSONP
// line separators and invalid UTF-8.
var reportKernelNames = []string{
	"movaps_u4", "", "a<b>&c", `quo"te\back`, "tab\tnl\nnul\x00", "del\x7f",
	"ünïcode_ж", "sep\u2028\u2029", "bad\xff\xfeutf8", "trunc\xe2\x82",
}

// TestReportJSONMatchesReference pins WriteJSON to the reference encoder
// over every optional-block combination, every string class, and NaN,
// ±Inf, ±0, tiny and huge values in every directly encoded float field.
func TestReportJSONMatchesReference(t *testing.T) {
	checkReportMatchesReference(t, nil)
	checkReportMatchesReference(t, []*Measurement{})
	checkReportMatchesReference(t, goldenMeasurements())
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 1e-7, 1e21, 1e20, -123456.789, math.MaxFloat64, 1.25,
	}
	normal := []float64{1.5}
	for flags := uint16(0); flags < 1<<9; flags++ {
		name := reportKernelNames[int(flags)%len(reportKernelNames)]
		checkReportMatchesReference(t, []*Measurement{reportFixture(name, name, normal, 0, flags)})
	}
	for j := range floatFields(reportFixture("", "", normal, 0, 7)) {
		for _, v := range specials {
			m := reportFixture("k", "target", normal, 0, 0x1ff)
			*floatFields(m)[j] = v
			checkReportMatchesReference(t, []*Measurement{m})
		}
	}
	ms := make([]*Measurement, 0, len(specials))
	for i := range specials {
		ms = append(ms, reportFixture(reportKernelNames[i%len(reportKernelNames)], "budget", specials, i, uint16(i*37)))
	}
	checkReportMatchesReference(t, ms)
}

// FuzzReportJSON checks WriteJSON against the reference encoder on
// fuzzed names, float values and block combinations, byte for byte.
func FuzzReportJSON(f *testing.F) {
	f.Add("movaps_u4", "target", 1.25, 0.3125, 30.0, 0.05, uint8(1), uint16(0x1ff))
	f.Add("", "", math.NaN(), math.Inf(1), math.Inf(-1), 0.0, uint8(0), uint16(0))
	f.Add("a<b>&c\x00", "st op", 1e-7, 1e21, -0.0, math.MaxFloat64, uint8(3), uint16(0x0a))
	f.Add("bad\xff", "ünï", 5e-324, -1e300, 12345.678, 1.0, uint8(2), uint16(0x1f))
	f.Fuzz(func(t *testing.T, kernel, stop string, a, b, c, d float64, n uint8, flags uint16) {
		vals := []float64{a, b, c, d}
		ms := make([]*Measurement, 0, n%4)
		for i := 0; i < int(n%4); i++ {
			ms = append(ms, reportFixture(kernel, stop, vals, i, flags+uint16(i)*0x55))
		}
		checkReportMatchesReference(t, ms)
	})
}
