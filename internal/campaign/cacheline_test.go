package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/memsim"
	"microtools/internal/obs"
	"microtools/internal/power"
	"microtools/internal/stats"
)

// referenceEntry is the cache line and canonical value Put made before
// the one-pass encoder: encoding/json marshals the measurement, decodes
// the canonical value back out of those bytes, and marshals the line
// around them. entry must agree with it on every input.
func referenceEntry(key string, m *launcher.Measurement) ([]byte, *launcher.Measurement, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: measurement not cacheable: %w", err)
	}
	var canon launcher.Measurement
	if err := json.Unmarshal(raw, &canon); err != nil {
		return nil, nil, fmt.Errorf("campaign: measurement does not round-trip: %w", err)
	}
	line, err := json.Marshal(cacheEntry{Key: key, Measurement: raw})
	if err != nil {
		return nil, nil, err
	}
	return append(line, '\n'), &canon, nil
}

// sameBits reports whether a and b hold the same value bit for bit:
// floats by their IEEE bits (so -0 ≠ 0 and NaN = NaN), slices by nil-ness
// as well as elements, pointers by what they point to.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// checkEntry fails unless entry gives key and m the reference's line
// bytes, canonical value and error text, leaves m as it was, and hands
// back a held and a returned value that share no memory.
func checkEntry(t *testing.T, key string, m *launcher.Measurement) {
	t.Helper()
	before := m.Clone()
	wantLine, wantCanon, wantErr := referenceEntry(key, m.Clone())
	line, held, out, err := entry(nil, key, m)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, want %v", m.Kernel, err, wantErr)
	}
	if !sameBits(reflect.ValueOf(m), reflect.ValueOf(before)) {
		t.Fatalf("%q: entry changed its input to %+v", m.Kernel, m)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(line, wantLine) {
		t.Fatalf("%q: line\n%s\nwant\n%s", m.Kernel, line, wantLine)
	}
	for name, v := range map[string]*launcher.Measurement{"held": held, "returned": out} {
		if !sameBits(reflect.ValueOf(v), reflect.ValueOf(wantCanon)) {
			t.Fatalf("%q: %s value\n%+v\nwant\n%+v", m.Kernel, name, v, wantCanon)
		}
	}
	if held == out || held.Adaptive != nil && held.Adaptive == out.Adaptive ||
		held.Counters != nil && held.Counters == out.Counters ||
		held.Energy != nil && held.Energy == out.Energy ||
		len(held.Arrays) > 0 && &held.Arrays[0] == &out.Arrays[0] {
		t.Fatalf("%q: held and returned values share memory", m.Kernel)
	}
}

// lineFloats lists every float the cache line encodes; m must carry
// Adaptive and Energy blocks.
func lineFloats(m *launcher.Measurement) []*float64 {
	return []*float64{
		&m.Value, &m.ValuePerElement, &m.OverheadCycles, &m.StaticBound,
		&m.Summary.Min, &m.Summary.Max, &m.Summary.Mean, &m.Summary.Median,
		&m.Summary.StdDev, &m.Summary.SampleStdDev,
		&m.Stability.Mean, &m.Stability.CV, &m.Stability.RCIW,
		&m.Adaptive.Plan.TargetRCIW, &m.Adaptive.RCIW,
		&m.Energy.DynamicJoules, &m.Energy.StaticJoules, &m.Energy.TotalJoules,
		&m.Energy.AvgWatts, &m.Energy.EnergyDelayProduct,
	}
}

// lineFixture builds a measurement whose optional blocks are picked by
// flags: bit 0 attaches Adaptive, bit 1 Counters, bit 2 Energy, bits 3-4
// choose Arrays (nil, empty, one, two addresses), bits 5-6 the mode, bit
// 7 the unit, bit 8 Truncated. Float j of lineFloats takes
// vals[(j+rot)%len(vals)].
func lineFixture(kernel, stop string, vals []float64, rot int, flags uint16) *launcher.Measurement {
	m := &launcher.Measurement{
		Kernel:     kernel,
		Mode:       launcher.Mode(flags >> 5 & 3),
		Cores:      int(flags>>9) - 8,
		Unit:       launcher.TimeUnit(flags >> 7 & 1),
		Summary:    stats.Summary{N: int(flags>>10) + 1},
		Stability:  stats.Stability{N: int(flags >> 11)},
		Iterations: uint64(flags) << 48,
		Truncated:  flags>>8&1 == 1,
		Adaptive: &launcher.AdaptiveOutcome{
			Plan:       launcher.Plan{MinReps: 2, MaxReps: int(flags), StableRuns: -1},
			Reps:       int(flags >> 4),
			StopReason: stop,
		},
		Energy: &power.Estimate{},
	}
	for j, p := range lineFloats(m) {
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
			Mem:          memsim.Stats{Loads: n * 3, L1Hits: n, L1Misses: n * 2, L3Misses: -n, BytesFromMemory: 1 << 40, RowMisses: math.MaxInt64},
			RetiredInsts: n >> 2, Branches: n >> 3, BranchMispredicts: n >> 5,
			InterruptStallCycles: math.MinInt64, CoreCycles: n >> 1,
		}
	}
	m.MemStats = memsim.Stats{Stores: int64(flags), Writebacks: -1, MSHRFullWaits: 7}
	if flags&4 == 0 {
		m.Energy = nil
	}
	return m
}

// lineStrings exercises every string path: plain ASCII, HTML specials,
// quotes and backslashes, control bytes, non-ASCII, the JSONP line
// separators and invalid UTF-8.
var lineStrings = []string{
	"movaps_u4", "", "a<b>&c", `quo"te\back`, "tab\tnl\nnul\x00", "del\x7f",
	"ünïcode_ж", "sep\u2028\u2029", "bad\xff\xfeutf8", "trunc\xe2\x82",
}

// TestCacheLineMatchesReference pins entry to the reference over every
// optional-block combination, every string class in the kernel and the
// stop reason, and ±0, subnormal, 1e-7, 1e21, ±Inf and NaN values in
// every float field, rciw included.
func TestCacheLineMatchesReference(t *testing.T) {
	normal := []float64{1.5}
	for flags := uint16(0); flags < 1<<9; flags++ {
		kernel := lineStrings[int(flags)%len(lineStrings)]
		stop := lineStrings[int(flags/3)%len(lineStrings)]
		checkEntry(t, kernel, lineFixture(kernel, stop, normal, 0, flags))
	}
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 1e-7, 1e-6, 1e21, 1e20, -123456.789, math.MaxFloat64, 1.25,
	}
	for j := range lineFloats(lineFixture("", "", normal, 0, 0x1ff)) {
		for _, v := range specials {
			m := lineFixture("k", launcher.StopTarget, normal, 0, 0x1ff)
			*lineFloats(m)[j] = v
			checkEntry(t, "key", m)
		}
	}
	for i := range specials {
		checkEntry(t, "key", lineFixture("k", launcher.StopBudget, specials, i, uint16(i*37)))
	}
}

// TestCacheLineSpecCorpus measures every variant of every shipped spec
// cold, with counters, with the adaptive planner and with an energy
// estimate, and checks each launcher result's line and canonical value
// against the reference. One corpus also goes through a file-backed Put:
// the file must hold exactly the reference lines.
func TestCacheLineSpecCorpus(t *testing.T) {
	specs, err := filepath.Glob("../../specs/*.xml")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	adaptive := quickLaunch()
	adaptive.OuterReps = 4
	configs := []struct {
		name   string
		launch launcher.Options
	}{
		{"counters", hooked(quickLaunch(), launcher.WithCounters())},
		{"adaptive", hooked(adaptive, launcher.WithAdaptive(launcher.Plan{MinReps: 2, MaxReps: 4, TargetRCIW: 0.05}))},
		{"energy", hooked(quickLaunch(), launcher.WithEnergy())},
	}
	for _, spec := range specs {
		progs, err := core.GenerateFile(context.Background(), spec, core.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			res, err := RunPrograms(context.Background(), progs, Options{Launch: cfg.launch})
			if err != nil {
				t.Fatalf("%s %s: %v", spec, cfg.name, err)
			}
			ms := res.Measurements()
			if len(ms) != len(progs) {
				t.Fatalf("%s %s: %d measurements for %d variants", spec, cfg.name, len(ms), len(progs))
			}
			for i, m := range ms {
				checkEntry(t, fmt.Sprintf("%s/%s/%d", spec, cfg.name, i), m)
			}
		}
	}

	// The stored file is the reference lines, in Put order.
	progs, err := core.GenerateFile(context.Background(), "../../specs/stencil3.xml", core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPrograms(context.Background(), progs, Options{Launch: hooked(adaptive, launcher.WithCounters(), launcher.WithEnergy())})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, m := range res.Measurements() {
		key := fmt.Sprint(i)
		line, _, err := referenceEntry(key, m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
		if _, err := c.Put(key, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stored file\n%s\nwant\n%s", got, want)
	}
}

// FuzzCacheLine checks entry against the reference on fuzzed kernel names,
// stop reasons, float values (rciw included) and block combinations.
func FuzzCacheLine(f *testing.F) {
	f.Add("movaps_u4", "target", 1.25, 0.3125, 30.0, math.Inf(1), uint16(0x1ff))
	f.Add("", "", math.NaN(), math.Inf(1), math.Inf(-1), 0.0, uint16(0))
	f.Add("a<b>&c\x00", "st\"op", 1e-7, 1e21, -0.0, math.MaxFloat64, uint16(0x0a))
	f.Add("bad\xff", "ünï\u2028", 5e-324, -1e300, 12345.678, 1.0, uint16(0x1f))
	f.Fuzz(func(t *testing.T, kernel, stop string, a, b, c, d float64, flags uint16) {
		vals := []float64{a, b, c, d}
		for rot := range vals {
			checkEntry(t, stop, lineFixture(kernel, stop, vals, rot, flags+uint16(rot)*0x55))
		}
	})
}
