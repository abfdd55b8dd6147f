package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"microtools/internal/jsonl"
	"microtools/internal/launcher"
	"microtools/internal/obs"
	"microtools/internal/power"
	"microtools/internal/stats"
)

// TestCacheOverlongLineIsSkipped: a line over jsonl.MaxLine is skipped like
// any corrupt line — the entries after it still load, and the next Put
// lands on a line of its own.
func TestCacheOverlongLineIsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	// A well-formed entry padded to jsonl.MaxLine+1 bytes: only the cap
	// keeps it out.
	head, tail := `{"key":"long","measurement":{"Kernel":"`, `"}}`
	long := head + string(bytes.Repeat([]byte("x"), jsonl.MaxLine+1-len(head)-len(tail))) + tail
	if len(long) != jsonl.MaxLine+1 {
		t.Fatalf("overlong line is %d bytes, want %d", len(long), jsonl.MaxLine+1)
	}
	data := `{"key":"before","measurement":{"Kernel":"a","Value":1,"Summary":{"N":1}}}` + "\n" +
		long + "\n" +
		`{"key":"after","measurement":{"Kernel":"b","Value":2,"Summary":{"N":1}}}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatalf("cache with an overlong line must open, got %v", err)
	}
	if c.Len() != 2 {
		t.Errorf("loaded %d entries, want the 2 around the overlong line", c.Len())
	}
	if _, err := c.Put("fresh", &launcher.Measurement{Kernel: "c", Value: 3, Summary: stats.Summary{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, key := range []string{"before", "after", "fresh"} {
		if _, ok := reopened.Get(key); !ok {
			t.Errorf("entry %q lost around an overlong line", key)
		}
	}
	if _, ok := reopened.Get("long"); ok {
		t.Error("the overlong entry loaded")
	}
}

// richMeasurement populates every reference-typed Measurement field and a
// finite and an infinite RCIW, so a round trip exercises each of them.
func richMeasurement() *launcher.Measurement {
	return &launcher.Measurement{
		Kernel:    "rich",
		Value:     1.25,
		Summary:   stats.Summary{N: 3, Min: 1, Max: 2, Mean: 1.5, Median: 1.25, StdDev: 0.4, SampleStdDev: 0.5},
		Stability: stats.Stability{N: 3, Mean: 1.5, CV: 0.2, RCIW: 0.3},
		Arrays:    []uint64{0x1000, 0x2000},
		Adaptive: &launcher.AdaptiveOutcome{
			Plan: launcher.Plan{MinReps: 2, MaxReps: 8, TargetRCIW: 0.05, StableRuns: 1},
			Reps: 3, RCIW: 0.3, StopReason: launcher.StopTarget,
		},
		Counters: &obs.Counters{RetiredInsts: 99, CoreCycles: 120},
		Energy:   &power.Estimate{TotalJoules: 2, AvgWatts: 4},
	}
}

// TestCacheHitsAreCallerOwned pins the hit contract: every Get returns a
// distinct deep copy, mutating one never reaches the cache, and a reloaded
// entry encodes byte-identically to the value Put returned.
func TestCacheHitsAreCallerOwned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	put, err := c.Put("k", richMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(put)
	if err != nil {
		t.Fatal(err)
	}

	a, okA := c.Get("k")
	b, okB := c.Get("k")
	if !okA || !okB {
		t.Fatal("stored entry missed")
	}
	if a == b || a == put || &a.Arrays[0] == &b.Arrays[0] || a.Counters == b.Counters ||
		a.Adaptive == b.Adaptive || a.Energy == b.Energy {
		t.Fatal("two Gets share memory")
	}
	a.Arrays[0]++
	a.Counters.Mem.Loads++
	a.Adaptive.Reps++
	a.Stability.RCIW++
	put.Energy.TotalJoules++
	if next, _ := c.Get("k"); !reflect.DeepEqual(next, b) {
		t.Errorf("mutating a hit reached the cache:\n%+v\nwant\n%+v", next, b)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	m, ok := reopened.Get("k")
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reloaded entry encodes as\n%s\nwant the Put value's\n%s", got, want)
	}
}

// TestCacheEntriesWithoutRepetitionsAreSkipped: a null or {} measurement
// decodes without error into a zero value, which would be a hit with Value
// 0 that ranks first. Such lines load as misses beside the good ones, and
// a warm rerun re-launches exactly their variants.
func TestCacheEntriesWithoutRepetitionsAreSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	cold, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	runSweep(t, Options{Launch: quickLaunch(), Cache: cold})
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 5 || len(lines[4]) != 0 {
		t.Fatalf("cold cache holds %d lines, want 4", len(lines)-1)
	}
	var zeroed []string
	for i, stored := range []string{"null", "{}", `{"Kernel":"k","Value":0}`} {
		var e cacheEntry
		if err := json.Unmarshal(lines[i], &e); err != nil {
			t.Fatal(err)
		}
		zeroed = append(zeroed, e.Key)
		lines[i] = []byte(`{"key":"` + e.Key + `","measurement":` + stored + "}\n")
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Len() != 1 {
		t.Fatalf("loaded %d entries, want only the 1 good one", warm.Len())
	}
	for _, key := range zeroed {
		if m, ok := warm.Get(key); ok {
			t.Errorf("entry %s without repetitions is a hit: %+v", key, m)
		}
	}
	res := runSweep(t, Options{Launch: quickLaunch(), Cache: warm})
	if res.Launches != len(zeroed) || res.CacheHits != 4-len(zeroed) {
		t.Errorf("warm rerun: %d launches, %d hits; want %d and %d",
			res.Launches, res.CacheHits, len(zeroed), 4-len(zeroed))
	}
}
