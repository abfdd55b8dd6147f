package campaign

// The adaptive suite asserts the μOpTime planner contract end to end:
// same-seed adaptive sweeps are bit-identical across worker counts, the
// saved repetition budget is re-granted deterministically to the variants
// whose RCIW missed target, warm adaptive re-runs replay the whole
// two-pass schedule without a single launch, and the fixed-budget path
// (nil plan) is untouched — cache keys included.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/launcher"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// adaptiveLaunch is quickLaunch with a real outer budget for the planner
// to save from.
func adaptiveLaunch() launcher.Options {
	opts := quickLaunch()
	opts.OuterReps = 4
	return opts
}

// noisyLaunch enables the simulated interrupt noise so repetitions differ
// and the RCIW stays finite nonzero — the regime the top-up pass exists
// for.
func noisyLaunch(seed int64) launcher.Options {
	opts := adaptiveLaunch()
	opts.OuterReps = 6
	opts.DisableInterrupts = false
	opts.NoiseSeed = seed
	// Long enough runs for the interrupt model (one every ~40k cycles) to
	// actually land inside the measured region: big cold arrays, no
	// warmup, no instruction cap.
	opts.ArrayBytes = 1 << 16
	opts.InnerReps = 2
	opts.MaxInstructions = 0
	opts.Warmup = false
	return opts
}

func TestAdaptiveSweepSavesRepsDeterministically(t *testing.T) {
	counters := telemetry.NewRegistry()
	res := runSweep(t, Options{
		Launch: metered(planned(adaptiveLaunch(), launcher.Plan{}), counters),
	})
	if res.Emitted != 4 || res.Failures != 0 {
		t.Fatalf("emitted=%d failures=%d", res.Emitted, res.Failures)
	}
	// Deterministic sim, min statistic: every variant stops at the floor
	// of 2 reps out of 4 — half the budget saved, no variant missing the
	// (trivially met) RCIW target of an identical-sample run.
	for _, r := range res.Results {
		a := r.Measurement.Adaptive
		if a == nil {
			t.Fatalf("variant %s has no adaptive outcome", r.Name)
		}
		if a.Reps != 2 || a.StopReason != launcher.StopStable {
			t.Errorf("variant %s: reps=%d stop=%q, want 2/stable", r.Name, a.Reps, a.StopReason)
		}
	}
	if res.RepsSaved != 8 || res.RepsExecuted != 8 || res.RepsTopUp != 0 || res.TargetMisses != 0 {
		t.Errorf("accounting saved=%d executed=%d topup=%d misses=%d, want 8/8/0/0",
			res.RepsSaved, res.RepsExecuted, res.RepsTopUp, res.TargetMisses)
	}
	if got := counters.Counter("campaign.reps.saved").Value(); got != 8 {
		t.Errorf("campaign.reps.saved = %d, want 8", got)
	}
	// The ISSUE acceptance bar: >= 25% of the fixed budget saved.
	budget := res.Emitted * 4
	if res.RepsExecuted*4 > budget*3 {
		t.Errorf("adaptive executed %d of %d budgeted reps: saved under 25%%", res.RepsExecuted, budget)
	}

	// The adaptive value equals the fixed-budget value: early stopping
	// trades repetitions, never the reported statistic.
	fixed := runSweep(t, Options{Launch: adaptiveLaunch()})
	for i := range res.Results {
		if res.Results[i].Measurement.Value != fixed.Results[i].Measurement.Value {
			t.Errorf("variant %s: adaptive value %v != fixed %v", res.Results[i].Name,
				res.Results[i].Measurement.Value, fixed.Results[i].Measurement.Value)
		}
	}
	if fixed.RepsSaved != 0 || fixed.Results[0].Measurement.Adaptive != nil {
		t.Error("fixed-budget run grew adaptive state")
	}
}

func TestAdaptiveBitIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Result {
		return runSweep(t, Options{
			Launch:  planned(noisyLaunch(11), launcher.Plan{TargetRCIW: 1e-9}),
			Workers: workers,
		})
	}
	base := run(1)
	baseCSV := csvOf(t, base)
	if base.RepsSaved == 0 {
		t.Fatal("noisy adaptive sweep saved nothing; the top-up path went unexercised")
	}
	if base.RepsTopUp == 0 {
		t.Fatal("no top-up reps granted despite every variant missing the 1e-9 target")
	}
	for _, workers := range []int{2, 4, 8} {
		res := run(workers)
		if csv := csvOf(t, res); csv != baseCSV {
			t.Errorf("workers=%d diverged from serial:\n%s\nvs\n%s", workers, csv, baseCSV)
		}
		if res.RepsSaved != base.RepsSaved || res.RepsTopUp != base.RepsTopUp || res.TargetMisses != base.TargetMisses {
			t.Errorf("workers=%d accounting (%d,%d,%d) != serial (%d,%d,%d)", workers,
				res.RepsSaved, res.RepsTopUp, res.TargetMisses,
				base.RepsSaved, base.RepsTopUp, base.TargetMisses)
		}
	}
}

func TestAdaptiveTopUpGrantsSavedBudget(t *testing.T) {
	counters := telemetry.NewRegistry()
	res := runSweep(t, Options{
		Launch: metered(planned(noisyLaunch(5), launcher.Plan{TargetRCIW: 1e-9}), counters),
	})
	if res.Failures != 0 {
		t.Fatalf("failures: %v", res.Err())
	}
	if res.RepsSaved == 0 || res.RepsTopUp == 0 {
		t.Fatalf("saved=%d topup=%d: want both positive", res.RepsSaved, res.RepsTopUp)
	}
	if got := counters.Counter("campaign.reps.saved").Value(); got != int64(res.RepsSaved) {
		t.Errorf("campaign.reps.saved = %d, Result.RepsSaved = %d", got, res.RepsSaved)
	}
	if got := counters.Counter("campaign.reps.topup").Value(); got != int64(res.RepsTopUp) {
		t.Errorf("campaign.reps.topup = %d, Result.RepsTopUp = %d", got, res.RepsTopUp)
	}
	// The grant is the even split of the saved budget, and a topped-up
	// variant's realized reps never exceed its derived ceiling.
	extra := res.RepsSaved / res.Emitted
	for _, r := range res.Results {
		a := r.Measurement.Adaptive
		if a == nil {
			t.Fatalf("variant %s lost its adaptive outcome in the top-up", r.Name)
		}
		if a.Reps > 6+extra {
			t.Errorf("variant %s ran %d reps, above the derived ceiling", r.Name, a.Reps)
		}
		if r.Stability != stabilityFor(r.Measurement, nil) {
			t.Errorf("variant %s stability not refreshed after top-up", r.Name)
		}
	}
	// An unreachable target keeps every variant in the miss column even
	// after the grant — the report must say so rather than overclaim.
	if res.TargetMisses != res.Emitted {
		t.Errorf("TargetMisses = %d, want all %d under a 1e-9 target", res.TargetMisses, res.Emitted)
	}
}

func TestAdaptiveWarmRerunPerformsZeroLaunches(t *testing.T) {
	for _, tc := range []struct {
		name   string
		launch launcher.Options
	}{
		{"deterministic", adaptiveLaunch()},
		{"noisy with top-up", noisyLaunch(23)},
	} {
		cache := NewMemoryCache()
		plan := launcher.Plan{TargetRCIW: 0.05}
		if tc.name != "deterministic" {
			plan.TargetRCIW = 1e-9
		}
		launch := planned(tc.launch, plan)
		cold := runSweep(t, Options{Launch: launch, Cache: cache})
		warmCounters := telemetry.NewRegistry()
		warm := runSweep(t, Options{Launch: metered(launch, warmCounters), Cache: cache})
		if got := warmCounters.Counter("campaign.launches").Value(); got != 0 {
			t.Errorf("%s: warm adaptive rerun performed %d launches, want 0", tc.name, got)
		}
		if warm.RepsExecuted != 0 {
			t.Errorf("%s: warm rerun reports %d executed reps, want 0", tc.name, warm.RepsExecuted)
		}
		if coldCSV, warmCSV := csvOf(t, cold), csvOf(t, warm); coldCSV != warmCSV {
			t.Errorf("%s: warm adaptive rerun diverged:\n%s\nvs\n%s", tc.name, warmCSV, coldCSV)
		}
		for i := range warm.Results {
			if warm.Results[i].Stability != cold.Results[i].Stability {
				t.Errorf("%s: variant %s stability flipped on the warm path", tc.name, warm.Results[i].Name)
			}
		}
	}
}

// TestAdaptiveCacheKeyDimension pins the cache-key policy: a nil plan
// keeps the historical key (TestKeyerMatchesStreamedRecipe pins the exact
// bytes), a resolved plan is a key dimension, and different plans key
// differently.
func TestAdaptiveCacheKeyDimension(t *testing.T) {
	prog, err := core.LoadKernel(kernelAsm("k", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	fixed := adaptiveLaunch()
	kFixed, err := Key(prog, fixed)
	if err != nil {
		t.Fatal(err)
	}
	planned := fixed
	p1 := launcher.Plan{}.Resolve(fixed.OuterReps)
	planned.Adaptive = &p1
	kPlanned, err := Key(prog, planned)
	if err != nil {
		t.Fatal(err)
	}
	if kPlanned == kFixed {
		t.Error("armed plan did not change the cache key")
	}
	other := fixed
	p2 := launcher.Plan{TargetRCIW: 0.01}.Resolve(fixed.OuterReps)
	other.Adaptive = &p2
	if kOther, _ := Key(prog, other); kOther == kPlanned {
		t.Error("different plans share a cache key")
	}
	// The realized repetition count is NOT a key dimension: only the plan
	// is marshaled into the option JSON.
	raw, err := json.Marshal(planned)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["Adaptive"]; !ok {
		t.Error("armed plan absent from the option JSON")
	}
	rawNil, err := json.Marshal(fixed)
	if err != nil {
		t.Fatal(err)
	}
	var decodedNil map[string]any
	if err := json.Unmarshal(rawNil, &decodedNil); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodedNil["Adaptive"]; ok {
		t.Error("nil plan leaks into the option JSON: pre-adaptive caches would go cold")
	}
}

// TestStabilityBackfillIsVersioned simulates a cache written before the
// launcher stored the Stability field: the warm run must backfill with the
// LEGACY formula generation (the contract those entries were written
// under), count every backfill, and never flip a stored RCIW to the new
// formula's value.
func TestStabilityBackfillIsVersioned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.jsonl")
	coldCache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := runSweep(t, Options{Launch: quickLaunch(), Cache: coldCache})
	if err := coldCache.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip the Stability field from every line of the file, recreating
	// the pre-field on-disk shape, and load it through OpenCache.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var legacy []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(e.Measurement, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["Stability"]; !ok {
			t.Fatalf("entry %s stored no Stability field", e.Key)
		}
		delete(fields, "Stability")
		if e.Measurement, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		stripped, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(append(legacy, stripped...), '\n')
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	if cache.Len() != 4 {
		t.Fatalf("pre-field cache loaded %d entries, want 4", cache.Len())
	}

	counters := telemetry.NewRegistry()
	warm := runSweep(t, Options{Launch: metered(quickLaunch(), counters), Cache: cache})
	if got := counters.Counter("campaign.launches").Value(); got != 0 {
		t.Fatalf("stripped entries missed the cache: %d launches", got)
	}
	if got := counters.Counter("campaign.stability.backfilled").Value(); got != 4 {
		t.Errorf("campaign.stability.backfilled = %d, want 4", got)
	}
	for i, r := range warm.Results {
		want := stats.LegacyStabilityOf(r.Measurement.Summary)
		if r.Stability != want {
			t.Errorf("variant %s backfilled %+v, want the legacy generation %+v", r.Name, r.Stability, want)
		}
		// OuterReps is 1 here: the legacy generation reports 0, the current
		// one +Inf — the backfill must keep what those readers always saw.
		if r.Stability.RCIW != 0 {
			t.Errorf("variant %s: backfilled RCIW = %v, want the legacy 0", r.Name, r.Stability.RCIW)
		}
		// The cold run (which stored the field) is the other generation.
		if cold.Results[i].Stability.N != 1 {
			t.Errorf("cold variant %s stored stability n=%d", cold.Results[i].Name, cold.Results[i].Stability.N)
		}
	}
}

// TestChaosAdaptiveRecoversBitIdentical extends the resilience contract to
// the planner: under transient faults with a healing retry budget, an
// adaptive campaign reproduces the fault-free adaptive run bit-identically
// — stop decisions, top-ups and all.
func TestChaosAdaptiveRecoversBitIdentical(t *testing.T) {
	opts := func() Options {
		return Options{
			Launch: planned(noisyLaunch(17), launcher.Plan{TargetRCIW: 1e-9}),
		}
	}
	clean := runSweep(t, opts())
	cleanCSV := csvOf(t, clean)

	injector := faults.New(7).SetRate("*", 0.3).SetBurst(1)
	chaotic := opts()
	chaotic.Launch.Faults = injector
	chaotic.Retry = RetryPolicy{MaxAttempts: 40, Seed: 42}
	res := runSweep(t, chaotic)
	if injector.Count() == 0 {
		t.Fatal("no faults injected; the chaos run tested nothing")
	}
	if res.Failures != 0 {
		t.Fatalf("%d variants failed despite a healing retry budget: %v", res.Failures, res.Err())
	}
	if got := csvOf(t, res); got != cleanCSV {
		t.Errorf("chaotic adaptive run diverged:\n%s\nvs\n%s", got, cleanCSV)
	}
	if res.RepsSaved != clean.RepsSaved || res.RepsTopUp != clean.RepsTopUp {
		t.Errorf("chaotic accounting (%d,%d) != clean (%d,%d)",
			res.RepsSaved, res.RepsTopUp, clean.RepsSaved, clean.RepsTopUp)
	}
}
