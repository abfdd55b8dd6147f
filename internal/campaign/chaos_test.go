package campaign

// The chaos suite asserts the resilience contract end to end: under a
// deterministic, seed-driven fault schedule (internal/faults), a campaign
// with a sufficient retry budget produces final results bit-identical to a
// fault-free run — same seed ⇒ same injected-fault set ⇒ same retry counts
// ⇒ same measurements, regardless of worker count. It runs under -race in
// make ci, so the injector's concurrency determinism is exercised too.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
)

// chaosBudget is a retry budget that provably heals every transient fault
// of the sweepSpec campaign: a variant's launch path crosses at most five
// distinct injection sites (campaign.launch, cache.get, launcher.rep for
// the single outer rep, sim.step for calibration and for the kernel), each
// injecting `burst` failures before healing, and every failed attempt
// consumes exactly one of those failures.
func chaosBudget(burst int) RetryPolicy {
	return RetryPolicy{MaxAttempts: 5*burst + 1, Seed: 42}
}

func TestChaosTransientFaultsRecoverBitIdentical(t *testing.T) {
	clean := runSweep(t, Options{Launch: quickLaunch()})
	cleanCSV := csvOf(t, clean)

	const burst = 2
	injector := faults.New(7).SetRate("*", 0.5).SetBurst(burst)
	counters := telemetry.NewRegistry()
	injector.SetCounter(counters.Counter("faults.injected"))
	chaotic := runSweep(t, Options{
		Launch: metered(faulted(quickLaunch(), injector), counters),
		Retry:  chaosBudget(burst),
	})

	if injector.Count() == 0 {
		t.Fatal("rate 0.5 injected no faults; the chaos run tested nothing")
	}
	if chaotic.Failures != 0 {
		t.Fatalf("%d variants failed despite transient faults and a healing retry budget: %v",
			chaotic.Failures, chaotic.Err())
	}
	// Every injected fault fails exactly one attempt, and every failed
	// attempt is retried: the counts must agree.
	if int64(chaotic.Retries) != injector.Count() {
		t.Errorf("retries = %d, injected faults = %d; want them equal", chaotic.Retries, injector.Count())
	}
	if got := counters.Counter("campaign.retry").Value(); got != int64(chaotic.Retries) {
		t.Errorf("campaign.retry counter = %d, Result.Retries = %d", got, chaotic.Retries)
	}
	if got := counters.Counter("faults.injected").Value(); got != injector.Count() {
		t.Errorf("faults.injected counter = %d, injector.Count() = %d", got, injector.Count())
	}
	for _, r := range chaotic.Results {
		if r.Attempts < 1 {
			t.Errorf("variant %s: attempts = %d, want >= 1", r.Name, r.Attempts)
		}
	}
	if chaoticCSV := csvOf(t, chaotic); chaoticCSV != cleanCSV {
		t.Errorf("chaotic run diverged from the fault-free run:\n%s\nvs\n%s", chaoticCSV, cleanCSV)
	}
}

func TestChaosSameSeedSameScheduleAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (*Result, []faults.Site) {
		injector := faults.New(99).SetRate("*", 0.5).SetBurst(1)
		res := runSweep(t, Options{
			Launch:  faulted(quickLaunch(), injector),
			Workers: workers,
			Retry:   chaosBudget(1),
		})
		return res, injector.Injected()
	}
	serial, serialSites := run(1)
	parallel, parallelSites := run(8)

	if len(serialSites) == 0 {
		t.Fatal("no faults injected; the determinism check tested nothing")
	}
	if len(serialSites) != len(parallelSites) {
		t.Fatalf("fault sets differ: %d sites serial, %d parallel", len(serialSites), len(parallelSites))
	}
	for i := range serialSites {
		if serialSites[i] != parallelSites[i] {
			t.Errorf("site %d differs: %+v vs %+v", i, serialSites[i], parallelSites[i])
		}
	}
	if serial.Retries != parallel.Retries {
		t.Errorf("retry counts differ: %d serial, %d parallel", serial.Retries, parallel.Retries)
	}
	if csvOf(t, serial) != csvOf(t, parallel) {
		t.Error("same fault seed produced different measurements across worker counts")
	}

	// A different seed must not replay the same schedule.
	other := faults.New(100).SetRate("*", 0.5).SetBurst(1)
	runSweep(t, Options{Launch: faulted(quickLaunch(), other), Retry: chaosBudget(1)})
	otherSites := other.Injected()
	same := len(otherSites) == len(serialSites)
	if same {
		for i := range otherSites {
			if otherSites[i] != serialSites[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical fault schedule")
	}
}

func TestChaosPermanentFaultsAreNotRetried(t *testing.T) {
	injector := faults.New(3).SetRate(faults.PointCampaignLaunch, 1).SetClass(faults.ClassPermanent)
	res, err := Run(context.Background(), strings.NewReader(sweepSpec), core.GenerateOptions{}, Options{
		Launch: faulted(quickLaunch(), injector),
		Retry:  RetryPolicy{MaxAttempts: 10, Seed: 1},
	})
	if err == nil {
		t.Fatal("permanently faulted campaign must return an error")
	}
	if !errors.Is(err, faults.ErrPermanent) || !errors.Is(err, faults.ErrInjected) {
		t.Errorf("aggregate error does not expose the fault taxonomy: %v", err)
	}
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Point != faults.PointCampaignLaunch {
		t.Errorf("errors.As lost the fault record: %+v", fe)
	}
	if res.Failures != res.Emitted || res.Emitted == 0 {
		t.Fatalf("failures = %d of %d emitted, want all", res.Failures, res.Emitted)
	}
	if res.Retries != 0 {
		t.Errorf("permanent faults were retried %d times; retry is futile by contract", res.Retries)
	}
	for _, r := range res.Results {
		if r.Attempts != 1 {
			t.Errorf("variant %s: %d attempts on a permanent fault, want 1", r.Name, r.Attempts)
		}
	}
}

func TestChaosQuarantineWithdrawsRepeatOffenders(t *testing.T) {
	// Transient faults with a burst deeper than the quarantine threshold:
	// the variant would eventually heal, but quarantine withdraws it first.
	injector := faults.New(5).SetRate(faults.PointCampaignLaunch, 1).SetBurst(100)
	counters := telemetry.NewRegistry()
	res, err := Run(context.Background(), strings.NewReader(sweepSpec), core.GenerateOptions{}, Options{
		Launch:     metered(faulted(quickLaunch(), injector), counters),
		Retry:      RetryPolicy{MaxAttempts: 50, Seed: 1},
		Quarantine: 3,
	})
	if err == nil {
		t.Fatal("quarantined campaign must surface the failures")
	}
	if res.Quarantined != res.Emitted || res.Emitted == 0 {
		t.Fatalf("quarantined = %d of %d emitted, want all", res.Quarantined, res.Emitted)
	}
	if got := counters.Counter("variant.quarantined").Value(); got != int64(res.Quarantined) {
		t.Errorf("variant.quarantined counter = %d, Result.Quarantined = %d", got, res.Quarantined)
	}
	for _, r := range res.Results {
		if !r.Quarantined || r.Attempts != 3 {
			t.Errorf("variant %s: quarantined=%v after %d attempts, want true after 3",
				r.Name, r.Quarantined, r.Attempts)
		}
	}
}

func TestChaosVariantDeadlineBoundsAttempts(t *testing.T) {
	res, err := Run(context.Background(), strings.NewReader(sweepSpec), core.GenerateOptions{}, Options{
		Launch:          quickLaunch(),
		Workers:         1,
		VariantDeadline: 20 * time.Millisecond,
		Retry:           RetryPolicy{MaxAttempts: 1000, Seed: 1},
		launch: func(ctx context.Context, prog *isa.Program, opts launcher.Options) (*launcher.Measurement, error) {
			// A launch that never completes: only the variant deadline can
			// end it.
			<-ctx.Done()
			return nil, faults.Transient(ctx.Err())
		},
	})
	if err == nil {
		t.Fatal("deadline-bound campaign must surface the failures")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("aggregate error does not unwrap to the deadline: %v", err)
	}
	if res.Failures != res.Emitted || res.Emitted == 0 {
		t.Fatalf("failures = %d of %d emitted, want all (deadline is per-variant)", res.Failures, res.Emitted)
	}
	for _, r := range res.Results {
		// The deadline expired during attempt 1 and the retry loop must
		// not schedule further attempts against a dead context.
		if r.Attempts != 1 {
			t.Errorf("variant %s: %d attempts against an expired deadline, want 1", r.Name, r.Attempts)
		}
	}
}

func TestChaosCacheFaultsDegradeNeverCorrupt(t *testing.T) {
	// Checkpoint faults: the measurement survives, the put error is
	// counted, and the campaign output matches the clean run.
	clean := runSweep(t, Options{Launch: quickLaunch()})
	cleanCSV := csvOf(t, clean)

	injector := faults.New(11).SetRate(faults.PointCacheCheckpoint, 1).SetClass(faults.ClassPermanent)
	counters := telemetry.NewRegistry()
	cache := NewMemoryCache()
	cache.SetFaults(injector)
	res := runSweep(t, Options{
		Launch: metered(quickLaunch(), counters),
		Cache:  cache,
	})
	if res.Failures != 0 {
		t.Fatalf("checkpoint faults failed %d variants; they must degrade, not fail: %v",
			res.Failures, res.Err())
	}
	if got := counters.Counter("campaign.cache.put_errors").Value(); got != int64(res.Emitted) {
		t.Errorf("campaign.cache.put_errors = %d, want %d (one per variant)", got, res.Emitted)
	}
	if csvOf(t, res) != cleanCSV {
		t.Error("checkpoint faults changed the campaign output")
	}

	// Get faults: a warm cache degrades to misses (variants re-measure)
	// and the results stay bit-identical.
	cache.SetFaults(faults.New(12).SetRate(faults.PointCacheGet, 1).SetClass(faults.ClassPermanent))
	warm := runSweep(t, Options{Launch: quickLaunch(), Cache: cache})
	if warm.CacheHits != 0 || warm.Launches != warm.Emitted {
		t.Errorf("get faults: %d hits, %d launches of %d variants; want 0 hits, all launched",
			warm.CacheHits, warm.Launches, warm.Emitted)
	}
	if csvOf(t, warm) != cleanCSV {
		t.Error("get-faulted warm run diverged from the clean run")
	}
}

// TestLaunchFaultsLeaveTheCacheUnarmed: a faulted run arms the launch path
// only. The shared cache's I/O points are its owner's to arm, so the run
// leaves no injector behind on it and the next run there sees no faults.
func TestLaunchFaultsLeaveTheCacheUnarmed(t *testing.T) {
	cache := NewMemoryCache()
	injector := faults.New(13).SetRate("*", 0.5).SetBurst(1)
	cold := runSweep(t, Options{
		Launch: faulted(quickLaunch(), injector),
		Cache:  cache,
		Retry:  chaosBudget(1),
	})
	if injector.Count() == 0 {
		t.Fatal("no faults injected; the run tested nothing")
	}
	cache.mu.Lock()
	armed := cache.faults
	cache.mu.Unlock()
	if armed != nil {
		t.Fatal("the faulted run left its injector armed on the caller's cache")
	}
	injected := injector.Count()
	warm := runSweep(t, Options{Launch: quickLaunch(), Cache: cache})
	if warm.CacheHits != cold.Emitted || warm.Launches != 0 {
		t.Errorf("warm run: %d hits, %d launches of %d variants; want all hits", warm.CacheHits, warm.Launches, cold.Emitted)
	}
	if injector.Count() != injected {
		t.Errorf("the warm run injected %d faults through the cache", injector.Count()-injected)
	}
}

func TestRetryBackoffIsDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, BackoffMax: 10 * time.Millisecond, Seed: 9}
	for attempt := 1; attempt <= 3; attempt++ {
		a := p.delay("kernel_u2", attempt)
		b := p.delay("kernel_u2", attempt)
		if a != b {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, a, b)
		}
		if a < 0 || a > 10*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, BackoffMax]", attempt, a)
		}
	}
	if p.delay("kernel_u2", 1) == p.delay("kernel_u3", 1) &&
		p.delay("kernel_u2", 2) == p.delay("kernel_u3", 2) &&
		p.delay("kernel_u2", 3) == p.delay("kernel_u3", 3) {
		t.Error("backoff jitter is not decorrelated across variants")
	}
	if (RetryPolicy{}).delay("k", 1) != 0 {
		t.Error("zero policy must not wait")
	}
	if got := (RetryPolicy{MaxAttempts: 0}).attempts(); got != 1 {
		t.Errorf("zero policy attempts = %d, want 1", got)
	}
}
