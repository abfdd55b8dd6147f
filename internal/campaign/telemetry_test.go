package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// TestTelemetryAgreesWithResult is the live-vs-final consistency gate: the
// registry counters a scraper would see must equal the campaign's own
// Result accounting, and the tracker's final snapshot must match both.
func TestTelemetryAgreesWithResult(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracker()
	cache := NewMemoryCache()

	coldRec := &recorder{}
	cold := runSweep(t, Options{
		Launch: metered(quickLaunch(), reg), Workers: 4, Cache: cache,
		Observers: []Observer{tr.Begin("cold"), coldRec},
	})
	coldRec.check(t, cold, nil)
	s := reg.Snapshot()
	if got := s.Counters["campaign.launches"]; got != int64(cold.Launches) {
		t.Errorf("campaign.launches = %d, Result.Launches = %d", got, cold.Launches)
	}
	if got := s.Counters["campaign.variants"]; got != int64(len(cold.Results)) {
		t.Errorf("campaign.variants = %d, len(Results) = %d", got, len(cold.Results))
	}
	if got := s.Counters["campaign.cache.misses"]; got != int64(cold.Launches) {
		t.Errorf("campaign.cache.misses = %d, want %d", got, cold.Launches)
	}
	if got := reg.Histogram(telemetry.MetricVariantSeconds, nil).Count(); got != int64(len(cold.Results)) {
		t.Errorf("variant histogram count = %d, want one observation per variant (%d)", got, len(cold.Results))
	}
	// The launcher instruments through the same Launch.Metrics.
	if got := s.Counters[telemetry.MetricSimInstsRetired]; got == 0 {
		t.Error("sim.insts.retired = 0: launcher metrics not propagated")
	}
	if got := reg.Histogram(telemetry.MetricRepSeconds, nil).Count(); got == 0 {
		t.Error("launcher.rep.seconds empty: rep latency not recorded")
	}

	// Warm re-run on the same registry: hits add up, launches don't.
	warmRec := &recorder{}
	warm := runSweep(t, Options{
		Launch: metered(quickLaunch(), reg), Workers: 4, Cache: cache,
		Observers: []Observer{tr.Begin("warm"), warmRec},
	})
	warmRec.check(t, warm, nil)
	if warm.Launches != 0 || warm.CacheHits != 4 {
		t.Fatalf("warm run: launches=%d hits=%d, want 0/4", warm.Launches, warm.CacheHits)
	}
	s = reg.Snapshot()
	if got := s.Counters["campaign.cache.hits"]; got != 4 {
		t.Errorf("campaign.cache.hits = %d, want 4", got)
	}
	if got := s.Counters["campaign.launches"]; got != int64(cold.Launches) {
		t.Errorf("campaign.launches moved on a warm run: %d", got)
	}

	// The tracker retained both runs; final snapshots mirror the Results.
	snaps := tr.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("tracker retained %d campaigns, want 2", len(snaps))
	}
	for i, res := range []*Result{cold, warm} {
		snap := snaps[i]
		if !snap.Finished || snap.Err != "" {
			t.Errorf("campaign %q not cleanly finished: %+v", snap.Name, snap)
		}
		if snap.Done != len(res.Results) || snap.Emitted != res.Emitted ||
			snap.CacheHits != res.CacheHits || snap.Launches != res.Launches ||
			snap.Failed != res.Failures {
			t.Errorf("campaign %q snapshot %+v disagrees with result (done=%d emitted=%d hits=%d launches=%d failed=%d)",
				snap.Name, snap, len(res.Results), res.Emitted, res.CacheHits, res.Launches, res.Failures)
		}
	}
}

// TestStabilityDeterministic pins the per-variant stability statistics:
// two cold runs and a warm (cache-served) run must agree bit for bit, and
// each must reproduce stats.StabilityOf over the stored summary.
func TestStabilityDeterministic(t *testing.T) {
	launch := quickLaunch()
	launch.OuterReps = 3 // give CV/RCIW something to measure

	cache := NewMemoryCache()
	a := runSweep(t, Options{Launch: launch, Cache: cache})
	b := runSweep(t, Options{Launch: launch})
	warm := runSweep(t, Options{Launch: launch, Cache: cache})
	if warm.Launches != 0 {
		t.Fatalf("warm run launched %d variants, want 0", warm.Launches)
	}

	for i := range a.Results {
		sa, sb, sw := a.Results[i].Stability, b.Results[i].Stability, warm.Results[i].Stability
		if sa.N == 0 {
			t.Fatalf("variant %d: stability not recorded", i)
		}
		if sa != sb {
			t.Errorf("variant %d: cold runs disagree: %+v vs %+v", i, sa, sb)
		}
		if sa != sw {
			t.Errorf("variant %d: warm run disagrees: %+v vs %+v", i, sa, sw)
		}
		if want := stats.StabilityOf(a.Results[i].Measurement.Summary); sa != want {
			t.Errorf("variant %d: stability %+v != StabilityOf(Summary) %+v", i, sa, want)
		}
	}
}

// TestEventOrderingUnderCancellation cancels the campaign from one of its
// own observers and checks the event stream still arrives in order and
// terminates with a single "end" event carrying the cancellation error.
func TestEventOrderingUnderCancellation(t *testing.T) {
	tr := telemetry.NewTracker()
	ch, cancelSub := tr.Subscribe(256)
	defer cancelSub()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Launch: quickLaunch(), Workers: 1,
		Observers: []Observer{
			tr.Begin("canceled-sweep"),
			UpdateFunc(func(u telemetry.CampaignUpdate) {
				if u.Done >= 2 {
					cancel()
				}
			}),
		},
	}
	_, err := Run(ctx, strings.NewReader(sweepSpec), core.GenerateOptions{}, opts)
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
	cancelSub()

	var types []string
	lastSeq := int64(0)
	for ev := range ch {
		if ev.Seq <= lastSeq {
			t.Errorf("seq %d after %d: not strictly increasing", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		types = append(types, ev.Type)
		if ev.Type == "end" {
			if !ev.Campaign.Finished {
				t.Error("end event snapshot not marked finished")
			}
			if ev.Campaign.Err == "" {
				t.Error("end event carries no error for a canceled campaign")
			}
		}
	}
	if len(types) < 2 || types[0] != "begin" || types[len(types)-1] != "end" {
		t.Fatalf("event types = %v, want begin ... end", types)
	}
	for _, typ := range types[1 : len(types)-1] {
		if typ != "progress" {
			t.Errorf("interior event type %q, want progress (all types: %v)", typ, types)
		}
	}
}

// recorder is an Observer that keeps the whole event stream it saw.
type recorder struct {
	mu      sync.Mutex
	updates []telemetry.CampaignUpdate
	ends    []error
}

func (r *recorder) Update(u telemetry.CampaignUpdate) {
	r.mu.Lock()
	r.updates = append(r.updates, u)
	r.mu.Unlock()
}

func (r *recorder) End(err error) {
	r.mu.Lock()
	r.ends = append(r.ends, err)
	r.mu.Unlock()
}

// check pins the Observer contract against a finished run: one update per
// finished variant plus the settled one, Done never decreasing, the last
// update equal to the Result's accounting, and exactly one End carrying
// the run's error.
func (r *recorder) check(t *testing.T, res *Result, err error) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.updates) != len(res.Results)+1 {
		t.Errorf("%d updates for %d finished variants, want one each plus the settled totals", len(r.updates), len(res.Results))
	}
	for i := 1; i < len(r.updates); i++ {
		if r.updates[i].Done < r.updates[i-1].Done {
			t.Errorf("update %d: done went backwards %d -> %d", i, r.updates[i-1].Done, r.updates[i].Done)
		}
	}
	want := telemetry.CampaignUpdate{
		Done:        len(res.Results),
		Emitted:     res.Emitted,
		CacheHits:   res.CacheHits,
		Failed:      res.Failures,
		Launches:    res.Launches,
		Retries:     res.Retries,
		Quarantined: res.Quarantined,
		KeyErrors:   res.KeyErrors,
	}
	if n := len(r.updates); n == 0 || r.updates[n-1] != want {
		t.Errorf("last update %+v, want the settled totals %+v", r.updates, want)
	}
	if len(r.ends) != 1 || r.ends[0] != err {
		t.Errorf("End calls %v, want exactly one with %v", r.ends, err)
	}
}

// TestLiveProgressIsMonotonic runs many cache-warm variants on 8 workers
// under a tracker subscription: the live "progress" events must never
// show Done going backwards, and the last one must carry the settled
// totals.
func TestLiveProgressIsMonotonic(t *testing.T) {
	progs, err := core.GenerateString(context.Background(), sweepSpec, core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var many []codegen.Program
	for len(many) < 256 {
		many = append(many, progs...)
	}
	cache := NewMemoryCache()
	if _, err := RunPrograms(context.Background(), progs, Options{Launch: quickLaunch(), Cache: cache}); err != nil {
		t.Fatal(err)
	}

	tr := telemetry.NewTracker()
	for run := 0; run < 20; run++ {
		ch, cancelSub := tr.Subscribe(4 * len(many))
		res, err := RunPrograms(context.Background(), many, Options{
			Launch: quickLaunch(), Workers: 8, Cache: cache,
			Observers: []Observer{tr.Begin("warm")},
		})
		cancelSub()
		if err != nil {
			t.Fatal(err)
		}
		if res.Launches != 0 {
			t.Fatalf("run %d: %d launches, want a fully cache-warm run", run, res.Launches)
		}
		var last telemetry.CampaignSnapshot
		progress := 0
		for ev := range ch {
			if ev.Type != "progress" {
				continue
			}
			if ev.Campaign.Done < last.Done {
				t.Errorf("run %d: done went backwards %d -> %d", run, last.Done, ev.Campaign.Done)
			}
			last = ev.Campaign
			progress++
		}
		if progress != len(many)+1 || last.Done != len(many) || last.CacheHits != len(many) || last.Generating {
			t.Fatalf("run %d: %d progress events ending at %+v, want %d ending settled", run, progress, last, len(many)+1)
		}
	}
}
