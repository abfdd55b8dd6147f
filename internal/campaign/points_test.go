package campaign

import (
	"context"
	"reflect"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// pointSweep returns three points on one kernel that differ in array
// size, execution mode and core frequency.
func pointSweep(t *testing.T) []Point {
	t.Helper()
	kernel, err := core.LoadKernel(kernelAsm("k", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	base := quickLaunch()
	base.OuterReps = 2
	big := base
	big.ArrayBytes = 1 << 14
	forked := base
	forked.Mode = launcher.Fork
	forked.Cores = 2
	slow := base
	slow.CoreFrequencyGHz = 1.6
	var points []Point
	for _, p := range []struct {
		name string
		opts launcher.Options
	}{{"big", big}, {"fork2", forked}, {"slow", slow}} {
		points = append(points, Point{Program: codegen.Program{Name: p.name, Parsed: kernel}, Launch: p.opts})
	}
	return points
}

// withHooks returns l carrying the campaign-wide hooks of c, as the engine
// copies them onto every point.
func withHooks(l, c launcher.Options) launcher.Options {
	l.Tracer, l.Metrics, l.Faults, l.Adaptive = c.Tracer, c.Metrics, c.Faults, c.Adaptive
	return l
}

func TestRunPointsMatchesDirectLaunches(t *testing.T) {
	points := pointSweep(t)
	res, err := RunPoints(context.Background(), points, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(points) {
		t.Fatalf("%d results for %d points", len(res.Results), len(points))
	}
	for i, p := range points {
		r := res.Results[i]
		if r.Index != i || r.Name != p.Program.Name {
			t.Errorf("result %d is %d/%q, want %d/%q", i, r.Index, r.Name, i, p.Program.Name)
		}
		want, err := launcher.Launch(context.Background(), p.Program.Parsed, p.Launch)
		if err != nil {
			t.Fatal(err)
		}
		// The engine stamps the static bound; a direct launch leaves it 0.
		got := *r.Measurement
		got.StaticBound = 0
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("point %q: engine measured %+v, direct launch %+v", p.Program.Name, got, *want)
		}
	}
	if res.Results[0].Measurement.Value == res.Results[2].Measurement.Value {
		t.Error("points with different options measured the same value: options not applied per point")
	}
}

func TestRunPointsCacheKeysCarryHooks(t *testing.T) {
	points := pointSweep(t)
	for _, adaptive := range []bool{false, true} {
		campaignLaunch := launcher.DefaultOptions()
		campaignLaunch.OuterReps = 2
		campaignLaunch.Tracer = obs.New()
		if adaptive {
			campaignLaunch.Adaptive = &launcher.Plan{MaxReps: 3}
		}
		cache := NewMemoryCache()
		res, err := RunPoints(context.Background(), points, Options{Launch: campaignLaunch, Cache: cache, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.KeyErrors != 0 {
			t.Fatalf("adaptive=%v: %d key errors", adaptive, res.KeyErrors)
		}
		// The engine keys on the resolved plan, as it runs it.
		hooks := campaignLaunch
		if adaptive {
			plan := campaignLaunch.Adaptive.Resolve(campaignLaunch.OuterReps)
			hooks.Adaptive = &plan
		}
		for _, p := range points {
			key, err := Key(p.Program.Parsed, withHooks(p.Launch, hooks))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Get(key); !ok {
				t.Errorf("adaptive=%v: point %q not stored under Key(kernel, its options with the hooks)", adaptive, p.Program.Name)
			}
			if other, _ := Key(p.Program.Parsed, withHooks(campaignLaunch, hooks)); other == key {
				t.Errorf("point %q keyed like the campaign's own options", p.Program.Name)
			}
		}
		if !adaptive && cache.Len() != len(points) {
			t.Errorf("cache holds %d entries, want one per point (%d)", cache.Len(), len(points))
		}
		warm, err := RunPoints(context.Background(), points, Options{Launch: campaignLaunch, Cache: cache, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Launches != 0 {
			t.Errorf("adaptive=%v: warm rerun launched %d times, want 0", adaptive, warm.Launches)
		}
	}
}

func TestRunPointsHooksAreCampaignWide(t *testing.T) {
	points := pointSweep(t)
	// A hook set on a point is replaced by the campaign's.
	stray := obs.New()
	points[1].Launch.Tracer = stray
	reg := telemetry.NewRegistry()
	campaignLaunch := metered(launcher.DefaultOptions(), reg)
	tr := obs.New()
	campaignLaunch.Tracer = tr
	if _, err := RunPoints(context.Background(), points, Options{Launch: campaignLaunch, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.FindAll("launch")); got != len(points) {
		t.Errorf("campaign tracer holds %d launch spans, want one per point (%d)", got, len(points))
	}
	if got := len(stray.Records()); got != 0 {
		t.Errorf("a point's own tracer recorded %d spans; the campaign's must replace it", got)
	}
	reps := 0
	for _, p := range points {
		reps += p.Launch.OuterReps
	}
	if got := reg.Histogram(telemetry.MetricRepSeconds, nil).Count(); got != int64(reps) {
		t.Errorf("launcher.rep.seconds counted %d repetitions, want %d across the points", got, reps)
	}
	if got := reg.Snapshot().Counters["campaign.launches"]; got != int64(len(points)) {
		t.Errorf("campaign.launches = %d, want %d", got, len(points))
	}
}
