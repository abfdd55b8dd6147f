package launcher

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"microtools/internal/faults"
	"microtools/internal/machine"
	"microtools/internal/obs"
	"microtools/internal/sim"
	"microtools/internal/telemetry"
)

// hookCases are the protocol shapes TestLaunchHooksGolden pins: every way
// the launcher drives the simulator (RunOne, Run, a static OpenMP region,
// a dynamic one), including OpenMP regions whose trip is smaller than the
// team, so fewer threads start than are pinned.
var hookCases = []struct {
	name   string
	mutate func(*Options)
}{
	{"sequential", func(*Options) {}},
	{"fork4", func(o *Options) { o.Mode, o.Cores = Fork, 4 }},
	{"omp-static", func(o *Options) { o.Mode, o.Cores = OpenMP, 4 }},
	{"omp-static-trip2", func(o *Options) { o.Mode, o.Cores, o.TripElements = OpenMP, 4, 2 }},
	{"omp-dynamic", func(o *Options) {
		o.Mode, o.Cores, o.OMPDynamic, o.OMPChunkElements = OpenMP, 4, true, 256
	}},
	{"omp-dynamic-trip2", func(o *Options) { o.Mode, o.Cores, o.OMPDynamic, o.TripElements = OpenMP, 4, true, 2 }},
}

// writeSpans renders a trace as an indented tree: every span's name,
// attributes and simulated-cycle bounds, and whether it was left open.
// Wall-clock times are left out; everything else a span records is there.
func writeSpans(b *strings.Builder, tr *obs.Tracer) {
	recs := tr.Records()
	depth := make(map[int]int, len(recs))
	for _, r := range recs {
		if r.ParentID != 0 {
			depth[r.ID] = depth[r.ParentID] + 1
		}
		fmt.Fprintf(b, "  %s%s", strings.Repeat("  ", depth[r.ID]), r.Name)
		for _, a := range r.Attrs {
			switch a.Value.Kind {
			case "s":
				fmt.Fprintf(b, " %s=%q", a.Key, a.Value.Str)
			case "i":
				fmt.Fprintf(b, " %s=%d", a.Key, a.Value.Int)
			default:
				fmt.Fprintf(b, " %s=%v", a.Key, a.Value.Float)
			}
		}
		if r.HasCycles {
			fmt.Fprintf(b, " cycles=%d..%d", r.CycleStart, r.CycleEnd)
		}
		if r.End.IsZero() {
			b.WriteString(" open")
		}
		b.WriteByte('\n')
	}
}

// writeSimCounts renders the five simulator counters of one launch.
func writeSimCounts(b *strings.Builder, met *telemetry.Metrics) {
	fmt.Fprintf(b, "  %s=%d %s=%d %s=%d %s=%d %s=%d\n",
		telemetry.MetricSimInstsRetired, met.SimInstsRetired.Value(),
		telemetry.MetricSimPoolHits, met.SimPoolHits.Value(),
		telemetry.MetricSimPoolMisses, met.SimPoolMisses.Value(),
		telemetry.MetricSimWarmHits, met.SimWarmHits.Value(),
		telemetry.MetricSimWarmMisses, met.SimWarmMisses.Value())
}

// TestLaunchHooksGolden is the oracle for the hooks a launch arms around
// the simulator: for each protocol shape, with interrupt noise off and on,
// it pins the span tree (names, parents, attributes, cycle bounds), the
// five sim.* counter deltas, and the order in which the fault plan is
// consulted at faults.PointSimStep. Four legs per shape:
//
//   - a clean launch on a fresh machine;
//   - a second launch on the same machine, unreset, whose counters must
//     hold its own launch only;
//   - a third after Reset, whose warm-up the machine's memo restores;
//   - launches under a plan that faults every stepping site once: each
//     attempt fails at the next site not yet consulted (its error text
//     names it), records no span for the faulted batch and still reports
//     the counts it ran up, until an attempt passes every site.
//
// The golden file was recorded from the launcher as it stood before the
// simulator lost its own hook setters (go test -run HooksGolden -update
// rewrites it).
func TestLaunchHooksGolden(t *testing.T) {
	ctx := context.Background()
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	prog := parse(t, kernelSrc(4, "movaps", 16), "k4")
	var b strings.Builder
	for _, tc := range hookCases {
		for _, noisy := range []bool{false, true} {
			opts := DefaultOptions()
			opts.MachineName = desc.Name
			opts.ArrayBytes, opts.OuterReps, opts.InnerReps = 16<<10, 2, 2
			opts.DisableInterrupts = !noisy
			tc.mutate(&opts)
			// Interrupts far more often than sim.DefaultNoise's, so they
			// land inside these short calls.
			setNoise := func(m *sim.Machine) {
				if err := m.SetNoise(sim.NoiseConfig{Enabled: noisy, Seed: 7,
					IntervalCycles: 400, CostCycles: 300, CacheDisturbFraction: 0.3}); err != nil {
					t.Fatal(err)
				}
			}
			newMachine := func() *sim.Machine {
				m, err := sim.New(desc)
				if err != nil {
					t.Fatal(err)
				}
				setNoise(m)
				return m
			}
			launch := func(m *sim.Machine, in *faults.Injector) error {
				o := opts
				o.Tracer = obs.New()
				o.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
				o.Faults = in
				_, err := LaunchOn(ctx, m, prog, o)
				if err != nil {
					fmt.Fprintf(&b, "  error: %v\n", err)
				}
				writeSpans(&b, o.Tracer)
				writeSimCounts(&b, o.Metrics)
				return err
			}

			fmt.Fprintf(&b, "== %s noise=%v\n", tc.name, noisy)
			m := newMachine()
			for _, leg := range []string{"fresh machine", "same machine again", "same machine after Reset"} {
				fmt.Fprintf(&b, "-- %s\n", leg)
				if leg == "same machine after Reset" {
					m.Reset()
					setNoise(m)
				}
				if err := launch(m, nil); err != nil {
					t.Fatalf("%s noise=%v %s: %v", tc.name, noisy, leg, err)
				}
			}
			in := faults.New(1).SetRate(faults.PointSimStep, 1)
			for attempt := 1; ; attempt++ {
				fmt.Fprintf(&b, "-- faulted attempt %d\n", attempt)
				if launch(newMachine(), in) == nil {
					break
				}
				if attempt == 5 {
					t.Fatalf("%s noise=%v: still failing after %d attempts", tc.name, noisy, attempt)
				}
			}
		}
	}
	checkGolden(t, "hooks.golden", []byte(b.String()))
}
