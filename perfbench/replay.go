package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"microtools/internal/analysis"
	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/memsim"
	"microtools/internal/sim"
	"microtools/internal/telemetry"
	"microtools/internal/xmlspec"
)

// layers accumulates one replay's per-layer host times and counts. Every
// duration is the sum over the calls the replay made into that layer.
type layers struct {
	parse, gen, bound, key, get, put, simNew, launch, rank, report time.Duration

	variants, keys, gets, hits, puts int
	simNews, launches, reps          int
	simNewAlloc                      uint64 // heap bytes sim.New allocated
	mem                              memsim.Stats
	insts                            int64 // simulated instructions retired
}

// sum is the host time of every call on the operation's blocking path.
// Parsing is not added: core.GenerateStream parses again inside gen.
func (l *layers) sum() time.Duration {
	return l.gen + l.bound + l.key + l.get + l.put + l.simNew + l.launch + l.rank + l.report
}

// replay performs one operation serially by calling each layer's public
// entry point in the order campaign.Run does, timing every call. With a
// fresh cache it reproduces campaign.Run's ranking bit for bit; tests hold
// it to that.
func replay(ctx context.Context, st *study, cache *campaign.Cache, l *layers) (*outcome, error) {
	launch := st.launch
	reg := telemetry.NewRegistry()
	launch.Metrics = telemetry.NewMetrics(reg)

	t := time.Now()
	if _, err := xmlspec.Parse(bytes.NewReader(st.spec)); err != nil {
		return nil, err
	}
	l.parse += time.Since(t)

	t = time.Now()
	var progs []codegen.Program
	if _, err := core.GenerateStream(ctx, bytes.NewReader(st.spec), st.gen, func(p codegen.Program) error {
		progs = append(progs, p)
		return nil
	}); err != nil {
		return nil, err
	}
	kernels := make([]*isa.Program, len(progs))
	for i := range progs {
		k, err := progs[i].Lowered()
		if err != nil {
			return nil, err
		}
		kernels[i] = k
	}
	l.gen += time.Since(t)
	l.variants += len(progs)

	desc, err := machine.ByName(launch.MachineName)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	keyer, err := campaign.NewKeyer(launch)
	if err != nil {
		return nil, err
	}
	l.key += time.Since(t)

	ms := make([]*launcher.Measurement, len(kernels))
	for i, kernel := range kernels {
		t = time.Now()
		bound := staticBound(kernel, desc, launch)
		l.bound += time.Since(t)

		t = time.Now()
		key, err := keyer.Key(kernel)
		l.key += time.Since(t)
		l.keys++
		if err != nil {
			return nil, err
		}
		m, launched, err := l.measure(ctx, cache, key, kernel, desc, launch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", progs[i].Name, err)
		}
		switch {
		case launched:
			m.StaticBound = bound
			if err := l.store(cache, key, m); err != nil {
				return nil, err
			}
		case bound > 0 && m.StaticBound != bound:
			m.StaticBound = bound // a hit cached before its bound was recorded
		}
		ms[i] = m
	}
	l.insts += launch.Metrics.SimInstsRetired.Value()

	t = time.Now()
	r := analysis.RankPerElement(ms)
	l.rank += time.Since(t)
	t = time.Now()
	var buf bytes.Buffer
	if err := launcher.WriteReport(&buf, launcher.ReportJSON, ms); err != nil {
		return nil, err
	}
	l.report += time.Since(t)
	return &outcome{report: buf.Bytes(), digest: digestOf(r), variants: len(ms)}, nil
}

// measure serves one variant from the cache or, on a miss, launches it
// on a fresh simulated machine; launched reports the latter.
func (l *layers) measure(ctx context.Context, cache *campaign.Cache, key string, kernel *isa.Program, desc *machine.Machine, launch launcher.Options) (m *launcher.Measurement, launched bool, err error) {
	t := time.Now()
	m, ok := cache.Get(key)
	l.get += time.Since(t)
	l.gets++
	if ok {
		l.hits++
		return m, false, nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t = time.Now()
	d, err := machine.ByName(launch.MachineName)
	if err != nil {
		return nil, false, err
	}
	mach, err := sim.New(d)
	if err == nil && !launch.DisableInterrupts {
		err = mach.SetNoise(sim.DefaultNoise(launch.NoiseSeed))
	}
	l.simNew += time.Since(t)
	runtime.ReadMemStats(&after)
	l.simNewAlloc += after.TotalAlloc - before.TotalAlloc
	l.simNews++
	if err != nil {
		return nil, false, err
	}

	t = time.Now()
	if _, err := kernel.Decoded(desc.Arch); err != nil {
		return nil, false, err
	}
	m, err = launcher.LaunchOn(ctx, mach, kernel, launch)
	l.launch += time.Since(t)
	if err != nil {
		return nil, false, err
	}
	l.launches++
	l.reps += m.Summary.N
	l.mem = l.mem.Add(m.MemStats)
	return m, true, nil
}

// store puts a fresh measurement into the cache and adopts its canonical
// encoding in place, as the campaign engine does.
func (l *layers) store(cache *campaign.Cache, key string, m *launcher.Measurement) error {
	t := time.Now()
	canon, err := cache.Put(key, m)
	l.put += time.Since(t)
	l.puts++
	if err != nil {
		return err
	}
	*m = *canon
	return nil
}

// staticBound is the dataflow lower bound for one kernel in the
// measurement's unit, per counted iteration (0 when it does not apply):
// the figure campaign.Run records as VariantResult.StaticBound.
func staticBound(kernel *isa.Program, desc *machine.Machine, launch launcher.Options) float64 {
	if !launch.PerIteration {
		return 0
	}
	rep, err := dataflow.KernelBounds(kernel, desc.Arch)
	if err != nil || rep.CounterStep <= 0 {
		return 0
	}
	b := rep.CyclesLowerBound / float64(rep.CounterStep)
	if launch.Mode == launcher.OpenMP && launch.Cores > 1 {
		b /= float64(launch.Cores)
	}
	ghz := desc.CoreGHz
	if launch.CoreFrequencyGHz > 0 {
		ghz = launch.CoreFrequencyGHz
	}
	switch launch.TimeUnit {
	case launcher.UnitTSC:
		return b * desc.RefGHz / ghz
	case launcher.UnitSeconds:
		return b / (ghz * 1e9)
	}
	return b
}
