package experiments

import (
	"context"
	"fmt"

	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/stats"
)

// seqMachine is the dual-socket Nehalem of Figs. 11-13, caches scaled 1/8.
const seqMachine = "nehalem-dual/8"

// level is one §5.1 residency level and its array size.
type level struct {
	Name  string
	Bytes int64
}

// hierarchyLevels returns the §5.1 array sizes: "L1" is half the first
// cache level, every other level is twice the level below it ("achieved by
// using twice the underlying memory hierarchy size").
func hierarchyLevels(machineName string) ([]level, error) {
	desc, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	h := desc.Hierarchy
	return []level{
		{"L1", h.L1.Size / 2},
		{"L2", h.L1.Size * 2},
		{"L3", h.L2.Size * 2},
		{"RAM", h.L3.Size * 2},
	}, nil
}

// seqOptions is the launch protocol of Figs. 11-13 at one level.
func seqOptions(lv level, quick bool) launcher.Options {
	opts := launcher.DefaultOptions()
	opts.MachineName = seqMachine
	opts.ArrayBytes = lv.Bytes
	opts.InnerReps = 2
	opts.OuterReps = 2
	opts.MaxInstructions = 300_000
	if quick {
		opts.InnerReps = 1
		opts.OuterReps = 1
		opts.MaxInstructions = 60_000
	}
	if lv.Name == "RAM" {
		// A truncated call covers less than the array; a second call
		// would re-measure the now-cached prefix. One cold truncated run
		// IS the RAM measurement.
		opts.InnerReps = 1
		opts.OuterReps = 1
	}
	return opts
}

func init() {
	register(&Experiment{
		ID:      "fig11",
		Title:   "movaps loads/stores: cycles per instruction vs unroll factor per hierarchy level",
		Paper:   "510 generated variants; per unroll group the minimum is taken; higher hierarchy levels cost more per access; unrolling is advantageous; vectorized RAM accesses pay more per instruction than scalar ones",
		Machine: seqMachine,
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			return runUnrollHierarchy(ctx, cfg, "movaps")
		},
	})
	register(&Experiment{
		ID:      "fig12",
		Title:   "movss loads/stores: cycles per instruction vs unroll factor per hierarchy level",
		Paper:   "same protocol with the 4-byte scalar move: per-instruction costs beyond L1 are lower than movaps because each instruction moves a quarter of the data",
		Machine: seqMachine,
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			return runUnrollHierarchy(ctx, cfg, "movss")
		},
	})
	register(&Experiment{
		ID:      "fig13",
		Title:   "Frequency sweep: TSC cycles per load per hierarchy level",
		Paper:   "with the frequency-independent rdtsc clock, L1/L2 costs scale with the core frequency while L3/RAM stay constant (core vs uncore clock domains)",
		Machine: seqMachine,
		Run:     runFig13,
	})
}

// runUnrollHierarchy implements Figs. 11/12: unroll 1..8 × 4 levels, the
// minimum over the generated load/store patterns per group.
func runUnrollHierarchy(ctx context.Context, cfg Config, op string) (*stats.Table, error) {
	maxU := 8
	unrolls := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		unrolls = []int{1, 2, 4, 8}
	}
	vs, err := generateLoadStore(ctx, op, maxU)
	if err != nil {
		return nil, err
	}
	levels, err := hierarchyLevels(seqMachine)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("Figs. 11/12: %s cycles per instruction vs unroll, per hierarchy level", op),
		XLabel: "load/store instructions in the loop (unroll factor)",
		YLabel: "cycles/instruction",
	}
	var sw sweep
	for _, level := range levels {
		series := t.AddSeries(level.Name)
		for _, u := range unrolls {
			// The group's minimum is complete once its last pattern is read.
			best := 0.0
			pats := patterns(u)
			for i, pat := range pats {
				prog, err := vs.get(u, pat)
				if err != nil {
					return nil, err
				}
				label := fmt.Sprintf("%s u=%d %s %s", op, u, pat, level.Name)
				sw.add(label, prog, seqOptions(level, cfg.Quick), func(m *launcher.Measurement) {
					if perInst := m.Value / float64(u); best == 0 || perInst < best {
						best = perInst
					}
					if i == len(pats)-1 {
						cfg.logf("%s %s u=%d: min %.3f cycles/inst", op, level.Name, u, best)
						series.Add(float64(u), best)
					}
				})
			}
		}
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}

func runFig13(ctx context.Context, cfg Config) (*stats.Table, error) {
	desc, err := machine.ByName(seqMachine)
	if err != nil {
		return nil, err
	}
	levels, err := hierarchyLevels(seqMachine)
	if err != nil {
		return nil, err
	}
	freqs := desc.FrequencyStepsGHz
	if cfg.Quick {
		freqs = []float64{freqs[0], freqs[len(freqs)-1]}
	}
	prog, err := loadOnlyKernel("movaps", 8)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Fig. 13: TSC cycles per load (8-load movaps) vs core frequency",
		XLabel: "core frequency (GHz)",
		YLabel: "TSC cycles/load",
	}
	var sw sweep
	for _, level := range levels {
		series := t.AddSeries(level.Name)
		for _, f := range freqs {
			opts := seqOptions(level, cfg.Quick)
			opts.CoreFrequencyGHz = f
			sw.add(fmt.Sprintf("fig13 %s %.2fGHz", level.Name, f), prog, opts, func(m *launcher.Measurement) {
				series.Add(f, m.Value/8)
				cfg.logf("fig13 %s %.2fGHz: %.3f TSC cycles/load", level.Name, f, m.Value/8)
			})
		}
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}
