package experiments

import (
	"context"
	"fmt"

	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/stats"
)

func init() {
	register(&Experiment{
		ID:      "fig14",
		Title:   "Forked processes: cycles per iteration vs core count (RAM-resident 8-load kernel)",
		Paper:   "log-scale latency flat up to ~6 cores on the dual-socket Nehalem, then rising sharply as the memory controllers saturate",
		Machine: "nehalem-dual/8",
		Run:     runFig14,
	})
	register(&Experiment{
		ID:      "fig15",
		Title:   "Alignment sweep, 8 cores of the 32-core machine, 4-array movss traversal",
		Paper:   "cycles/iteration vary substantially (20-33 on the real machine) across alignment configurations",
		Machine: "nehalem-quad/8",
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			return runAlignmentSweep(ctx, cfg, 8, "fig15")
		},
	})
	register(&Experiment{
		ID:      "fig16",
		Title:   "Alignment sweep, 32-core execution, 4-array movss traversal",
		Paper:   "with all 32 cores the variation band moves up (60-90 cycles/iteration on the real machine): memory saturation amplifies alignment effects",
		Machine: "nehalem-quad/8",
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			return runAlignmentSweep(ctx, cfg, 32, "fig16")
		},
	})
}

func runFig14(ctx context.Context, cfg Config) (*stats.Table, error) {
	const machineName = "nehalem-dual/8"
	desc, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	coreCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if cfg.Quick {
		coreCounts = []int{1, 4, 6, 8, 12}
	}
	t := &stats.Table{
		Title:  "Fig. 14: forked RAM-resident 8-load kernel, cycles/iteration vs cores",
		XLabel: "cores",
		YLabel: "cycles/iteration",
		LogY:   true,
	}
	var sw sweep
	for _, op := range []string{"movss", "movaps"} {
		prog, err := loadOnlyKernel(op, 8)
		if err != nil {
			return nil, err
		}
		series := t.AddSeries(op)
		for _, n := range coreCounts {
			opts := launcher.DefaultOptions()
			opts.MachineName = machineName
			opts.Mode = launcher.Fork
			opts.Cores = n
			opts.ArrayBytes = desc.Hierarchy.L3.Size * 2
			opts.InnerReps = 1
			opts.OuterReps = 2
			opts.MaxInstructions = 200_000
			if cfg.Quick {
				opts.OuterReps = 1
				opts.MaxInstructions = 50_000
			}
			sw.add(fmt.Sprintf("fig14 %s cores=%d", op, n), prog, opts, func(m *launcher.Measurement) {
				series.Add(float64(n), m.Value)
				cfg.logf("fig14 %s cores=%d: %.2f cycles/iter", op, n, m.Value)
			})
		}
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}

// runAlignmentSweep implements Figs. 15/16: each X point is one alignment
// configuration of the four arrays; Y is the average cycles/iteration of
// the forked traversal.
func runAlignmentSweep(ctx context.Context, cfg Config, cores int, id string) (*stats.Table, error) {
	const machineName = "nehalem-quad/8"
	desc, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	prog, err := fourArrayTraversal()
	if err != nil {
		return nil, err
	}
	nConfigs := 48
	if cfg.Quick {
		nConfigs = 8
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%s: 4-array movss traversal on %d cores, alignment configurations", id, cores),
		XLabel: "alignment configuration",
		YLabel: "cycles/iteration",
	}
	series := t.AddSeries(fmt.Sprintf("%d cores", cores))
	// Deterministic configuration enumeration: a cross product of page
	// offsets per array (the paper sweeps "upwards of 2500" such
	// configurations). The product includes configurations where a store
	// stream lands on a load stream's page offset — the 4K-aliasing cases
	// that make alignment matter. Each configuration is one point of the
	// sweep.
	offsets := []int64{0, 128, 1024, 2112}
	var sw sweep
	for i := 0; i < nConfigs; i++ {
		opts := launcher.DefaultOptions()
		opts.MachineName = machineName
		opts.Mode = launcher.Fork
		opts.Cores = cores
		opts.Alignments = []int64{
			offsets[i%4],
			offsets[(i/4)%4],
			offsets[(i/16)%4],
			offsets[(i/64)%4],
		}
		opts.ArrayBytes = desc.Hierarchy.L3.Size
		opts.InnerReps = 1
		opts.OuterReps = 1
		opts.MaxInstructions = 60_000
		if cfg.Quick {
			opts.MaxInstructions = 25_000
		}
		sw.add(fmt.Sprintf("%s config %d", id, i), prog, opts, func(m *launcher.Measurement) {
			series.Add(float64(i), m.Value)
		})
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	cfg.logf("%s: %d cores, %.1f-%.1f cycles/iter across %d configs",
		id, cores, series.MinY(), series.MaxY(), nConfigs)
	return t, nil
}
