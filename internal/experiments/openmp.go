package experiments

import (
	"context"
	"fmt"

	"microtools/internal/launcher"
	"microtools/internal/stats"
)

// ompMachine is the Sandy Bridge of Figs. 17-18 / Table 2, caches scaled
// 1/8. The paper's 128k-element array (512KB of floats vs the real 8MB L3)
// scales to 16k elements (64KB vs the scaled 1MB L3); its 6M-element array
// (24MB, RAM) scales to 750k elements (3MB, still RAM).
const ompMachine = "sandybridge/8"

const (
	// smallElems (64KB of floats) is the paper's 128k-element (512KB)
	// array scaled 1/8: L3-resident, and each thread's chunk fits its
	// private L2 — which is what makes the cache-resident OpenMP gain the
	// larger one (§5.2.3).
	smallElems = 16 << 10
	// largeElems (3MB) is the 6M-element (24MB) array scaled 1/8:
	// RAM-resident on the scaled 1MB L3.
	largeElems = 750 << 10
	// largeElemsQuick keeps RAM residency (1.6MB vs 1MB L3) with full,
	// untruncated calls in quick mode.
	largeElemsQuick = 400 << 10
)

func init() {
	register(&Experiment{
		ID:      "fig17",
		Title:   "OpenMP vs sequential, movss loads, cache-resident array (128k elements scaled)",
		Paper:   "log scale; the OpenMP version is consistently faster; unrolling helps the sequential version but barely moves the OpenMP one (parallel setup overhead); the cache-resident array yields the bigger OpenMP gain",
		Machine: ompMachine,
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			return runOpenMPFigure(ctx, cfg, "fig17", smallElems)
		},
	})
	register(&Experiment{
		ID:      "fig18",
		Title:   "OpenMP vs sequential, movss loads, RAM-resident array (6M elements scaled)",
		Paper:   "same protocol on the RAM-resident array: the OpenMP gain shrinks (shared memory bandwidth bounds the team)",
		Machine: ompMachine,
		Run: func(ctx context.Context, cfg Config) (*stats.Table, error) {
			elems := int64(largeElems)
			if cfg.Quick {
				elems = largeElemsQuick
			}
			return runOpenMPFigure(ctx, cfg, "fig18", elems)
		},
	})
	register(&Experiment{
		ID:      "tab02",
		Title:   "Table 2: OpenMP vs sequential execution time (seconds) per unroll factor",
		Paper:   "sequential time falls from 18.30s to ~14.5s across unroll 1..8; OpenMP time is flat (~9.3s) — bandwidth-bound team plus region overhead",
		Machine: ompMachine,
		Run:     runTab02,
	})
}

func ompBaseOptions(elems int64, quick bool) launcher.Options {
	opts := launcher.DefaultOptions()
	opts.MachineName = ompMachine
	opts.ArrayBytes = elems * 4
	opts.InnerReps = 1
	opts.OuterReps = 2
	opts.MaxInstructions = 400_000
	// The machine's caches (and with them the array sizes) are scaled
	// 1/8; scale the OpenMP region overheads identically so the
	// work-to-overhead ratio matches the paper's.
	opts.OMPOverheadScale = 1.0 / 8
	if quick {
		opts.OuterReps = 1
		opts.MaxInstructions = 80_000
	}
	return opts
}

func runOpenMPFigure(ctx context.Context, cfg Config, id string, elems int64) (*stats.Table, error) {
	unrolls := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		unrolls = []int{1, 2, 4, 8}
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("%s: movss loads, sequential vs OpenMP, %d elements", id, elems),
		XLabel: "unroll factor",
		YLabel: "cycles/element",
		LogY:   true,
	}
	seq := t.AddSeries("sequential")
	omp := t.AddSeries("openmp")
	var sw sweep
	for _, u := range unrolls {
		prog, err := loadOnlyKernel("movss", u)
		if err != nil {
			return nil, err
		}
		opts := ompBaseOptions(elems, cfg.Quick)
		// The launcher's inner repetitions run inside one parallel region
		// (§4.5 protocol + libgomp-style team reuse), amortizing the fork
		// cost as the paper's fixed-repetition runs do.
		opts.InnerReps = 16
		if cfg.Quick {
			opts.InnerReps = 8
		}
		if elems*4 > 1<<20 {
			// RAM-resident array: run whole calls (a truncated call
			// re-measures a cache-resident prefix) and fewer repetitions.
			opts.MaxInstructions = 0
			opts.InnerReps = 2
		}
		// One loop iteration consumes u elements; per-element cost is the
		// comparable quantity across unroll factors.
		sw.add(fmt.Sprintf("%s seq u=%d", id, u), prog, opts, func(m *launcher.Measurement) {
			seq.Add(float64(u), m.Value/float64(u))
		})

		po := opts
		po.Mode = launcher.OpenMP
		po.Cores = 4
		// OpenMP runs split the trip across threads; do not truncate the
		// (already 4x shorter) chunks as aggressively.
		sw.add(fmt.Sprintf("%s omp u=%d", id, u), prog, po, func(pm *launcher.Measurement) {
			omp.Add(float64(u), pm.Value/float64(u))
			cfg.logf("%s u=%d: seq %.3f omp %.3f cycles/element",
				id, u, seq.Points[len(seq.Points)-1].Y, pm.Value/float64(u))
		})
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}

// tab02Calls is the fixed number of kernel invocations Table 2's wall-clock
// seconds are reported for; it plays the role of the paper's fixed
// repetition count that produced its 9-18s run times.
const tab02Calls = 4000

func runTab02(ctx context.Context, cfg Config) (*stats.Table, error) {
	unrolls := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		unrolls = []int{1, 4, 8}
	}
	t := &stats.Table{
		Title:  "Table 2: execution time of the OpenMP and sequential movss versions",
		XLabel: "unroll factor",
		YLabel: "seconds",
	}
	seq := t.AddSeries("sequential (s)")
	omp := t.AddSeries("openmp (s)")
	// Truncated calls cover iterations*u elements; normalize the measured
	// whole-call seconds to the full array and the fixed repetition count
	// so unroll factors compare fairly.
	normalize := func(m *launcher.Measurement, coveredElems float64) float64 {
		if coveredElems <= 0 {
			return 0
		}
		return m.Value * float64(largeElems) / coveredElems * tab02Calls
	}
	var sw sweep
	for _, u := range unrolls {
		prog, err := loadOnlyKernel("movss", u)
		if err != nil {
			return nil, err
		}
		opts := ompBaseOptions(largeElems, cfg.Quick)
		opts.TimeUnit = launcher.UnitSeconds
		opts.PerIteration = false
		opts.OuterReps = 1
		if !cfg.Quick {
			// Accurate mode runs whole calls so the OpenMP region
			// overhead amortizes exactly as it would in the paper's
			// fixed-repetition runs.
			opts.MaxInstructions = 0
		}
		sw.add(fmt.Sprintf("tab02 seq u=%d", u), prog, opts, func(m *launcher.Measurement) {
			seq.Add(float64(u), normalize(m, float64(m.Iterations)*float64(u)))
		})

		po := opts
		po.Mode = launcher.OpenMP
		po.Cores = 4
		sw.add(fmt.Sprintf("tab02 omp u=%d", u), prog, po, func(pm *launcher.Measurement) {
			// OpenMP iterations are summed across the team; each covers
			// u elements, and the team advances in parallel, so the
			// covered element count is the team-wide total.
			omp.Add(float64(u), normalize(pm, float64(pm.Iterations)*float64(u)))
			cfg.logf("tab02 u=%d: seq %.2fs omp %.2fs",
				u, seq.Points[len(seq.Points)-1].Y, omp.Points[len(omp.Points)-1].Y)
		})
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}
