package experiments

import (
	"context"
	"fmt"

	"microtools/internal/launcher"
	"microtools/internal/stats"
)

func init() {
	register(&Experiment{
		ID:      "stability",
		Title:   "§4.7 stability study: launcher protocol vs raw noisy runs",
		Paper:   "\"Executing the tool multiple times on the same architecture with the same kernel must give the same result\" — the full protocol (pinning, warm-up, interrupt masking, repetitions) collapses run-to-run variation that a naive timing loop exhibits",
		Machine: seqMachine,
		Run:     runStability,
	})
}

// runStability measures the coefficient of variation of cycles/iteration
// across independent launcher invocations under four protocol settings.
func runStability(ctx context.Context, cfg Config) (*stats.Table, error) {
	prog, err := loadOnlyKernel("movaps", 4)
	if err != nil {
		return nil, err
	}
	runs := 8
	if cfg.Quick {
		runs = 4
	}
	type setting struct {
		name              string
		warmup, quiet     bool
		outerReps         int
		statistic         stats.Statistic
		perRunNoiseSeed   bool
		disableCalibation bool
	}
	settings := []setting{
		{"full protocol", true, true, 4, stats.StatMin, false, false},
		{"no warmup", false, true, 4, stats.StatMin, false, false},
		{"noise, protocol", true, false, 4, stats.StatMin, true, false},
		{"noise, naive", false, false, 1, stats.StatMean, true, true},
	}
	t := &stats.Table{
		Title:  "Stability: run-to-run coefficient of variation by protocol setting",
		XLabel: "setting index",
		YLabel: "CV of cycles/iteration (%)",
	}
	var sw sweep
	for si, st := range settings {
		series := t.AddSeries(st.name)
		// The CV is complete once the setting's last run is read.
		values := make([]float64, 0, runs)
		for r := 0; r < runs; r++ {
			opts := launcher.DefaultOptions()
			opts.MachineName = seqMachine
			opts.ArrayBytes = 256 << 10
			opts.Warmup = st.warmup
			opts.DisableInterrupts = st.quiet
			opts.NoiseSeed = int64(1000*si + r + 1)
			opts.OuterReps = st.outerReps
			opts.InnerReps = 2
			opts.Statistic = st.statistic
			opts.Calibrate = !st.disableCalibation
			opts.MaxInstructions = 600_000
			if cfg.Quick {
				opts.MaxInstructions = 250_000
			}
			sw.add(fmt.Sprintf("stability %q run %d", st.name, r), prog, opts, func(m *launcher.Measurement) {
				values = append(values, m.Value)
				if len(values) < runs {
					return
				}
				sum := stats.Summarize(values)
				series.Add(float64(si), 100*sum.CV())
				cfg.logf("stability %-18s CV=%.3f%% (min=%.2f max=%.2f)", st.name, 100*sum.CV(), sum.Min, sum.Max)
			})
		}
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}
