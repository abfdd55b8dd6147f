package experiments

import (
	"context"
	"fmt"

	"microtools/internal/core"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/stats"
)

// The ext-* experiments implement studies the paper names but does not
// evaluate: §3.5's "current uses" (stride effects, arithmetic hiding) and
// the §7 power-utilization direction.

func init() {
	register(&Experiment{
		ID:      "ext-stride",
		Title:   "Stride effects on a movss traversal (§3.5: \"detect the effect of strides\")",
		Paper:   "not evaluated in the paper; expectation: cost per access rises as the stride wastes more of each line and defeats the stream prefetcher, flattening once every access touches a fresh line",
		Machine: seqMachine,
		Run:     runExtStride,
	})
	register(&Experiment{
		ID:      "ext-arith",
		Title:   "Arithmetic hidden by a memory-bound kernel (§3.5)",
		Paper:   "not evaluated in the paper; expectation: several arithmetic instructions per load are free under a RAM-resident stream before compute becomes the bottleneck",
		Machine: seqMachine,
		Run:     runExtArith,
	})
	register(&Experiment{
		ID:      "ext-power",
		Title:   "Energy and energy-delay vs core frequency (§7 power utilization)",
		Paper:   "not evaluated in the paper; expectation: for a core-bound kernel the energy-optimal frequency sits below the performance-optimal one; for a RAM-bound kernel racing to idle loses",
		Machine: seqMachine,
		Run:     runExtPower,
	})
}

// strideSpec drives the real select-strides pass: one variant per stride
// choice.
func strideSpec(strides []int64) string {
	list := ""
	for _, s := range strides {
		list += fmt.Sprintf("<value>%d</value>", s)
	}
	return fmt.Sprintf(`
<kernel name="stride_study">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%%xmm0</phyName></register>
  </instruction>
  <induction>
    <register><name>r1</name></register>
    <stride>%s</stride>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <last_induction/>
  </induction>
  <induction>
    <register><phyName>%%eax</phyName></register>
    <increment>1</increment>
    <not_affected_unroll/>
  </induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`, list)
}

func runExtStride(ctx context.Context, cfg Config) (*stats.Table, error) {
	strides := []int64{4, 16, 64, 128, 256, 1024}
	if cfg.Quick {
		strides = []int64{4, 64, 256}
	}
	progs, err := core.GenerateString(ctx, strideSpec(strides), core.GenerateOptions{})
	if err != nil {
		return nil, err
	}
	if len(progs) != len(strides) {
		return nil, fmt.Errorf("ext-stride: %d variants for %d strides", len(progs), len(strides))
	}
	desc, err := machine.ByName(seqMachine)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "ext-stride: movss traversal cost vs stride (RAM-resident array)",
		XLabel: "stride (bytes)",
		YLabel: "cycles/access",
	}
	series := t.AddSeries("cycles/access")
	var sw sweep
	for i, stride := range strides {
		p, err := progs[i].Lowered()
		if err != nil {
			return nil, err
		}
		opts := launcher.DefaultOptions()
		opts.MachineName = seqMachine
		// Keep the touched footprint constant (RAM-resident) across
		// strides: trip = footprint / stride accesses.
		footprint := desc.Hierarchy.L3.Size * 2
		opts.ArrayBytes = footprint
		opts.TripElements = footprint / stride
		opts.InnerReps = 1
		opts.OuterReps = 2
		opts.MaxInstructions = 120_000
		if cfg.Quick {
			opts.OuterReps = 1
			opts.MaxInstructions = 40_000
		}
		sw.add(fmt.Sprintf("ext-stride %d", stride), p, opts, func(m *launcher.Measurement) {
			series.Add(float64(stride), m.Value)
			cfg.logf("ext-stride %d: %.3f cycles/access", stride, m.Value)
		})
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}

// arithSpec drives the real repeat-instructions pass: the addps instruction
// carries a repetition range, producing one variant per arithmetic count.
func arithSpec(maxArith int) string {
	return fmt.Sprintf(`
<kernel name="arith_study">
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%%xmm0</phyName></register>
  </instruction>
  <instruction>
    <operation>addps</operation>
    <register><phyName>%%xmm</phyName><min>1</min><max>8</max></register>
    <register><phyName>%%xmm</phyName><min>1</min><max>8</max></register>
    <repetition><min>1</min><max>%d</max></repetition>
  </instruction>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-4</increment>
    <last_induction/>
  </induction>
  <induction>
    <register><phyName>%%eax</phyName></register>
    <increment>1</increment>
    <not_affected_unroll/>
  </induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`, maxArith)
}

func runExtArith(ctx context.Context, cfg Config) (*stats.Table, error) {
	maxArith := 12
	if cfg.Quick {
		maxArith = 8
	}
	progs, err := core.GenerateString(ctx, arithSpec(maxArith), core.GenerateOptions{})
	if err != nil {
		return nil, err
	}
	desc, err := machine.ByName(seqMachine)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "ext-arith: cycles/iteration vs arithmetic instructions per RAM-resident load",
		XLabel: "addps instructions per iteration",
		YLabel: "cycles/iteration",
	}
	series := t.AddSeries("RAM-resident")
	var sw sweep
	for i := range progs {
		p, err := progs[i].Lowered()
		if err != nil {
			return nil, err
		}
		arith := p.StaticStats().SSEArith
		opts := launcher.DefaultOptions()
		opts.MachineName = seqMachine
		opts.ArrayBytes = desc.Hierarchy.L3.Size * 2
		opts.InnerReps = 1
		opts.OuterReps = 2
		opts.MaxInstructions = 120_000
		if cfg.Quick {
			opts.OuterReps = 1
			opts.MaxInstructions = 40_000
		}
		sw.add(fmt.Sprintf("ext-arith %d", arith), p, opts, func(m *launcher.Measurement) {
			series.Add(float64(arith), m.Value)
			cfg.logf("ext-arith %d addps: %.3f cycles/iter", arith, m.Value)
		})
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	return t, nil
}

func runExtPower(ctx context.Context, cfg Config) (*stats.Table, error) {
	desc, err := machine.ByName(seqMachine)
	if err != nil {
		return nil, err
	}
	freqs := desc.FrequencyStepsGHz
	if cfg.Quick {
		freqs = []float64{freqs[0], freqs[len(freqs)/2], freqs[len(freqs)-1]}
	}
	prog, err := loadOnlyKernel("movaps", 8)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "ext-power: normalized energy-delay product vs core frequency",
		XLabel: "core frequency (GHz)",
		YLabel: "EDP (normalized to the lowest frequency)",
	}
	var sw sweep
	noEnergy := false
	for _, level := range []struct {
		name  string
		bytes int64
	}{
		{"L1-bound", desc.Hierarchy.L1.Size / 2},
		{"RAM-bound", desc.Hierarchy.L3.Size * 2},
	} {
		series := t.AddSeries(level.name)
		base := 0.0
		for _, f := range freqs {
			opts := launcher.DefaultOptions()
			opts.MachineName = seqMachine
			opts.CoreFrequencyGHz = f
			opts.ArrayBytes = level.bytes
			opts.ReportEnergy = true
			opts.InnerReps = 2
			opts.OuterReps = 1
			opts.MaxInstructions = 120_000
			if cfg.Quick {
				opts.MaxInstructions = 60_000
			}
			sw.add(fmt.Sprintf("ext-power %s %.2f", level.name, f), prog, opts, func(m *launcher.Measurement) {
				if m.Energy == nil {
					noEnergy = true
					return
				}
				edp := m.Energy.EnergyDelayProduct
				if base == 0 {
					base = edp
				}
				series.Add(f, edp/base)
				cfg.logf("ext-power %s %.2fGHz: EDP %.3g J·s (%.2fx)", level.name, f, edp, edp/base)
			})
		}
	}
	if err := cfg.measure(ctx, &sw); err != nil {
		return nil, err
	}
	if noEnergy {
		return nil, fmt.Errorf("ext-power: no energy estimate")
	}
	return t, nil
}
