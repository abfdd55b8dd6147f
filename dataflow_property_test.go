package microtools

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/launcher"
)

// TestStaticBoundNeverExceedsSimulation is the cross-check property behind
// the campaign's oracle invariant, asserted directly against the launcher:
// for every sampled variant of every shipped spec, internal/dataflow's
// CyclesLowerBound (scaled to the kernel's counter step) must not exceed the
// simulated core cycles per iteration beyond the calibration tolerance. The
// bound and the simulator consume the same decode tables, so a failure here
// is an analysis bug, not measurement noise.
func TestStaticBoundNeverExceedsSimulation(t *testing.T) {
	paths, err := filepath.Glob("specs/*.xml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	arch := isa.Nehalem()
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.TimeUnit = launcher.UnitCoreCycles
	opts.ArrayBytes = 1 << 12
	opts.InnerReps = 1
	opts.OuterReps = 1
	opts.MaxInstructions = 10_000

	checked := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := GenerateString(context.Background(), string(data), GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, p := range progs {
			if i%29 != 0 {
				continue // sample large families; small ones are covered fully
			}
			asmText, err := p.Assembly()
			if err != nil {
				t.Fatalf("%s: %s does not render: %v", path, p.Name, err)
			}
			kernel, err := core.LoadKernel(asmText, "")
			if err != nil {
				t.Fatalf("%s: %s does not reload: %v", path, p.Name, err)
			}
			rep, err := dataflow.Analyze(kernel, arch)
			if err != nil || rep.CounterStep <= 0 {
				continue // no loop or unknown counter: the bound does not apply
			}
			bound := rep.CyclesLowerBound / float64(rep.CounterStep)
			m, err := Launch(context.Background(), kernel, opts)
			if err != nil {
				t.Fatalf("%s: launch %s: %v", path, p.Name, err)
			}
			if m.Truncated || m.Iterations == 0 {
				continue
			}
			measured := m.Summary.Min
			if m.Summary.N == 0 {
				measured = m.Value
			}
			// Same allowance as campaign.boundTolerance: calibration
			// over-subtraction plus per-call pipeline-fill slack.
			tol := 0.02*bound + (m.OverheadCycles+float64(isa.NumRegs)*bound+16)/float64(m.Iterations)
			if measured < bound-tol {
				t.Errorf("%s: %s measured %.4f core cycles/iteration < static bound %.4f (tol %.4f)",
					path, p.Name, measured, bound, tol)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("property only exercised on %d variants; sampling is broken", checked)
	}
}
