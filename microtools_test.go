package microtools

import (
	"context"
	"strings"
	"testing"

	"microtools/internal/core"
	"microtools/internal/experiments"
	"microtools/internal/machine"
)

// TestFacadeEndToEnd exercises the whole public surface: generate the
// paper's Fig. 6 family, reload a variant from its assembly text, and
// launch it.
func TestFacadeEndToEnd(t *testing.T) {
	progs, err := GenerateString(context.Background(), fig6Spec(), GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 510 {
		t.Fatalf("generated %d variants, want the paper's 510", len(progs))
	}

	asmText, err := progs[0].Assembly()
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := core.LoadKernel(asmText, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultLaunchOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 4 << 10
	opts.InnerReps = 1
	opts.OuterReps = 2
	m, err := Launch(context.Background(), kernel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Value <= 0 || m.Kernel != progs[0].Name {
		t.Errorf("measurement = %+v", m)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	exps := experiments.All()
	if len(exps) < 13 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	if _, err := RunExperiment(context.Background(), "no-such", ExperimentConfig{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeMachines(t *testing.T) {
	names := machine.Names()
	if len(names) != 3 {
		t.Fatalf("machines = %v", names)
	}
	for _, n := range names {
		if _, err := MachineByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestFacadeRun(t *testing.T) {
	spec := strings.Replace(fig6Spec(), "<unrolling><min>1</min><max>8</max></unrolling>", "<unrolling><min>1</min><max>2</max></unrolling>", 1)
	opts := DefaultLaunchOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 4 << 10
	opts.InnerReps = 1
	opts.OuterReps = 1
	res, err := RunCampaign(context.Background(), strings.NewReader(spec), GenerateOptions{}, CampaignOptions{Launch: opts})
	if err != nil {
		t.Fatal(err)
	}
	// unroll 1..2 with swap-after: 2 + 4 = 6 variants.
	if ms := res.Measurements(); len(ms) != 6 {
		t.Fatalf("measured %d variants, want 6", len(ms))
	}
}
