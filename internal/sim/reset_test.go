package sim

import (
	"reflect"
	"testing"

	"microtools/internal/faults"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// withoutRetained copies a machine minus the state Reset deliberately
// keeps: the pooled cores (every job Resets its core) and the reusable
// run scratch.
func withoutRetained(m *Machine) Machine {
	c := *m
	c.pool, c.seen = nil, nil
	c.runIRQ, c.runCores, c.runActive = nil, nil, nil
	return c
}

// dirty runs a machine through every piece of state a launch can leave
// behind: another frequency, seeded noise, an armed fault plan, trace
// span and telemetry, and single, multi-core and streamed jobs.
func dirty(t *testing.T, m *Machine, met *telemetry.Metrics) {
	t.Helper()
	if err := m.SetCoreFrequency(1.6); err != nil {
		t.Fatal(err)
	}
	if err := m.SetNoise(DefaultNoise(11)); err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(met)
	m.SetTraceSpan(obs.New().Start("dirty"))
	m.Touch(0, 0x100000, 4096)
	if _, err := m.RunOne(job(t, 0, 4, 16*300, 0x100000)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]Job{job(t, 0, 2, 16*300, 0x100000), job(t, 1, 4, 16*300, 0x400000)}); err != nil {
		t.Fatal(err)
	}
	left := 2
	if _, err := m.RunStream([]Job{job(t, 0, 1, 16*50, 0x100000)}, func(int, JobResult) *Job {
		if left--; left < 0 {
			return nil
		}
		j := job(t, 0, 1, 16*50, 0x100000)
		return &j
	}); err != nil {
		t.Fatal(err)
	}
	m.SetFaults(faults.New(1).SetRate(faults.PointSimStep, 1), "armed")
}

// TestMachineResetMatchesNew pins Machine.Reset structurally: after a
// dirty launch history the machine deep-equals a freshly built one
// (memory system included), apart from its retained core pool and
// scratch, so a field added later that Reset forgets fails here.
func TestMachineResetMatchesNew(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	fresh := testMachine(t, "nehalem-dual/8")
	met := telemetry.NewMetrics(telemetry.NewRegistry())
	dirty(t, m, met)
	if reflect.DeepEqual(withoutRetained(m), withoutRetained(fresh)) {
		t.Fatal("dirtying changed nothing; the test proves nothing")
	}
	m.Reset()
	if !reflect.DeepEqual(withoutRetained(m), withoutRetained(fresh)) {
		t.Fatalf("reset machine differs from a fresh one:\nreset %+v\nfresh %+v",
			withoutRetained(m), withoutRetained(fresh))
	}
	for core, taken := range m.seen {
		if taken {
			t.Errorf("pin scratch still claims core %d after Reset", core)
		}
	}
	if met.SimInstsRetired.Value() == 0 {
		t.Error("Reset dropped the previous owner's pending instruction count")
	}

	// The reset machine measures exactly what the fresh one does.
	for _, mach := range []*Machine{m, fresh} {
		if err := mach.SetNoise(DefaultNoise(5)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := m.Run([]Job{job(t, 0, 4, 16*400, 0x100000), job(t, 1, 4, 16*400, 0x400000)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Run([]Job{job(t, 0, 4, 16*400, 0x100000), job(t, 1, 4, 16*400, 0x400000)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || m.Sys.Stats() != fresh.Sys.Stats() {
		t.Errorf("reset machine diverged: %+v vs %+v", a, b)
	}
}

func TestMachineResetAllocatesNothing(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	dirty(t, m, nil)
	if n := testing.AllocsPerRun(10, m.Reset); n != 0 {
		t.Errorf("Reset allocated %.0f objects per call, want 0", n)
	}
}
