package sim

import (
	"fmt"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
	"microtools/internal/machine"
)

func testMachine(t *testing.T, name string) *Machine {
	t.Helper()
	desc, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(desc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadKernel(u int) string {
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&b, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\n", 16*u)
	b.WriteString("add $1, %eax\n")
	fmt.Fprintf(&b, "sub $%d, %%rdi\n", 4*u)
	b.WriteString("jge .L0\nret\n")
	return b.String()
}

func job(t *testing.T, core int, u int, elems uint64, base uint64) Job {
	t.Helper()
	p, err := asm.ParseOne(loadKernel(u), fmt.Sprintf("k%d", core))
	if err != nil {
		t.Fatal(err)
	}
	var rf isa.RegFile
	rf.Set(isa.RDI, elems-1)
	rf.Set(isa.RSI, base)
	return Job{Core: core, Prog: p, Regs: rf}
}

func TestMachineByNameAndScaling(t *testing.T) {
	for _, n := range []string{"nehalem-dual", "nehalem-quad", "sandybridge"} {
		if _, err := machine.ByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if _, err := machine.ByName(n + "/8"); err != nil {
			t.Errorf("%s/8: %v", n, err)
		}
	}
	if _, err := machine.ByName("pentium4"); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := machine.ByName("sandybridge/3"); err == nil {
		t.Error("non-power-of-two scale accepted")
	}
	m, _ := machine.ByName("nehalem-dual/8")
	base, _ := machine.ByName("nehalem-dual")
	if m.Hierarchy.L1.Size*8 != base.Hierarchy.L1.Size {
		t.Error("scaling did not divide L1")
	}
	if m.Hierarchy.L1.Latency != base.Hierarchy.L1.Latency {
		t.Error("scaling changed latency")
	}
}

func TestSingleJobRuns(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	res, err := m.RunOne(job(t, 0, 8, 32*1000, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.EAX != 1000 {
		t.Errorf("eax = %d, want 1000 iterations", res.EAX)
	}
	if res.Cycles <= 0 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() JobResult {
		m := testMachine(t, "nehalem-dual/8")
		res, err := m.RunOne(job(t, 0, 4, 16*500, 0x100000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestMultiCoreContention reproduces the Fig. 14 mechanism end to end: the
// same RAM-resident kernel on many cores is slower per core than alone.
func TestMultiCoreContention(t *testing.T) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	perCore := func(n int) float64 {
		m, err := New(desc)
		if err != nil {
			t.Fatal(err)
		}
		size := desc.Hierarchy.L3.Size * 2
		elems := uint64(size / 4)
		var jobs []Job
		for c := 0; c < n; c++ {
			base := uint64(0x10000000) + uint64(c)*uint64(size)*2
			m.Touch(c, base, size) // warm what fits
			jobs = append(jobs, job(t, c, 8, elems, base))
		}
		rs, err := m.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for _, r := range rs {
			cpi := float64(r.Cycles) / float64(r.EAX)
			if cpi > worst {
				worst = cpi
			}
		}
		return worst
	}
	one := perCore(1)
	twelve := perCore(12)
	if twelve < one*1.5 {
		t.Errorf("12-core cycles/iter %.1f not clearly above 1-core %.1f", twelve, one)
	}
}

// TestFrequencyDomains reproduces Fig. 13's mechanism: in TSC cycles, an
// L1-resident kernel slows down when the core clock drops, while a
// RAM-resident kernel stays roughly constant.
func TestFrequencyDomains(t *testing.T) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	tscPerIter := func(ghz float64, footprint int64) float64 {
		m, err := New(desc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetCoreFrequency(ghz); err != nil {
			t.Fatal(err)
		}
		elems := uint64(footprint / 4)
		base := uint64(0x100000)
		m.Touch(0, base, footprint)
		res, err := m.RunOne(job(t, 0, 8, elems, base))
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Cycles) * m.Desc.RefGHz / m.coreGHz / float64(res.EAX)
	}
	l1 := desc.Hierarchy.L1.Size / 2
	ram := desc.Hierarchy.L3.Size * 4

	l1Fast := tscPerIter(2.67, l1)
	l1Slow := tscPerIter(1.60, l1)
	if l1Slow < l1Fast*1.3 {
		t.Errorf("L1 kernel TSC/iter at 1.6GHz (%.2f) not clearly above 2.67GHz (%.2f)", l1Slow, l1Fast)
	}
	ramFast := tscPerIter(2.67, ram)
	ramSlow := tscPerIter(1.60, ram)
	ratio := ramSlow / ramFast
	if ratio > 1.25 || ratio < 0.75 {
		t.Errorf("RAM kernel TSC/iter changed %.2fx across frequencies, want ~constant", ratio)
	}
}

// TestNoiseIncreasesVarianceAndProtocolSuppressesIt is the §4.7 stability
// claim: with noise on, repeated runs vary; with noise off (MicroLauncher's
// protocol), they are identical.
func TestNoiseIncreasesVarianceAndProtocolSuppressesIt(t *testing.T) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	runs := func(noise bool, seed int64) []int64 {
		var out []int64
		for rep := 0; rep < 4; rep++ {
			m, err := New(desc)
			if err != nil {
				t.Fatal(err)
			}
			if noise {
				if err := m.SetNoise(DefaultNoise(seed + int64(rep))); err != nil {
					t.Fatal(err)
				}
			}
			res, err := m.RunOne(job(t, 0, 4, 16*4000, 0x100000))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Cycles)
		}
		return out
	}
	quiet := runs(false, 0)
	for _, c := range quiet[1:] {
		if c != quiet[0] {
			t.Errorf("quiet runs differ: %v", quiet)
		}
	}
	noisy := runs(true, 7)
	varies := false
	for _, c := range noisy[1:] {
		if c != noisy[0] {
			varies = true
		}
	}
	if !varies {
		t.Errorf("noisy runs identical: %v", noisy)
	}
	if noisy[0] <= quiet[0] {
		t.Errorf("noise did not cost cycles: noisy %d vs quiet %d", noisy[0], quiet[0])
	}
}

func TestRunRejectsBadPinning(t *testing.T) {
	m := testMachine(t, "sandybridge/8")
	j := job(t, 0, 1, 64, 0x100000)
	if _, err := m.Run([]Job{j, j}); err == nil {
		t.Error("two jobs on one core accepted")
	}
	j2 := job(t, 99, 1, 64, 0x100000)
	if _, err := m.Run([]Job{j2}); err == nil {
		t.Error("core 99 on a 4-core machine accepted")
	}
	if _, err := m.Run(nil); err == nil {
		t.Error("empty job list accepted")
	}
	if err := m.SetCoreFrequency(-1); err == nil {
		t.Error("negative frequency accepted")
	}
}

// TestRunStreamChainsJobs: follow-on jobs run on the finishing core and
// their results accumulate in completion order.
func TestRunStreamChainsJobs(t *testing.T) {
	m := testMachine(t, "sandybridge/8")
	handed := 0
	initial := []Job{job(t, 0, 1, 256, 0x100000), job(t, 1, 1, 256, 0x200000)}
	rs, err := m.RunStream(initial, func(slot int, r JobResult) *Job {
		if handed >= 4 {
			return nil
		}
		handed++
		j := job(t, slot, 1, 256, uint64(0x300000+handed*0x10000))
		j.Core = initial[slot].Core
		return &j
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 initial + 4 follow-ons.
	if len(rs) != 6 {
		t.Fatalf("results = %d, want 6", len(rs))
	}
	var prev int64
	for _, r := range rs {
		if r.EndCycle < prev {
			t.Errorf("results not in completion order: %d after %d", r.EndCycle, prev)
		}
		prev = r.EndCycle
		if r.EAX == 0 {
			t.Error("job did not run")
		}
	}
}

// TestRunStreamRejectsCoreMigration: a follow-on job must stay on its slot's
// core.
func TestRunStreamRejectsCoreMigration(t *testing.T) {
	m := testMachine(t, "sandybridge/8")
	first := true
	_, err := m.RunStream([]Job{job(t, 0, 1, 128, 0x100000)}, func(slot int, r JobResult) *Job {
		if !first {
			return nil
		}
		first = false
		j := job(t, 2, 1, 128, 0x200000) // wrong core
		return &j
	})
	if err == nil {
		t.Error("core migration accepted")
	}
}

// TestRunStreamDeterminism: identical streams produce identical results.
func TestRunStreamDeterminism(t *testing.T) {
	run := func() []StreamResult {
		m := testMachine(t, "nehalem-dual/8")
		n := 0
		rs, err := m.RunStream(
			[]Job{job(t, 0, 2, 512, 0x100000), job(t, 1, 2, 512, 0x200000)},
			func(slot int, r JobResult) *Job {
				if n >= 3 {
					return nil
				}
				n++
				j := job(t, slot, 2, 512, uint64(0x400000+n*0x20000))
				j.Core = slot
				return &j
			})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
