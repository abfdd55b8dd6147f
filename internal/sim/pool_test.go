package sim

import (
	"testing"
	"time"

	"microtools/internal/asm"
	"microtools/internal/isa"
)

func parseKernel(t *testing.T, u int, name string) *isa.Program {
	t.Helper()
	p, err := asm.ParseOne(loadKernel(u), name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func jobFor(p *isa.Program, core int, elems, base uint64) Job {
	var rf isa.RegFile
	rf.Set(isa.RDI, elems-1)
	rf.Set(isa.RSI, base)
	return Job{Core: core, Prog: p, Regs: rf}
}

// within fails the test if f does not finish inside d — the harness for the
// "scheduler spins without progressing" class of regressions, which hang
// rather than fail.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("timed out: scheduler spun without progress")
	}
}

func TestSetNoiseValidation(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	good := DefaultNoise(1)
	if err := m.SetNoise(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []NoiseConfig{
		{Enabled: true},                       // zero interval used to panic in rand.Int63n
		{Enabled: true, IntervalCycles: -100}, // negative interval
		{Enabled: true, IntervalCycles: 100, CostCycles: -1},
		{Enabled: true, IntervalCycles: 100, CacheDisturbFraction: -0.1},
		{Enabled: true, IntervalCycles: 100, CacheDisturbFraction: 1.5},
	}
	for i, cfg := range bad {
		if err := m.SetNoise(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
		if m.noise != good {
			t.Errorf("config %d: failed SetNoise clobbered the machine's noise state", i)
		}
	}
	// The previously-panicking shape must now run, not crash.
	if _, err := m.RunOne(job(t, 0, 4, 16*100, 0x100000)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetNoise(NoiseConfig{}); err != nil {
		t.Fatalf("disabling noise: %v", err)
	}
	if m.noise.Enabled {
		t.Error("noise still enabled after disable")
	}
}

// TestCachedDecodeAndPooledCoresBitIdentical is the tentpole invariant: a
// machine that reuses one program (cached decode, pooled cores warm) must
// produce cycle-exact the same results as one decoding a fresh clone every
// repetition.
func TestCachedDecodeAndPooledCoresBitIdentical(t *testing.T) {
	shared := parseKernel(t, 4, "k")
	sequence := func(prog func() *isa.Program, noiseSeed int64) []JobResult {
		m := testMachine(t, "nehalem-dual/8")
		if noiseSeed != 0 {
			if err := m.SetNoise(DefaultNoise(noiseSeed)); err != nil {
				t.Fatal(err)
			}
		}
		var out []JobResult
		for rep := 0; rep < 3; rep++ {
			r, err := m.RunOne(jobFor(prog(), 0, 16*200, 0x100000))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
			rs, err := m.Run([]Job{
				jobFor(prog(), 0, 16*200, 0x100000),
				jobFor(prog(), 1, 16*200, 0x200000),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rs...)
		}
		return out
	}
	for _, seed := range []int64{0, 7} {
		cached := sequence(func() *isa.Program { return shared }, seed)
		fresh := sequence(func() *isa.Program { return shared.Clone() }, seed)
		if len(cached) != len(fresh) {
			t.Fatalf("seed %d: result counts differ: %d vs %d", seed, len(cached), len(fresh))
		}
		for i := range cached {
			if cached[i] != fresh[i] {
				t.Errorf("seed %d: result %d differs: cached %+v, fresh %+v",
					seed, i, cached[i], fresh[i])
			}
		}
	}
}

// TestRunStreamFollowOnLargeStartCycle is the regression for the lock-step
// window crawl: a follow-on job far in the future made RunStream spin one
// empty 64-cycle quantum at a time (~10^10 rounds for this start) instead of
// jumping the window to the job's start.
func TestRunStreamFollowOnLargeStartCycle(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	prog := parseKernel(t, 4, "k")
	const farFuture = int64(1) << 40
	within(t, 30*time.Second, func() {
		issued := false
		res, err := m.RunStream([]Job{jobFor(prog, 0, 16*100, 0x100000)},
			func(slot int, r JobResult) *Job {
				if issued {
					return nil
				}
				issued = true
				j := jobFor(prog, 0, 16*100, 0x100000)
				j.StartCycle = farFuture
				return &j
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("got %d results, want 2", len(res))
		}
		if res[1].EndCycle < farFuture {
			t.Errorf("follow-on finished at %d, before its start %d", res[1].EndCycle, farFuture)
		}
	})
}

// TestRunStaggeredJobFastForward is the same window-crawl regression for Run:
// a job batch whose second job starts far in the future must fast-forward to
// it, not spin empty quanta.
func TestRunStaggeredJobFastForward(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	prog := parseKernel(t, 4, "k")
	const farFuture = int64(1) << 40
	within(t, 30*time.Second, func() {
		late := jobFor(prog, 1, 16*100, 0x200000)
		late.StartCycle = farFuture
		rs, err := m.Run([]Job{jobFor(prog, 0, 16*100, 0x100000), late})
		if err != nil {
			t.Fatal(err)
		}
		if rs[1].EndCycle < farFuture {
			t.Errorf("late job finished at %d, before its start %d", rs[1].EndCycle, farFuture)
		}
	})
}

func TestPinValidation(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	prog := parseKernel(t, 4, "k")
	if _, err := m.RunOne(jobFor(prog, -1, 16*10, 0x100000)); err == nil {
		t.Error("negative core accepted")
	}
	if _, err := m.RunOne(jobFor(prog, m.Desc.Cores, 16*10, 0x100000)); err == nil {
		t.Error("out-of-range core accepted")
	}
	if _, err := m.Run([]Job{
		jobFor(prog, 0, 16*10, 0x100000),
		jobFor(prog, 0, 16*10, 0x200000),
	}); err == nil {
		t.Error("duplicate pin accepted by Run")
	}
	if _, err := m.RunStream([]Job{
		jobFor(prog, 0, 16*10, 0x100000),
		jobFor(prog, 0, 16*10, 0x200000),
	}, func(int, JobResult) *Job { return nil }); err == nil {
		t.Error("duplicate pin accepted by RunStream")
	}
	// The failed calls must not poison the pin scratch for later runs.
	if _, err := m.RunOne(jobFor(prog, 0, 16*10, 0x100000)); err != nil {
		t.Fatalf("machine unusable after pin errors: %v", err)
	}
}
