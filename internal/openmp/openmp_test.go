package openmp

import (
	"fmt"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/sim"
)

func testMachine(t *testing.T) *sim.Machine {
	t.Helper()
	desc, err := machine.ByName("sandybridge/8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(desc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadKernel(t *testing.T) *isa.Program {
	t.Helper()
	src := `
.L0:
movss (%rsi), %xmm0
add $4, %rsi
add $1, %eax
sub $1, %rdi
jge .L0
ret`
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkJob(t *testing.T, m *sim.Machine, prog *isa.Program, base uint64) MakeJob {
	t.Helper()
	return func(thread int, chunkStart, chunkLen int64) (sim.Job, error) {
		var rf isa.RegFile
		rf.Set(isa.RDI, uint64(chunkLen-1))
		rf.Set(isa.RSI, base+uint64(chunkStart*4))
		return sim.Job{Core: thread, Prog: prog, Regs: rf}, nil
	}
}

func TestChunkingCoversTrip(t *testing.T) {
	m := testMachine(t)
	prog := loadKernel(t)
	const trip = 4001 // deliberately not divisible by the team size
	res, err := ParallelFor(m, DefaultConfig(4), []int{0, 1, 2, 3}, trip, mkJob(t, m, prog, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != trip {
		t.Errorf("team iterations = %d, want %d", res.Iterations, trip)
	}
	if len(res.ThreadCycles) != 4 {
		t.Errorf("threads = %d", len(res.ThreadCycles))
	}
}

func TestRegionIncludesForkAndJoin(t *testing.T) {
	m := testMachine(t)
	prog := loadKernel(t)
	cfg := DefaultConfig(4)
	res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 4096, mkJob(t, m, prog, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	var maxThread int64
	for _, c := range res.ThreadCycles {
		if c > maxThread {
			maxThread = c
		}
	}
	minRegion := cfg.ForkCycles + maxThread + cfg.JoinCycles
	if res.RegionCycles < minRegion {
		t.Errorf("region %d below fork+slowest+join (%d)", res.RegionCycles, minRegion)
	}
}

func TestMoreThreadsShrinkRegionOnCacheResidentWork(t *testing.T) {
	prog := loadKernel(t)
	region := func(threads int) int64 {
		m := testMachine(t)
		pins := make([]int, threads)
		for i := range pins {
			pins[i] = i
		}
		// Warm the shared array on every participating core.
		for _, c := range pins {
			m.Touch(c, 0x100000, 256<<10)
		}
		cfg := DefaultConfig(threads)
		res, err := ParallelFor(m, cfg, pins, 65536, mkJob(t, m, prog, 0x100000))
		if err != nil {
			t.Fatal(err)
		}
		return res.RegionCycles
	}
	one := region(1)
	four := region(4)
	if four >= one {
		t.Errorf("4 threads (%d cycles) not faster than 1 (%d cycles)", four, one)
	}
}

func TestErrorCases(t *testing.T) {
	m := testMachine(t)
	prog := loadKernel(t)
	mk := mkJob(t, m, prog, 0x100000)
	if _, err := ParallelFor(m, Config{Threads: 0}, nil, 10, mk); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := ParallelFor(m, DefaultConfig(4), []int{0, 1}, 10, mk); err == nil {
		t.Error("fewer pins than threads accepted")
	}
	if _, err := ParallelFor(m, DefaultConfig(2), []int{0, 1}, 0, mk); err == nil {
		t.Error("zero trip accepted")
	}
	failing := func(int, int64, int64) (sim.Job, error) {
		return sim.Job{}, fmt.Errorf("nope")
	}
	if _, err := ParallelFor(m, DefaultConfig(2), []int{0, 1}, 10, failing); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Error("job construction error not propagated")
	}
}

func TestTripSmallerThanTeam(t *testing.T) {
	prog := loadKernel(t)
	// Two iterations on a four-thread team: two threads idle under the
	// static schedule; under the dynamic one the whole trip is one chunk,
	// which leaves three idle.
	for _, static := range []bool{true, false} {
		m := testMachine(t)
		cfg := DefaultConfig(4)
		cfg.StaticChunking = static
		res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 2, mkJob(t, m, prog, 0x100000))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 2 {
			t.Errorf("static=%v: iterations = %d, want 2", static, res.Iterations)
		}
		want := 2
		if !static {
			want = 1
		}
		if len(res.ThreadCycles) != want {
			t.Errorf("static=%v: active threads = %d, want %d", static, len(res.ThreadCycles), want)
		}
	}
}

func TestStaggeredWakeup(t *testing.T) {
	m := testMachine(t)
	prog := loadKernel(t)
	cfg := DefaultConfig(4)
	cfg.WakeupPerThread = 50_000 // exaggerate the stagger
	res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 4096, mkJob(t, m, prog, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	// Thread 3 starts 150k cycles after thread 0: the region must reflect
	// the stagger.
	if res.RegionCycles < 3*cfg.WakeupPerThread {
		t.Errorf("region %d does not include the wakeup stagger", res.RegionCycles)
	}
}

// TestDynamicScheduleCoversTrip: schedule(dynamic) executes every iteration
// exactly once regardless of chunk size.
func TestDynamicScheduleCoversTrip(t *testing.T) {
	m := testMachine(t)
	prog := loadKernel(t)
	cfg := DefaultConfig(4)
	cfg.StaticChunking = false
	cfg.ChunkElements = 300 // does not divide the trip
	res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 4001, mkJob(t, m, prog, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 4001 {
		t.Errorf("iterations = %d, want 4001", res.Iterations)
	}
}

// TestDynamicComparableToStaticWhenBalanced: on a quiet machine with
// homogeneous chunks, dynamic pays only its dispatch overhead over static.
func TestDynamicComparableToStaticWhenBalanced(t *testing.T) {
	prog := loadKernel(t)
	run := func(static bool) int64 {
		m := testMachine(t)
		for c := 0; c < 4; c++ {
			m.Touch(c, 0x100000, 64<<10)
		}
		cfg := DefaultConfig(4)
		cfg.StaticChunking = static
		cfg.ChunkElements = 2048
		res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 16384, mkJob(t, m, prog, 0x100000))
		if err != nil {
			t.Fatal(err)
		}
		return res.RegionCycles
	}
	st := run(true)
	dy := run(false)
	if dy > st*2 {
		t.Errorf("dynamic (%d cycles) more than 2x static (%d cycles) on balanced work", dy, st)
	}
}

// TestDynamicRebalancesAroundNoise: rare, large stalls (a descheduled
// thread) create imbalance; schedule(static) waits for the unluckiest
// thread at the barrier, while schedule(dynamic) lets the other threads
// absorb the queue.
func TestDynamicRebalancesAroundNoise(t *testing.T) {
	prog := loadKernel(t)
	run := func(static bool, seed int64) int64 {
		desc, err := machine.ByName("sandybridge/8")
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(desc)
		if err != nil {
			t.Fatal(err)
		}
		noise := sim.DefaultNoise(seed)
		noise.IntervalCycles = 60_000 // rare...
		noise.CostCycles = 150_000    // ...but long stalls
		noise.CacheDisturbFraction = 0
		if err := m.SetNoise(noise); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(4)
		cfg.StaticChunking = static
		cfg.ChunkElements = 2048
		res, err := ParallelFor(m, cfg, []int{0, 1, 2, 3}, 128<<10, mkJob(t, m, prog, 0x100000))
		if err != nil {
			t.Fatal(err)
		}
		return res.RegionCycles
	}
	var stTotal, dyTotal int64
	for seed := int64(1); seed <= 6; seed++ {
		stTotal += run(true, seed)
		dyTotal += run(false, seed)
	}
	if dyTotal >= stTotal {
		t.Errorf("dynamic under noise (%d total cycles) not below static (%d)", dyTotal, stTotal)
	}
}
