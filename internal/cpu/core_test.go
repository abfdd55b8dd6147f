package cpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
	"microtools/internal/memsim"
)

// fixedMem is a constant-latency memory stub for pure pipeline tests.
type fixedMem struct {
	lat int64
}

func (m fixedMem) Load(_ int, _ uint64, _ int, issue int64) int64  { return issue + m.lat }
func (m fixedMem) Store(_ int, _ uint64, _ int, issue int64) int64 { return issue + 1 }

func memConfig() memsim.HierarchyConfig {
	return memsim.HierarchyConfig{
		L1: memsim.CacheConfig{Name: "L1", Size: 4 << 10, LineSize: 64, Assoc: 8,
			Latency: 4, ThroughputCycles: 1, MSHRs: 10, Banks: 8},
		L2: memsim.CacheConfig{Name: "L2", Size: 32 << 10, LineSize: 64, Assoc: 8,
			Latency: 10, ThroughputCycles: 2},
		L3: memsim.CacheConfig{Name: "L3", Size: 256 << 10, LineSize: 64, Assoc: 16,
			Latency: 30, ThroughputCycles: 2},
		Mem:              memsim.MemConfig{Latency: 150, Channels: 3, ChannelBytesPerCycle: 4},
		CoresPerSocket:   4,
		CoreClockRatio:   1.0,
		NextLinePrefetch: true,
		AliasPenalty:     5,
		AliasWindow:      30,
		SplitPenalty:     3,
	}
}

// loadKernel builds a u-unrolled movaps load loop in assembly.
func loadKernel(u int) string {
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&b, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\n", 16*u)
	fmt.Fprintf(&b, "sub $%d, %%rdi\n", 4*u)
	b.WriteString("jge .L0\nret\n")
	return b.String()
}

// runKernel executes src until RET and returns (cycles, loop iterations).
func runKernel(t *testing.T, arch *isa.Arch, mem MemSystem, src string, n uint64, base uint64) (int64, int64) {
	t.Helper()
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	var rf isa.RegFile
	rf.Set(isa.RDI, n)
	rf.Set(isa.RSI, base)
	core := NewCore(0, arch, mem)
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	done, err := core.Step(math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("program did not finish")
	}
	res := core.Result()
	return res.Cycles, res.Insts
}

// cyclesPerIter measures steady-state cycles per loop iteration for a
// u-unrolled load kernel against a fixed-latency memory.
func cyclesPerIter(t *testing.T, arch *isa.Arch, u int) float64 {
	t.Helper()
	iters := int64(2000)
	n := uint64(4 * u * int(iters))
	cycles, _ := runKernel(t, arch, fixedMem{lat: 4}, loadKernel(u), n-1, 0x100000)
	return float64(cycles) / float64(iters)
}

// mixedKernel builds a u-unrolled kernel alternating loads and stores.
func mixedKernel(u int) string {
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		if c%2 == 0 {
			fmt.Fprintf(&b, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
		} else {
			fmt.Fprintf(&b, "movaps %%xmm%d, %d(%%rsi)\n", c%8, 16*c)
		}
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\n", 16*u)
	fmt.Fprintf(&b, "sub $%d, %%rdi\n", 4*u)
	b.WriteString("jge .L0\nret\n")
	return b.String()
}

// TestUnrollAmortizesLoopOverhead reproduces the Fig. 11 methodology on the
// core side. The paper takes, per unroll group, the minimum over the
// generated load/store patterns (§5.1); unrolling pays off because a longer
// body can pair loads with stores across the separate load and store ports,
// while the u=1 kernel is pinned at its single port's 1 op/cycle bound.
func TestUnrollAmortizesLoopOverhead(t *testing.T) {
	arch := isa.Nehalem()
	iters := int64(2000)

	// u=1 pure-load kernel: 1 load/cycle bound.
	perOp1 := cyclesPerIter(t, arch, 1)
	if perOp1 < 0.95 || perOp1 > 1.6 {
		t.Errorf("u=1 cycles/load = %.2f, want near the 1/cycle port bound", perOp1)
	}

	// u=8 best pattern (alternating L/S): loads and stores pair up.
	n := uint64(4*8*int(iters)) - 1
	cycles, _ := runKernel(t, arch, fixedMem{lat: 4}, mixedKernel(8), n, 0x100000)
	perOp8 := float64(cycles) / float64(iters) / 8
	if perOp8 >= perOp1*0.8 {
		t.Errorf("unrolled mixed pattern did not pair ports: u1=%.2f u8=%.2f cycles/op", perOp1, perOp8)
	}
	if perOp8 < 0.5 {
		t.Errorf("u=8 cycles/op = %.2f below the paired two-port bound", perOp8)
	}
}

// TestSandyBridgeLoadThroughput: two load ports allow < 1 cycle/load.
func TestSandyBridgeLoadThroughput(t *testing.T) {
	nhm := cyclesPerIter(t, isa.Nehalem(), 8) / 8
	snb := cyclesPerIter(t, isa.SandyBridge(), 8) / 8
	if snb >= nhm {
		t.Errorf("SNB cycles/load %.2f not below NHM %.2f", snb, nhm)
	}
	if snb > 0.9 {
		t.Errorf("SNB cycles/load %.2f, want < 0.9 with two load ports", snb)
	}
}

// TestFPLatencyChain: a dependent addsd chain runs at the FP add latency
// per instruction.
func TestFPLatencyChain(t *testing.T) {
	arch := isa.Nehalem()
	var b strings.Builder
	b.WriteString(".L0:\n")
	for i := 0; i < 8; i++ {
		b.WriteString("addsd %xmm1, %xmm1\n")
	}
	b.WriteString("sub $1, %rdi\njge .L0\nret\n")
	iters := int64(500)
	cycles, _ := runKernel(t, arch, fixedMem{lat: 4}, b.String(), uint64(iters-1), 0)
	perIter := float64(cycles) / float64(iters)
	want := float64(8 * arch.FPAddLat)
	if perIter < want-1 || perIter > want+4 {
		t.Errorf("dependent add chain: %.2f cycles/iter, want ~%v", perIter, want)
	}
}

// TestIndependentFPAddsThroughputBound: independent addsd on distinct
// registers are throughput-bound (1/cycle on P1), far below latency-bound.
func TestIndependentFPAddsThroughputBound(t *testing.T) {
	arch := isa.Nehalem()
	var b strings.Builder
	b.WriteString(".L0:\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&b, "addsd %%xmm%d, %%xmm%d\n", i, i)
	}
	b.WriteString("sub $1, %rdi\njge .L0\nret\n")
	iters := int64(500)
	cycles, _ := runKernel(t, arch, fixedMem{lat: 4}, b.String(), uint64(iters-1), 0)
	perIter := float64(cycles) / float64(iters)
	// 8 independent adds on one port: ~8 cycles, not 24.
	if perIter > 12 {
		t.Errorf("independent adds: %.2f cycles/iter, want ~8 (port bound)", perIter)
	}
}

// TestStepDeterminismUnderQuanta: stepping in small quanta produces the
// exact same result as one-shot execution (required for lock-step
// multi-core simulation).
func TestStepDeterminismUnderQuanta(t *testing.T) {
	src := loadKernel(4)
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	run := func(quantum int64) Result {
		var rf isa.RegFile
		rf.Set(isa.RDI, 16*400)
		rf.Set(isa.RSI, 0x100000)
		sys, err := memsim.NewSystem(memConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		core := NewCore(0, arch(), sys)
		if err := core.Reset(p, &rf, 0, 0); err != nil {
			t.Fatal(err)
		}
		for {
			done, err := core.Step(core.Cycle() + quantum)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		return core.Result()
	}
	oneShot := run(math.MaxInt64 / 2)
	quanta := run(64)
	if oneShot != quanta {
		t.Errorf("quantum stepping diverged: %+v vs %+v", quanta, oneShot)
	}
}

func arch() *isa.Arch { return isa.Nehalem() }

// TestMemoryHierarchyIntegration: the same kernel over a RAM-sized array is
// slower per iteration than over an L1-sized array.
func TestMemoryHierarchyIntegration(t *testing.T) {
	cfg := memConfig()
	run := func(bytes int64) float64 {
		sys, err := memsim.NewSystem(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		elems := uint64(bytes / 4)
		// Several passes: warm, then measure the steady state.
		var warmCycles int64
		for pass := 0; pass < 4; pass++ {
			p, err := asm.ParseOne(loadKernel(8), "k")
			if err != nil {
				t.Fatal(err)
			}
			var rf isa.RegFile
			rf.Set(isa.RDI, elems-1)
			rf.Set(isa.RSI, 0x1000000)
			core := NewCore(0, arch(), sys)
			if err := core.Reset(p, &rf, 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := core.Step(math.MaxInt64); err != nil {
				t.Fatal(err)
			}
			warmCycles = core.Result().Cycles
		}
		iters := float64(elems) / 32
		return float64(warmCycles) / iters
	}
	l1 := run(cfg.L1.Size / 2)
	ram := run(cfg.L3.Size * 4)
	if ram <= l1*1.5 {
		t.Errorf("RAM-resident %.2f cycles/iter not clearly above L1-resident %.2f", ram, l1)
	}
}

// TestEaxIterationProtocol: the Fig. 9 counter is readable after the run.
func TestEaxIterationProtocol(t *testing.T) {
	src := `
.L0:
movaps (%rsi), %xmm0
add $16, %rsi
add $1, %eax
sub $4, %rdi
jge .L0
ret`
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	var rf isa.RegFile
	rf.Set(isa.RDI, 399)
	rf.Set(isa.RSI, 0x100000)
	core := NewCore(0, arch(), fixedMem{lat: 4})
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Step(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if got := core.Reg(isa.RAX); got != 100 {
		t.Errorf("eax = %d loop iterations, want 100", got)
	}
}

// TestMaxInstsTruncation: the instruction budget stops long kernels.
func TestMaxInstsTruncation(t *testing.T) {
	p, err := asm.ParseOne(loadKernel(1), "k")
	if err != nil {
		t.Fatal(err)
	}
	var rf isa.RegFile
	rf.Set(isa.RDI, 1<<40) // effectively endless
	rf.Set(isa.RSI, 0x100000)
	core := NewCore(0, arch(), fixedMem{lat: 4})
	if err := core.Reset(p, &rf, 0, 1000); err != nil {
		t.Fatal(err)
	}
	done, err := core.Step(math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("budgeted run did not report done")
	}
	res := core.Result()
	if !res.Truncated || res.Insts != 1000 {
		t.Errorf("result = %+v, want truncated at 1000 insts", res)
	}
}

// TestBranchMispredictChargedOnExit: a loop's final not-taken branch pays
// the misprediction penalty exactly once.
func TestBranchMispredictChargedOnExit(t *testing.T) {
	archN := isa.Nehalem()
	shortLoop := func(iters uint64) int64 {
		cycles, _ := runKernel(t, archN, fixedMem{lat: 4}, loadKernel(1), iters*4-1, 0x100000)
		return cycles
	}
	c10 := shortLoop(10)
	c11 := shortLoop(11)
	perIter := c11 - c10
	if perIter > int64(archN.BranchMissPenalty) {
		t.Errorf("marginal iteration cost %d exceeds mispredict penalty; exit penalty likely charged per iteration", perIter)
	}
	if c10 < int64(archN.BranchMissPenalty) {
		t.Errorf("total cycles %d too low to include the exit mispredict", c10)
	}
}

// TestStallInjectsCycles: noise injection pushes completion time.
func TestStallInjectsCycles(t *testing.T) {
	p, err := asm.ParseOne(loadKernel(1), "k")
	if err != nil {
		t.Fatal(err)
	}
	run := func(stall int64) int64 {
		var rf isa.RegFile
		rf.Set(isa.RDI, 4*100-1)
		rf.Set(isa.RSI, 0x100000)
		core := NewCore(0, arch(), fixedMem{lat: 4})
		if err := core.Reset(p, &rf, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Step(50); err != nil {
			t.Fatal(err)
		}
		core.Stall(stall)
		if _, err := core.Step(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		return core.Result().Cycles
	}
	base := run(0)
	stalled := run(500)
	if stalled < base+400 {
		t.Errorf("stall not reflected: base %d stalled %d", base, stalled)
	}
}

// TestResetRequiresValidProgram: a program with unresolved branches fails.
func TestResetRequiresValidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", Insts: []isa.Inst{{Op: isa.NOP}}}
	core := NewCore(0, arch(), fixedMem{})
	var rf isa.RegFile
	if err := core.Reset(p, &rf, 0, 0); err == nil {
		t.Error("Reset accepted a program with no ret")
	}
}

// TestMixCounting: the dynamic instruction mix matches the kernel shape.
func TestMixCounting(t *testing.T) {
	src := `
.L0:
movaps (%rsi), %xmm0
addps %xmm1, %xmm2
movaps %xmm0, 16(%rsi)
add $32, %rsi
sub $8, %rdi
jge .L0
ret`
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	var rf isa.RegFile
	iters := uint64(100)
	rf.Set(isa.RDI, iters*8-1)
	rf.Set(isa.RSI, 0x100000)
	core := NewCore(0, arch(), fixedMem{lat: 4})
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Step(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	m := core.Result().Mix
	if m.Loads != int64(iters) || m.Stores != int64(iters) {
		t.Errorf("loads/stores = %d/%d, want %d each", m.Loads, m.Stores, iters)
	}
	if m.SSEArith != int64(iters) {
		t.Errorf("sse arith = %d, want %d", m.SSEArith, iters)
	}
	if m.Branches != int64(iters) {
		t.Errorf("branches = %d, want %d", m.Branches, iters)
	}
	if m.IntALU != int64(2*iters) {
		t.Errorf("int alu = %d, want %d", m.IntALU, 2*iters)
	}
}

// TestSNBStoreAddrSharesLoadPorts: on Sandy Bridge, store-address µops
// compete with loads on P2/P3, so a saturating load+store mix cannot beat
// the shared-port bound.
func TestSNBStoreAddrSharesLoadPorts(t *testing.T) {
	iters := int64(2000)
	n := uint64(4*8*int(iters)) - 1
	cycles, _ := runKernel(t, isa.SandyBridge(), fixedMem{lat: 4}, mixedKernel(8), n, 0x100000)
	perIter := float64(cycles) / float64(iters)
	// 4 loads + 4 store-addr on 2 ports = 4 cycles minimum per iteration.
	if perIter < 3.9 {
		t.Errorf("SNB mixed kernel %.2f cycles/iter beats the shared-AGU bound (4)", perIter)
	}
}

// TestROBBoundsRunAhead: with a long-latency load feeding nothing, the ROB
// caps how far execution runs ahead; a tiny ROB makes the loop
// latency-bound while a big one hides it.
func TestROBBoundsRunAhead(t *testing.T) {
	run := func(robSize int) float64 {
		a := *isa.Nehalem()
		a.ROBSize = robSize
		iters := int64(400)
		cycles, _ := runKernel(t, &a, fixedMem{lat: 300}, loadKernel(1), uint64(4*iters)-1, 0x100000)
		return float64(cycles) / float64(iters)
	}
	small := run(8)
	big := run(256)
	if big >= small/2 {
		t.Errorf("big ROB (%.1f cyc/iter) did not hide latency vs small ROB (%.1f)", big, small)
	}
}

// TestStoreBufferThrottlesStores: a store stream against a slow drain is
// bounded by the store buffer, not by issue width.
func TestStoreBufferThrottlesStores(t *testing.T) {
	slow := slowDrainMem{drain: 50}
	src := `
.L0:
movaps %xmm0, (%rsi)
add $16, %rsi
sub $4, %rdi
jge .L0
ret`
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	iters := int64(2000)
	var rf isa.RegFile
	rf.Set(isa.RDI, uint64(4*iters)-1)
	rf.Set(isa.RSI, 0x100000)
	a := *isa.Nehalem()
	a.StoreBuffers = 4
	core := NewCore(0, &a, slow)
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Step(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	perIter := float64(core.Result().Cycles) / float64(iters)
	// 4 buffers draining one store per 50 cycles: steady state 12.5/iter.
	if perIter < 10 {
		t.Errorf("store stream %.1f cycles/iter not throttled by the store buffer (want ~12.5)", perIter)
	}
}

type slowDrainMem struct{ drain int64 }

func (m slowDrainMem) Load(_ int, _ uint64, _ int, issue int64) int64 { return issue + 4 }
func (m slowDrainMem) Store(_ int, _ uint64, _ int, issue int64) int64 {
	return issue + m.drain
}

// TestResetReuseMatchesFreshCore is the pooling invariant: a core that
// already ran other programs and is Reset for a new one must report exactly
// the result a brand-new core produces. sim.Machine keeps one core per
// hardware core id alive across launches and relies on this.
func TestResetReuseMatchesFreshCore(t *testing.T) {
	arch := isa.Nehalem()
	mem := fixedMem{lat: 4}
	parse := func(src, name string) *isa.Program {
		p, err := asm.ParseOne(src, name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	runOn := func(c *Core, p *isa.Program, n uint64, start int64) Result {
		var rf isa.RegFile
		rf.Set(isa.RDI, n)
		rf.Set(isa.RSI, 0x100000)
		if err := c.Reset(p, &rf, start, 0); err != nil {
			t.Fatal(err)
		}
		done, err := c.Step(math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("program did not finish")
		}
		return c.Result()
	}

	target := parse(loadKernel(4), "target")
	warm := parse(mixedKernel(8), "warm")

	fresh := runOn(NewCore(0, arch, mem), target, 16*500-1, 0)

	reused := NewCore(0, arch, mem)
	// Dirty every piece of pooled state: a different program (different
	// size, different branch history), twice, at nonzero start cycles.
	runOn(reused, warm, 32*300-1, 1000)
	runOn(reused, warm, 32*10-1, 1<<20)
	if got := runOn(reused, target, 16*500-1, 0); got != fresh {
		t.Errorf("reused core result %+v differs from fresh core %+v", got, fresh)
	}
}

// TestResetSurfacesDecodeErrors: Reset now validates and decodes through the
// program's cache; broken programs must still fail at Reset time.
func TestResetSurfacesDecodeErrors(t *testing.T) {
	c := NewCore(0, isa.Nehalem(), fixedMem{lat: 4})
	var rf isa.RegFile
	bad := &isa.Program{Name: "empty"}
	if err := c.Reset(bad, &rf, 0, 0); err == nil {
		t.Error("Reset accepted an invalid program")
	}
}
