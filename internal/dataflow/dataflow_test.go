package dataflow_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/cpu"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/matmul"
)

func parse(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.ParseOne(src, "k")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// chainKernel has a single 3-cycle FP-add recurrence through %xmm1 and a
// counter that steps by one.
const chainKernel = `
k:
	xor %eax, %eax
.L0:
	addps %xmm1, %xmm1
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`

func TestChainKernelBounds(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, chainKernel), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LoopStart != 1 || rep.LoopEnd != 4 {
		t.Errorf("loop = [%d,%d], want [1,4]", rep.LoopStart, rep.LoopEnd)
	}
	if rep.CounterStep != 1 {
		t.Errorf("counter step = %d, want 1", rep.CounterStep)
	}
	// The addps chain is the binding recurrence: FPAddLat = 3 on Nehalem.
	if rep.LatencyBound != 3 {
		t.Errorf("latency bound = %g, want 3", rep.LatencyBound)
	}
	if rep.CyclesLowerBound != 3 {
		t.Errorf("cycles lower bound = %g, want 3", rep.CyclesLowerBound)
	}
	// 4 µops, all unfused, issue width 4.
	if rep.Uops != 4 || rep.UnfusedUops != 4 {
		t.Errorf("uops = %d/%d, want 4/4", rep.Uops, rep.UnfusedUops)
	}
	if rep.FrontendBound != 1 {
		t.Errorf("frontend bound = %g, want 1", rep.FrontendBound)
	}
	if len(rep.CriticalPath) != 1 || rep.CriticalPath[0].Resource != "%xmm1" {
		t.Errorf("critical path = %+v, want the single addps step", rep.CriticalPath)
	}
	if len(rep.DeadWrites) != 0 {
		t.Errorf("unexpected dead writes: %+v", rep.DeadWrites)
	}
	found := false
	for _, c := range rep.LoopCarried {
		if c.Resource == "%xmm1" && c.Length == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("loop carried missing %%xmm1/3: %+v", rep.LoopCarried)
	}
}

// crossKernel chains through two registers: mulss feeds addss, and the
// addss result feeds next iteration's mulss. The recurrence spans two
// resources, so the naive "sum of distances" overestimates; the true cycle
// mean on Nehalem is (4+3)/1 = 7 for the 1-iteration cycle through both
// writes... the cycle is xmm0 -> xmm2 -> xmm0 over TWO iterations only if
// the reads split; here both happen inside one iteration, closing through
// xmm2's carried read, so the mean is (4+3)/1.
const crossKernel = `
k:
	xor %eax, %eax
.L0:
	mulss %xmm2, %xmm0
	addss %xmm0, %xmm2
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`

func TestCrossRegisterRecurrence(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, crossKernel), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	// xmm2's carried value feeds mulss (lat 4) then addss (lat 3) back
	// into xmm2 within one iteration: cycle mean 7. xmm0's self-cycle is
	// mulss alone: 4.
	if rep.LatencyBound != 7 {
		t.Errorf("latency bound = %g, want 7", rep.LatencyBound)
	}
}

// independentKernel breaks the chain each iteration: the xorps write of
// xmm1 does not read xmm1, so no FP recurrence survives and only the
// integer counter chains (latency 1).
const independentKernel = `
k:
	xor %eax, %eax
.L0:
	xorps %xmm1, %xmm1
	addps %xmm2, %xmm1
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`

func TestIndependentIterationsLatency(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, independentKernel), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	// xorps xmm1,xmm1 READS xmm1 in the ISA model (it is not special-cased
	// as a zeroing idiom), so the xmm1 chain is xorps(1)+addps(3) = 4.
	if rep.LatencyBound != 4 {
		t.Errorf("latency bound = %g, want 4", rep.LatencyBound)
	}
}

func TestDeadWriteAndSelfMove(t *testing.T) {
	src := `
k:
	xor %eax, %eax
.L0:
	mov $7, %rcx
	mov %rdx, %rdx
	movaps (%rsi), %xmm0
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`
	rep, err := dataflow.Analyze(parse(t, src), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	hasMem := map[string]bool{}
	for _, d := range rep.DeadWrites {
		dead = append(dead, d.Resource)
		hasMem[d.Resource] = d.HasMem
	}
	// %rcx is never read; the load's %xmm0 is dead but flagged as a
	// memory access. The self-move of %rdx is NOT liveness-dead — it
	// keeps itself alive around the loop — which is why redundant self
	// moves are their own rule (V010) rather than a dead-write case.
	want := map[string]bool{"%rcx": false, "%xmm0": true}
	if len(dead) != len(want) {
		t.Fatalf("dead writes = %v, want %v", dead, want)
	}
	for r, mem := range want {
		if hasMem[r] != mem {
			t.Errorf("dead write %s: HasMem = %v, want %v", r, hasMem[r], mem)
		}
	}
	if len(rep.SelfMoves) != 1 {
		t.Errorf("self moves = %v, want one", rep.SelfMoves)
	}
}

func TestPortPressureBound(t *testing.T) {
	// Three FP adds (all P1-only on Nehalem) per iteration: the P1 class
	// alone forces 3 cycles even though latency chains are independent.
	src := `
k:
	xor %eax, %eax
.L0:
	addps %xmm4, %xmm1
	addps %xmm5, %xmm2
	addps %xmm6, %xmm3
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`
	rep, err := dataflow.Analyze(parse(t, src), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThroughputBound != 3 {
		t.Errorf("throughput bound = %g, want 3 (three P1-only adds)", rep.ThroughputBound)
	}
	if rep.PortPressure[0].Ports != "P1" {
		t.Errorf("top port class = %s, want P1", rep.PortPressure[0].Ports)
	}
}

func TestCarriedEdgesPresent(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, chainKernel), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	carriedRAW := false
	for _, e := range rep.Edges {
		if e.Kind == dataflow.RAW && e.Carried && e.Resource == "%xmm1" {
			carriedRAW = true
			if e.Weight != 3 {
				t.Errorf("carried RAW weight = %g, want 3", e.Weight)
			}
		}
	}
	if !carriedRAW {
		t.Errorf("no carried RAW edge on %%xmm1: %+v", rep.Edges)
	}
}

func TestStraightLineProgram(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, "k:\n\tmov $3, %rax\n\tret\n"), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyBound != 0 || len(rep.LoopCarried) != 0 {
		t.Errorf("straight-line program has a recurrence: %+v", rep)
	}
	if rep.CounterStep != 0 {
		t.Errorf("counter step = %d, want 0 (mov write)", rep.CounterStep)
	}
}

// TestGoldenMatmulReports pins the full static model of the matmul seed
// kernel (unroll 1) on both Table 1 microarchitectures. The inner loop is
//
//	movsd 8(%r13,%rbx,8), %xmm2   (load, lat 0)
//	mulsd (%r8), %xmm2            (load + mul)
//	add %r11, %r8
//	addsd %xmm2, %xmm1            (accumulate)
//	add $1, %eax
//	add $1, %rbx
//	cmp %rdi, %rbx
//	jl .Lk
//
// whose binding recurrence is the addsd accumulation into %xmm1.
func TestGoldenMatmulReports(t *testing.T) {
	prog, err := matmul.Full(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arch        *isa.Arch
		latency     float64
		throughput  float64
		frontend    float64
		counterStep int64
		loadClass   string
		loadPress   float64
	}{
		// 9 µops/iteration (8 unfused): both arches pack 7 µops into the
		// P0+P1+P5 ALU class (7/3 pressure), and the addsd accumulation
		// (FPAddLat 3) binds overall. The machines differ in the load
		// class: Nehalem's single load port serves 2 loads per iteration
		// (pressure 2), Sandy Bridge splits them across P2+P3.
		{isa.Nehalem(), 3, 7.0 / 3, 2, 1, "P2", 2},
		{isa.SandyBridge(), 3, 7.0 / 3, 2, 1, "P2+P3", 1},
	} {
		rep, err := dataflow.Analyze(prog, tc.arch)
		if err != nil {
			t.Fatalf("%s: %v", tc.arch.Name, err)
		}
		if rep.LatencyBound != tc.latency {
			t.Errorf("%s: latency bound = %g, want %g", tc.arch.Name, rep.LatencyBound, tc.latency)
		}
		if rep.ThroughputBound != tc.throughput {
			t.Errorf("%s: throughput bound = %g, want %g\nclasses: %+v",
				tc.arch.Name, rep.ThroughputBound, tc.throughput, rep.PortPressure)
		}
		if rep.FrontendBound != tc.frontend {
			t.Errorf("%s: frontend bound = %g, want %g", tc.arch.Name, rep.FrontendBound, tc.frontend)
		}
		if rep.CounterStep != tc.counterStep {
			t.Errorf("%s: counter step = %d, want %d", tc.arch.Name, rep.CounterStep, tc.counterStep)
		}
		if rep.CyclesLowerBound != tc.latency {
			t.Errorf("%s: cycles lower bound = %g, want %g", tc.arch.Name, rep.CyclesLowerBound, tc.latency)
		}
		if len(rep.DeadWrites) != 0 {
			t.Errorf("%s: matmul has dead writes: %+v", tc.arch.Name, rep.DeadWrites)
		}
		foundLoad := false
		for _, c := range rep.PortPressure {
			if c.Ports == tc.loadClass {
				foundLoad = true
				if c.Pressure != tc.loadPress {
					t.Errorf("%s: load class %s pressure = %g, want %g",
						tc.arch.Name, c.Ports, c.Pressure, tc.loadPress)
				}
			}
		}
		if !foundLoad {
			t.Errorf("%s: no %s port class: %+v", tc.arch.Name, tc.loadClass, rep.PortPressure)
		}
		var crit []string
		for _, s := range rep.CriticalPath {
			crit = append(crit, s.Inst)
		}
		if len(crit) != 1 || !strings.HasPrefix(crit[0], "addsd") {
			t.Errorf("%s: critical path = %v, want the addsd accumulation", tc.arch.Name, crit)
		}
	}
}

func TestReportWriters(t *testing.T) {
	rep, err := dataflow.Analyze(parse(t, chainKernel), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	var tbl, js strings.Builder
	if err := rep.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kernel", "bounds", "latency 3.00", "carried", "%xmm1"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, tbl.String())
		}
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"cycles_lower_bound": 3`) {
		t.Errorf("JSON output missing bound:\n%s", js.String())
	}
}

func TestBoundsAreFinite(t *testing.T) {
	for _, src := range []string{chainKernel, crossKernel, independentKernel} {
		rep, err := dataflow.Analyze(parse(t, src), isa.SandyBridge())
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range map[string]float64{
			"latency":    rep.LatencyBound,
			"throughput": rep.ThroughputBound,
			"frontend":   rep.FrontendBound,
			"lower":      rep.CyclesLowerBound,
		} {
			if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
				t.Errorf("%s bound = %g, want finite non-negative", name, v)
			}
		}
	}
}

// TestBoundsAgreeWithAnalyze: KernelBounds is the memoized lean slice of
// Analyze; over a spread of kernels (recurrence chains, dead writes,
// straight-line code, both matmul microarchitectures) and every variant of
// every shipped spec, every shared field must agree exactly with the full
// analysis — they are computed by the same passes over one memoized scan,
// and any drift would desynchronize the campaign oracle from `microtools
// analyze`.
func TestBoundsAgreeWithAnalyze(t *testing.T) {
	progs := specPrograms(t)
	progs["chain"] = parse(t, chainKernel)
	progs["cross"] = parse(t, crossKernel)
	progs["independent"] = parse(t, independentKernel)
	progs["straight"] = parse(t, "k:\n\tmov $3, %rax\n\tret\n")
	for _, u := range []int{1, 4} {
		mp, err := matmul.Full(u)
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("matmul_u%d", u)] = mp
	}
	for _, arch := range []*isa.Arch{isa.Nehalem(), isa.SandyBridge()} {
		for name, p := range progs {
			checkBounds(t, name, p, arch)
		}
	}
}

// checkBounds compares KernelBounds, twice (the second from the memo), with
// Analyze.
func checkBounds(t *testing.T, name string, p *isa.Program, arch *isa.Arch) {
	t.Helper()
	rep, err := dataflow.Analyze(p, arch)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, arch.Name, err)
	}
	b, err := dataflow.KernelBounds(p, arch)
	if err != nil {
		t.Fatalf("%s/%s: KernelBounds: %v", name, arch.Name, err)
	}
	if b.LatencyBound != rep.LatencyBound || b.ThroughputBound != rep.ThroughputBound ||
		b.FrontendBound != rep.FrontendBound || b.CyclesLowerBound != rep.CyclesLowerBound {
		t.Errorf("%s/%s: bounds %+v diverge from Analyze (%g/%g/%g/%g)", name, arch.Name, b,
			rep.LatencyBound, rep.ThroughputBound, rep.FrontendBound, rep.CyclesLowerBound)
	}
	if b.CounterStep != rep.CounterStep || b.Uops != rep.Uops || b.UnfusedUops != rep.UnfusedUops {
		t.Errorf("%s/%s: counters %+v diverge from Analyze (%d/%d/%d)", name, arch.Name, b,
			rep.CounterStep, rep.Uops, rep.UnfusedUops)
	}
	if b.LoopStart != rep.LoopStart || b.LoopEnd != rep.LoopEnd {
		t.Errorf("%s/%s: loop %d..%d diverges from Analyze (%d..%d)", name, arch.Name,
			b.LoopStart, b.LoopEnd, rep.LoopStart, rep.LoopEnd)
	}
	// Memoized: a second query returns the identical value.
	again, err := dataflow.KernelBounds(p, arch)
	if err != nil || again != b {
		t.Errorf("%s/%s: memoized bounds changed: %+v vs %+v (%v)", name, arch.Name, again, b, err)
	}
	// The liveness slice is Analyze's, less the memory-accessing writes.
	live, err := dataflow.KernelLiveness(p, arch)
	if err != nil {
		t.Fatalf("%s/%s: KernelLiveness: %v", name, arch.Name, err)
	}
	var fullDead []dataflow.DeadWrite
	for _, d := range rep.DeadWrites {
		if !d.HasMem {
			fullDead = append(fullDead, d)
		}
	}
	if !reflect.DeepEqual(fullDead, live.DeadWrites) {
		t.Errorf("%s/%s: reportable dead writes diverge: %+v vs %+v", name, arch.Name, fullDead, live.DeadWrites)
	}
	if !reflect.DeepEqual(live.SelfMoves, rep.SelfMoves) {
		t.Errorf("%s/%s: self moves diverge: %v vs %v", name, arch.Name, live.SelfMoves, rep.SelfMoves)
	}
}

// fixedMem is a flat memory for driving the event-driven core directly:
// every load completes lat cycles after issue, every store one cycle after.
type fixedMem struct{ lat int64 }

func (m fixedMem) Load(_ int, _ uint64, _ int, issue int64) int64  { return issue + m.lat }
func (m fixedMem) Store(_ int, _ uint64, _ int, issue int64) int64 { return issue + 1 }

// loadLoop is a u-way unrolled movaps streaming-load loop.
func loadLoop(u int) string {
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&b, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\nsub $%d, %%rdi\njge .L0\nret\n", 16*u, 4*u)
	return b.String()
}

// addChain is an n-deep dependent FP-add chain per iteration.
func addChain(n int) string {
	return ".L0:\n" + strings.Repeat("addsd %xmm1, %xmm1\n", n) + "sub $1, %rdi\njge .L0\nret\n"
}

// simulatedCycles runs src on the event-driven core over iters loop
// iterations (elemsPerIter counter units each) and returns cycles/iteration.
func simulatedCycles(t *testing.T, arch *isa.Arch, src string, iters int64, elemsPerIter int) float64 {
	t.Helper()
	p := parse(t, src)
	var rf isa.RegFile
	rf.Set(isa.RDI, uint64(iters*int64(elemsPerIter))-1)
	rf.Set(isa.RSI, 0x100000)
	core := cpu.NewCore(0, arch, fixedMem{lat: 4})
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Step(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	return float64(core.Result().Cycles) / float64(iters)
}

// TestBoundMatchesEventDriven cross-validates the static bound against the
// event-driven core on L1-resident kernels: never above the simulation, and
// within 35% of it across kernel shapes.
func TestBoundMatchesEventDriven(t *testing.T) {
	arch := isa.Nehalem()
	cases := []struct {
		name         string
		src          string
		elemsPerIter int
	}{
		{"load-u1", loadLoop(1), 4},
		{"load-u4", loadLoop(4), 16},
		{"load-u8", loadLoop(8), 32},
		{"chain-4", addChain(4), 1},
		{"chain-8", addChain(8), 1},
	}
	for _, c := range cases {
		measured := simulatedCycles(t, arch, c.src, 2000, c.elemsPerIter)
		b, err := dataflow.KernelBounds(parse(t, c.src), arch)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := b.CyclesLowerBound / measured; ratio < 0.65 || ratio > 1.001 {
			t.Errorf("%s: bound %.2f vs event-driven %.2f (ratio %.2f)",
				c.name, b.CyclesLowerBound, measured, ratio)
		}
	}
}

// TestBottleneckClassification: a dependent FP chain binds on its
// recurrence, a streaming-load loop on its load port.
func TestBottleneckClassification(t *testing.T) {
	arch := isa.Nehalem()
	chain, err := dataflow.KernelBounds(parse(t, addChain(8)), arch)
	if err != nil {
		t.Fatal(err)
	}
	if chain.LatencyBound != float64(8*arch.FPAddLat) || chain.CyclesLowerBound != chain.LatencyBound {
		t.Errorf("chain kernel bounds %+v, want a binding recurrence of %d", chain, 8*arch.FPAddLat)
	}
	loads, err := dataflow.KernelBounds(parse(t, loadLoop(8)), arch)
	if err != nil {
		t.Fatal(err)
	}
	if loads.CyclesLowerBound != loads.ThroughputBound || loads.CyclesLowerBound < 7.5 || loads.CyclesLowerBound > 9.5 {
		t.Errorf("8-load kernel bounds %+v, want ~8 cycles/iter from port pressure", loads)
	}
}

// TestSandyBridgeDoubleLoadBound: Sandy Bridge's second load port halves
// the streaming-load bound Nehalem's single port imposes.
func TestSandyBridgeDoubleLoadBound(t *testing.T) {
	nhm, err := dataflow.KernelBounds(parse(t, loadLoop(8)), isa.Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	snb, err := dataflow.KernelBounds(parse(t, loadLoop(8)), isa.SandyBridge())
	if err != nil {
		t.Fatal(err)
	}
	if snb.CyclesLowerBound >= nhm.CyclesLowerBound {
		t.Errorf("SNB bound %.2f not below NHM %.2f", snb.CyclesLowerBound, nhm.CyclesLowerBound)
	}
}
