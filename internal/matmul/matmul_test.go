package matmul

import (
	"math"
	"sort"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/cpu"
	"microtools/internal/isa"
	"microtools/internal/passes"
	"microtools/internal/xmlspec"
)

// traceMem records every access for functional-equivalence checks.
type traceMem struct {
	loads  []uint64
	stores []uint64
}

func (m *traceMem) Load(_ int, addr uint64, _ int, issue int64) int64 {
	m.loads = append(m.loads, addr)
	return issue + 4
}

func (m *traceMem) Store(_ int, addr uint64, _ int, issue int64) int64 {
	m.stores = append(m.stores, addr)
	return issue + 1
}

func runFull(t *testing.T, u int, n uint64) (*traceMem, cpu.Result, uint64) {
	t.Helper()
	p, err := Full(u)
	if err != nil {
		t.Fatal(err)
	}
	mem := &traceMem{}
	core := cpu.NewCore(0, isa.Nehalem(), mem)
	var rf isa.RegFile
	rf.Set(isa.RDI, n)
	rf.Set(isa.RSI, 0x100000) // A
	rf.Set(isa.RDX, 0x200000) // B
	rf.Set(isa.RCX, 0x300000) // C
	if err := core.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	done, err := core.Step(math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("did not finish")
	}
	return mem, core.Result(), core.Reg(isa.RAX)
}

func TestFullMatmulAccessPattern(t *testing.T) {
	n := uint64(8)
	mem, _, eax := runFull(t, 1, n)
	// N^2 result stores.
	if got := len(mem.stores); got != int(n*n) {
		t.Errorf("stores = %d, want %d", got, n*n)
	}
	// 2 loads per inner iteration (B element + C element): 2*N^3.
	if got := len(mem.loads); got != int(2*n*n*n) {
		t.Errorf("loads = %d, want %d", got, 2*n*n*n)
	}
	// %eax counts multiply-adds: N^3.
	if eax != n*n*n {
		t.Errorf("eax = %d, want %d", eax, n*n*n)
	}
	// Stores walk A linearly.
	for i, s := range mem.stores {
		want := uint64(0x100000) + uint64(i)*8
		if s != want {
			t.Fatalf("store %d at %#x, want %#x", i, s, want)
		}
	}
}

// TestUnrolledMatmulEquivalent: every unroll factor touches exactly the
// same multiset of addresses and reports the same multiply-add count.
func TestUnrolledMatmulEquivalent(t *testing.T) {
	n := uint64(8)
	ref, _, refEax := runFull(t, 1, n)
	sort.Slice(ref.loads, func(i, j int) bool { return ref.loads[i] < ref.loads[j] })
	for _, u := range []int{2, 4, 8} {
		mem, _, eax := runFull(t, u, n)
		if eax != refEax {
			t.Errorf("u=%d: eax = %d, want %d", u, eax, refEax)
		}
		if len(mem.stores) != len(ref.stores) {
			t.Errorf("u=%d: stores = %d, want %d", u, len(mem.stores), len(ref.stores))
		}
		sort.Slice(mem.loads, func(i, j int) bool { return mem.loads[i] < mem.loads[j] })
		if len(mem.loads) != len(ref.loads) {
			t.Fatalf("u=%d: loads = %d, want %d", u, len(mem.loads), len(ref.loads))
		}
		for i := range mem.loads {
			if mem.loads[i] != ref.loads[i] {
				t.Fatalf("u=%d: load multiset diverges at %d: %#x vs %#x", u, i, mem.loads[i], ref.loads[i])
			}
		}
	}
}

// TestUnrollGainIsModest reproduces the Fig. 5 claim: the accumulator
// dependence bounds the inner loop, so unrolling 8x buys only a modest
// improvement (paper: ~9%, microbench estimate 8.2%).
func TestUnrollGainIsModest(t *testing.T) {
	n := uint64(32)
	_, r1, e1 := runFull(t, 1, n)
	_, r8, e8 := runFull(t, 8, n)
	c1 := float64(r1.Cycles) / float64(e1)
	c8 := float64(r8.Cycles) / float64(e8)
	gain := (c1 - c8) / c1
	if gain <= 0 {
		t.Errorf("unrolling made matmul slower: u1=%.2f u8=%.2f cycles/mul-add", c1, c8)
	}
	if gain > 0.5 {
		t.Errorf("unroll gain %.0f%% too large; accumulator chain should bound it (paper: ~9%%, model: ~40%%)", gain*100)
	}
}

func TestSourceRejectsBadUnroll(t *testing.T) {
	if _, err := Source(0); err == nil {
		t.Error("unroll 0 accepted")
	}
	if _, err := Source(9); err == nil {
		t.Error("unroll 9 accepted")
	}
}

// TestInnerSpecPipeline: the MicroCreator description of the inner loop
// generates one variant per unroll factor, each with consistent per-copy
// register rotation and the multiply-add counting protocol.
func TestInnerSpecPipeline(t *testing.T) {
	ks, err := xmlspec.ParseString(InnerSpec(8*64, 8))
	if err != nil {
		t.Fatal(err)
	}
	var progs []codegen.Program
	ctx := &passes.Context{EmitAssembly: true, Sink: func(p codegen.Program) error {
		progs = append(progs, p)
		return nil
	}}
	out, err := passes.NewManager().Run(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("variants = %d, want 8", len(out))
	}
	// Execute the u=4 variant functionally: %eax must count 4 per loop
	// iteration.
	for _, prog := range progs {
		if prog.Kernel.Unroll != 4 {
			continue
		}
		asmText, err := prog.Assembly()
		if err != nil {
			t.Fatalf("%s: render: %v", prog.Name, err)
		}
		p, err := parseProgram(asmText, prog.Name)
		if err != nil {
			t.Fatalf("%s: %v\n%s", prog.Name, err, asmText)
		}
		mem := &traceMem{}
		core := cpu.NewCore(0, isa.Nehalem(), mem)
		var rf isa.RegFile
		rf.Set(isa.RDI, 63) // 64 elements
		rf.Set(isa.RSI, 0x100000)
		rf.Set(isa.RDX, 0x200000)
		if err := core.Reset(p, &rf, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Step(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		// 64 elements / 4 per iteration = 16 iterations; eax counts 4
		// per iteration = 64 multiply-adds.
		if got := core.Reg(isa.RAX); got != 64 {
			t.Errorf("%s: eax = %d, want 64 multiply-adds", prog.Name, got)
		}
		// Two loads per copy: 2*64.
		if len(mem.loads) != 128 {
			t.Errorf("%s: loads = %d, want 128", prog.Name, len(mem.loads))
		}
		return
	}
	t.Fatal("no u=4 variant emitted")
}

func parseProgram(src, name string) (*isa.Program, error) {
	return asm.ParseOne(src, name)
}
