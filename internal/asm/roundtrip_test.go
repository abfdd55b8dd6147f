package asm

import (
	"math/rand"
	"strings"
	"testing"

	"microtools/internal/isa"
)

// randomProgram builds a random valid program in the subset: SSE moves and
// arithmetic over memory and registers, integer updates, and a trailing
// loop branch.
func randomProgram(rng *rand.Rand) *isa.Program {
	p := &isa.Program{Name: "rt", Labels: []isa.Label{{Name: ".Lrt", Index: 0}}}
	bases := []isa.Reg{isa.RSI, isa.RDX, isa.RCX}
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		mem := isa.MemRef{
			Base:  bases[rng.Intn(len(bases))],
			Index: isa.NoReg,
			Disp:  int64(rng.Intn(8)) * 16,
		}
		if rng.Intn(3) == 0 {
			mem.Index = isa.RAX
			mem.Scale = []int64{1, 2, 4, 8}[rng.Intn(4)]
		}
		xmm := isa.XMM0 + isa.Reg(rng.Intn(16))
		switch rng.Intn(5) {
		case 0: // load
			op := []isa.Op{isa.MOVSS, isa.MOVSD, isa.MOVAPS, isa.MOVUPS}[rng.Intn(4)]
			p.Insts = append(p.Insts, isa.Inst{Op: op, A: isa.NewMem(mem), B: isa.NewReg(xmm), NOps: 2})
		case 1: // store
			op := []isa.Op{isa.MOVSS, isa.MOVSD, isa.MOVAPS}[rng.Intn(3)]
			p.Insts = append(p.Insts, isa.Inst{Op: op, A: isa.NewReg(xmm), B: isa.NewMem(mem), NOps: 2})
		case 2: // fp arith with memory source
			op := []isa.Op{isa.ADDSD, isa.MULSD, isa.ADDPS}[rng.Intn(3)]
			p.Insts = append(p.Insts, isa.Inst{Op: op, A: isa.NewMem(mem), B: isa.NewReg(xmm), NOps: 2})
		case 3: // fp arith reg-reg
			other := isa.XMM0 + isa.Reg(rng.Intn(16))
			p.Insts = append(p.Insts, isa.Inst{Op: isa.ADDSD, A: isa.NewReg(xmm), B: isa.NewReg(other), NOps: 2})
		case 4: // integer update
			gpr := bases[rng.Intn(len(bases))]
			p.Insts = append(p.Insts, isa.Inst{Op: isa.ADD, A: isa.NewImm(int64(1 + rng.Intn(64))), B: isa.NewReg(gpr), NOps: 2})
		}
	}
	p.Insts = append(p.Insts,
		isa.Inst{Op: isa.SUB, A: isa.NewImm(1), B: isa.NewReg(isa.RDI), NOps: 2},
		isa.Inst{Op: isa.JGE, A: isa.NewLabel(0), NOps: 1},
		isa.Inst{Op: isa.RET},
	)
	if err := p.Resolve(); err != nil {
		panic(err)
	}
	return p
}

// TestPropertyPrintParseRoundTrip: Program.Print output re-parses to the
// same instruction stream.
func TestPropertyPrintParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		orig := randomProgram(rng)
		text := orig.Print()
		back, err := ParseOne(text, "x")
		if err != nil {
			t.Fatalf("trial %d: re-parse failed: %v\n%s", trial, err, text)
		}
		if back.Name != orig.Name {
			t.Fatalf("trial %d: name %q != %q", trial, back.Name, orig.Name)
		}
		if len(back.Insts) != len(orig.Insts) {
			t.Fatalf("trial %d: %d insts != %d\n%s", trial, len(back.Insts), len(orig.Insts), text)
		}
		for i := range orig.Insts {
			a, b := orig.Insts[i], back.Insts[i]
			if a.String() != b.String() || a.Target != b.Target {
				t.Fatalf("trial %d inst %d: %q (target %d) != %q (target %d)",
					trial, i, a.String(), a.Target, b.String(), b.Target)
			}
		}
	}
}

// TestPrintReadable spot-checks the rendering.
func TestPrintReadable(t *testing.T) {
	p, err := ParseOne(fig8, "k")
	if err != nil {
		t.Fatal(err)
	}
	out := p.Print()
	for _, want := range []string{".globl kernel", ".L6:", "movaps %xmm0, (%rsi)", "jge .L6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print missing %q:\n%s", want, out)
		}
	}
	// And it round-trips.
	if _, err := ParseOne(out, "k"); err != nil {
		t.Errorf("printed fig8 does not re-parse: %v", err)
	}
}
