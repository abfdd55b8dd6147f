package ir

import (
	"testing"
	"testing/quick"

	"microtools/internal/isa"
)

func validKernel() *Kernel {
	base := NewLogical("r1")
	return &Kernel{
		BaseName: "k",
		Body: []Instruction{{
			Op: "movss",
			Operands: []Operand{
				{Kind: MemOperand, Reg: base},
				{Kind: RegOperand, Reg: NewRotating("%xmm", Range{Min: 0, Max: 4})},
			},
		}},
		Inductions: []Induction{
			{Reg: base, Increment: 4, Offset: 4},
			{Reg: NewLogical("r0"), Increment: -1, Last: true},
		},
		Branch:      Branch{Label: ".L0", Test: "jge"},
		UnrollRange: Range{Min: 1, Max: 4},
		ElementSize: 4,
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Min: 2, Max: 5}
	if r.Singleton() || r.Count() != 4 {
		t.Errorf("range helpers wrong: %+v", r)
	}
	if !(Range{Min: 3, Max: 3}).Singleton() {
		t.Error("singleton not detected")
	}
	if (Range{Min: 5, Max: 2}).Count() != 0 {
		t.Error("inverted range count != 0")
	}
	if err := (Range{Min: 0, Max: 3}).Validate("x", 8); err == nil {
		t.Error("min 0 accepted")
	}
	if err := (Range{Min: 1, Max: 9}).Validate("x", 8); err == nil {
		t.Error("beyond limit accepted")
	}
	if err := (Range{Min: 1, Max: 8}).Validate("x", 8); err != nil {
		t.Errorf("valid range rejected: %v", err)
	}
}

func TestRegisterConstructorsAndResolution(t *testing.T) {
	l := NewLogical("r1")
	if _, err := l.Resolved(); err == nil {
		t.Error("unallocated logical register resolved")
	}
	l.Phys = isa.RSI
	if r, err := l.Resolved(); err != nil || r != isa.RSI {
		t.Errorf("resolved = %v, %v", r, err)
	}
	p := NewPinned(isa.RAX, true)
	if !p.Pinned || !p.Pinned32 {
		t.Error("pinned flags not set")
	}
	rot := NewRotating("%xmm", Range{Min: 2, Max: 8})
	rot.RotIdx = 5
	if r, err := rot.Resolved(); err != nil || r != isa.XMM5 {
		t.Errorf("rotating resolved = %v, %v", r, err)
	}
	bad := NewRotating("%zmm", Range{Min: 0, Max: 4})
	if _, err := bad.Resolved(); err == nil {
		t.Error("bad rotation base resolved")
	}
	var nilReg *Register
	if _, err := nilReg.Resolved(); err == nil {
		t.Error("nil register resolved")
	}
	if nilReg.String() != "<nil>" {
		t.Errorf("nil register String = %q", nilReg.String())
	}
}

func TestKernelValidate(t *testing.T) {
	if err := validKernel().Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Kernel)
	}{
		{"no name", func(k *Kernel) { k.BaseName = "" }},
		{"no body", func(k *Kernel) { k.Body = nil }},
		{"no operands", func(k *Kernel) { k.Body[0].Operands = nil }},
		{"bad opcode", func(k *Kernel) { k.Body[0].Op = "frob" }},
		{"neither op nor move", func(k *Kernel) { k.Body[0].Op = "" }},
		{"bad move bytes", func(k *Kernel) {
			k.Body[0].Op = ""
			k.Body[0].Move = &MoveSemantics{Bytes: 3}
		}},
		{"bad unroll", func(k *Kernel) { k.UnrollRange = Range{Min: 0, Max: 2} }},
		{"nil induction reg", func(k *Kernel) { k.Inductions[0].Reg = nil }},
		{"zero increment", func(k *Kernel) { k.Inductions[0].Increment = 0 }},
		{"two last markers", func(k *Kernel) { k.Inductions[0].Last = true }},
		{"no branch", func(k *Kernel) { k.Branch = Branch{} }},
		{"non-conditional branch", func(k *Kernel) { k.Branch.Test = "jmp" }},
	}
	for _, c := range cases {
		k := validKernel()
		c.mut(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateDefaults(t *testing.T) {
	k := validKernel()
	k.ElementSize = 0
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.ElementSize != 4 {
		t.Errorf("element size default = %d", k.ElementSize)
	}
	if k.Body[0].Repeat != (Range{Min: 1, Max: 1}) {
		t.Errorf("repeat default = %+v", k.Body[0].Repeat)
	}
}

func TestTagsAndTagString(t *testing.T) {
	k := validKernel()
	if k.TagString() != "" {
		t.Error("empty tags must render empty")
	}
	k.Tag("b", "2").Tag("a", "1")
	if got := k.TagString(); got != "a=1,b=2" {
		t.Errorf("TagString = %q (must be sorted)", got)
	}
}

func TestRegistersEnumerationOrder(t *testing.T) {
	k := validKernel()
	regs := k.Registers()
	// r1 (mem base), xmm pool, r0.
	if len(regs) != 3 {
		t.Fatalf("registers = %d", len(regs))
	}
	if regs[0].Logical != "r1" {
		t.Errorf("first register = %v, want r1 (first use order)", regs[0])
	}
}

func TestInductionFor(t *testing.T) {
	k := validKernel()
	base := k.Body[0].Operands[0].Reg
	ind := k.InductionFor(base)
	if ind == nil || ind.Increment != 4 {
		t.Errorf("InductionFor = %+v", ind)
	}
	if k.InductionFor(NewLogical("zz")) != nil {
		t.Error("unknown register has an induction")
	}
}

// Property: Clone is always deep (mutating any register in the clone never
// affects the original) and preserves intra-kernel register sharing.
func TestPropertyCloneDeepAndSharing(t *testing.T) {
	f := func(inc int8, offset int8, unrollMax uint8) bool {
		k := validKernel()
		k.Inductions[0].Increment = int64(inc)
		if k.Inductions[0].Increment == 0 {
			k.Inductions[0].Increment = 1
		}
		k.Inductions[0].Offset = int64(offset)
		k.UnrollRange = Range{Min: 1, Max: int(unrollMax%8) + 1}
		c := k.Clone()
		// Sharing preserved.
		if c.Body[0].Operands[0].Reg != c.Inductions[0].Reg {
			return false
		}
		// Deepness.
		c.Inductions[0].Reg.Phys = isa.R15
		c.Inductions[0].Increment = 999
		return k.Inductions[0].Reg.Phys == isa.NoReg && k.Inductions[0].Increment != 999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOperandAndInstructionStrings(t *testing.T) {
	k := validKernel()
	s := k.Body[0].String()
	if s == "" {
		t.Error("instruction String empty")
	}
	mem := Operand{Kind: MemOperand, Reg: NewLogical("r1"), Offset: 8}
	if mem.String() != "8(r1)" {
		t.Errorf("mem operand String = %q", mem.String())
	}
	imm := Operand{Kind: ImmOperand, Imm: 5}
	if imm.String() != "$5" {
		t.Errorf("imm operand String = %q", imm.String())
	}
	choice := Operand{Kind: ImmOperand, ImmChoices: []int64{1, 2}}
	if choice.String() != "$choice[1 2]" {
		t.Errorf("choice operand String = %q", choice.String())
	}
	abstract := Instruction{Move: &MoveSemantics{Bytes: 16}, Operands: []Operand{imm}}
	if abstract.String() == "" {
		t.Error("abstract instruction String empty")
	}
}

// TestOpcodeResolvedOnce: Validate and SetOpcode record the resolved
// opcode, which Opcode returns while Op spells it canonically; any other
// spelling, or an Op assigned after resolution, is parsed afresh.
func TestOpcodeResolvedOnce(t *testing.T) {
	k := validKernel()
	k.Body = append(k.Body, Instruction{
		Op:       "addq",
		Operands: []Operand{{Kind: ImmOperand, Imm: 1}, {Kind: RegOperand, Reg: NewLogical("r2")}},
	})
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.Body[0].op != isa.MOVSS || k.Branch.op != isa.JGE {
		t.Errorf("Validate resolved %v / %v, want movss / jge", k.Body[0].op, k.Branch.op)
	}
	cases := []struct {
		in   Instruction
		want isa.Op
		ok   bool
	}{
		{k.Body[0], isa.MOVSS, true},
		{k.Body[1], isa.ADD, true},                           // suffixed: parsed
		{Instruction{Op: "movaps"}, isa.MOVAPS, true},        // never resolved
		{Instruction{Op: "nop"}, isa.NOP, true},              // the zero op's own name
		{Instruction{Op: "sub", op: isa.ADD}, isa.SUB, true}, // reassigned after resolution
		{Instruction{Op: "frob", op: isa.MOVSS}, 0, false},
		{Instruction{}, 0, false},
	}
	for _, c := range cases {
		got, err := c.in.Opcode()
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("Opcode(%q) = %v, %v; want %v (ok=%v)", c.in.Op, got, err, c.want, c.ok)
		}
		if want, err := isa.ParseOp(c.in.Op); c.ok && (err != nil || want != got) {
			t.Errorf("Opcode(%q) = %v, ParseOp says %v, %v", c.in.Op, got, want, err)
		}
	}
	var in Instruction
	in.SetOpcode(isa.MULPD)
	if in.Op != "mulpd" || in.op != isa.MULPD {
		t.Errorf("SetOpcode(mulpd) left %q / %v", in.Op, in.op)
	}
	b := Branch{Test: "jl", op: isa.JGE}
	if op, err := b.Opcode(); err != nil || op != isa.JL {
		t.Errorf("reassigned branch test resolved to %v, %v", op, err)
	}
}
