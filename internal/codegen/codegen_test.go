package codegen

import (
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/ir"
	"microtools/internal/isa"
)

// loweredKernel builds a fully-lowered two-instruction kernel (one load,
// one store) with inductions materialized, as the pipeline would produce.
func loweredKernel() *ir.Kernel {
	base := &ir.Register{Logical: "r1", Phys: isa.RSI}
	counter := &ir.Register{Logical: "r0", Phys: isa.RDI}
	eax := &ir.Register{Phys: isa.RAX, Pinned: true, Pinned32: true}
	xmm0 := &ir.Register{RotBase: "%xmm", RotRange: ir.Range{Min: 0, Max: 8}, RotIdx: 0}
	xmm1 := &ir.Register{RotBase: "%xmm", RotRange: ir.Range{Min: 0, Max: 8}, RotIdx: 1}
	return &ir.Kernel{
		BaseName: "k", Name: "k_u2_LS",
		Description: "golden test kernel",
		Unroll:      2,
		CodeAlign:   16,
		Body: []ir.Instruction{
			{Op: "movaps", Operands: []ir.Operand{
				{Kind: ir.MemOperand, Reg: base, Offset: 0},
				{Kind: ir.RegOperand, Reg: xmm0},
			}},
			{Op: "movaps", Operands: []ir.Operand{
				{Kind: ir.RegOperand, Reg: xmm1},
				{Kind: ir.MemOperand, Reg: base, Offset: 16},
			}},
			{Op: "add", Operands: []ir.Operand{
				{Kind: ir.ImmOperand, Imm: 32},
				{Kind: ir.RegOperand, Reg: base},
			}},
			{Op: "add", Operands: []ir.Operand{
				{Kind: ir.ImmOperand, Imm: 1},
				{Kind: ir.RegOperand, Reg: eax},
			}},
			{Op: "sub", Operands: []ir.Operand{
				{Kind: ir.ImmOperand, Imm: 8},
				{Kind: ir.RegOperand, Reg: counter},
			}},
		},
		Inductions: []ir.Induction{
			{Reg: base, Increment: 32, Offset: 16},
			{Reg: eax, Increment: 1, NotAffectedUnroll: true},
			{Reg: counter, Increment: -8, Last: true},
		},
		ZeroAtEntry: []*ir.Register{eax},
		Branch:      ir.Branch{Label: ".L6", Test: "jge"},
		Tags:        map[string]string{"u": "2"},
	}
}

func TestAssemblyGolden(t *testing.T) {
	out, err := Assembly(loweredKernel())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		".text",
		".align 16",
		".globl k_u2_LS",
		".type k_u2_LS, @function",
		"k_u2_LS:",
		"xor %eax, %eax",
		".L6:",
		"movaps (%rsi), %xmm0",
		"movaps %xmm1, 16(%rsi)",
		"add $32, %rsi",
		"add $1, %eax",
		"sub $8, %rdi",
		"jge .L6",
		"ret",
		".size k_u2_LS, .-k_u2_LS",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("assembly missing %q:\n%s", want, out)
		}
	}
}

func TestAssemblyRoundTripsThroughParser(t *testing.T) {
	out, err := Assembly(loweredKernel())
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.ParseOne(out, "x")
	if err != nil {
		t.Fatalf("generated assembly does not re-parse: %v\n%s", err, out)
	}
	if p.Name != "k_u2_LS" {
		t.Errorf("round-trip name = %q", p.Name)
	}
	st := p.StaticStats()
	if st.Loads != 1 || st.Stores != 1 || st.Branches != 1 {
		t.Errorf("round-trip stats = %+v", st)
	}
}

func TestCSourceShape(t *testing.T) {
	c, err := CSource(loweredKernel())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"int k_u2_LS(int n, void *v0);",
		"__asm__(",
		`movaps (%rsi), %xmm0`,
	} {
		if !strings.Contains(c, want) {
			t.Errorf("C source missing %q:\n%s", want, c)
		}
	}
}

func TestAbstractKernelRejected(t *testing.T) {
	k := loweredKernel()
	k.Body[0].Op = ""
	k.Body[0].Move = &ir.MoveSemantics{Bytes: 16}
	if _, err := Assembly(k); err == nil {
		t.Error("abstract instruction accepted by code generation")
	}
}

func TestUnallocatedRegisterRejected(t *testing.T) {
	k := loweredKernel()
	k.Body[0].Operands[0].Reg = ir.NewLogical("r9") // never allocated
	if _, err := Assembly(k); err == nil {
		t.Error("unallocated register accepted")
	}
}

func TestUnexpandedImmediateRejected(t *testing.T) {
	k := loweredKernel()
	k.Body[2].Operands[0].ImmChoices = []int64{1, 2}
	if _, err := Assembly(k); err == nil {
		t.Error("unexpanded immediate choices accepted")
	}
}

func TestMissingBranchLabelRejected(t *testing.T) {
	k := loweredKernel()
	k.Branch.Label = ""
	if _, err := Assembly(k); err == nil {
		t.Error("missing branch label accepted")
	}
}
