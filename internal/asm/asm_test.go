package asm

import (
	"strings"
	"testing"

	"microtools/internal/isa"
)

// fig8 is the paper's Figure 8 output kernel, verbatim (plus the function
// wrapper MicroCreator's prologue/epilogue pass adds).
const fig8 = `
    .text
    .globl kernel
    .type kernel, @function
kernel:
.L6:
# Unrolling iterations
    movaps %xmm0, 0(%rsi)
    movaps 16(%rsi), %xmm1
    movaps %xmm2, 32(%rsi)
# Induction variables
    add $48, %rsi
    sub $12, %rdi
    jge .L6
    ret
`

func TestParseFig8(t *testing.T) {
	p, err := ParseOne(fig8, "k")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "kernel" {
		t.Errorf("name = %q, want kernel", p.Name)
	}
	if len(p.Insts) != 7 {
		t.Fatalf("got %d instructions, want 7", len(p.Insts))
	}
	if i, ok := p.LabelIndex(".L6"); !ok || i != 0 {
		t.Errorf(".L6 = %d, %v; want 0, true", i, ok)
	}
	st := p.StaticStats()
	if st.Loads != 1 || st.Stores != 2 || st.Branches != 1 {
		t.Errorf("stats = %+v", st)
	}
	jge := p.Insts[5]
	if jge.Op != isa.JGE || jge.Target != 0 {
		t.Errorf("jge = %+v", jge)
	}
}

// fig2 is the paper's Figure 2: the GCC -O3 inner loop of the naive matrix
// multiply.
const fig2 = `
.L3:
	movsd (%rdx,%rax,8), %xmm0
	addq $1, %rax
	mulsd (%r8), %xmm0
	addq %r11, %r8
	cmpl %eax, %edi
	addsd %xmm0, %xmm1
	movsd %xmm1, (%r10,%r9)
	jg .L3
	ret
`

func TestParseFig2(t *testing.T) {
	p, err := ParseOne(fig2, "mm")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mm" {
		t.Errorf("name = %q (default expected)", p.Name)
	}
	in := p.Insts[0]
	if in.Op != isa.MOVSD || !in.IsLoad() {
		t.Fatalf("inst 0 = %v", in.String())
	}
	if in.A.Mem.Base != isa.RDX || in.A.Mem.Index != isa.RAX || in.A.Mem.Scale != 8 {
		t.Errorf("mem ref = %+v", in.A.Mem)
	}
	cmp := p.Insts[4]
	if cmp.Op != isa.CMP || cmp.A.Reg != isa.RAX || cmp.B.Reg != isa.RDI {
		t.Errorf("cmpl parsed wrong: %s", cmp.String())
	}
	store := p.Insts[6]
	if !store.IsStore() || store.B.Mem.Index != isa.R9 || store.B.Mem.Scale != 1 {
		t.Errorf("store parsed wrong: %s", store.String())
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	src := `
	.globl f1
	.globl f2
f1:
	add $1, %rax
	ret
f2:
	sub $1, %rax
	ret
`
	progs, err := ParseString(src, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || progs[0].Name != "f1" || progs[1].Name != "f2" {
		t.Fatalf("got %d programs", len(progs))
	}
}

func TestParseMemForms(t *testing.T) {
	cases := []struct {
		src  string
		want isa.MemRef
	}{
		{"movss (%rsi), %xmm0", isa.MemRef{Base: isa.RSI, Index: isa.NoReg}},
		{"movss 8(%rsi), %xmm0", isa.MemRef{Base: isa.RSI, Index: isa.NoReg, Disp: 8}},
		{"movss -16(%rsi), %xmm0", isa.MemRef{Base: isa.RSI, Index: isa.NoReg, Disp: -16}},
		{"movss (%rsi,%rax,4), %xmm0", isa.MemRef{Base: isa.RSI, Index: isa.RAX, Scale: 4}},
		{"movss (%rsi,%rax), %xmm0", isa.MemRef{Base: isa.RSI, Index: isa.RAX, Scale: 1}},
		{"movss 0x20(,%rax,8), %xmm0", isa.MemRef{Base: isa.NoReg, Index: isa.RAX, Scale: 8, Disp: 32}},
	}
	for _, c := range cases {
		p, err := ParseOne(c.src+"\n ret", "k")
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got := p.Insts[0].A.Mem
		if got != c.want {
			t.Errorf("%q: mem = %+v, want %+v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate %rax, %rbx\nret",       // unknown mnemonic
		"jge\nret",                         // branch without target
		"add $1, %zmm3\nret",               // unknown register
		"movss (%rsi, %xmm0",               // unbalanced paren
		"jge .nowhere\nret",                // undefined label
		"add $1, $2, $3, $4\nret",          // too many operands
		"movss 4(%rsi,%rax,3), %xmm0\nret", // invalid scale
		"mov (%rsi), %rax\nret",            // GPR load (outside subset)
		".globl\nret",                      // malformed directive
		"",                                 // empty file
	}
	for _, src := range bad {
		if _, err := ParseString(src, "k"); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestParseErrorHasLineInfo(t *testing.T) {
	_, err := ParseString("nop\nbogus_op %rax\nret", "k")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if pe.Line != 2 || !strings.Contains(pe.Text, "bogus_op") {
		t.Errorf("ParseError = %+v", pe)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := `
# full line comment

	nop  # trailing comment
	ret
`
	p, err := ParseOne(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 2 {
		t.Errorf("got %d instructions, want 2", len(p.Insts))
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	src := ".L1:\nnop\n.L1:\nret"
	if _, err := ParseString(src, "k"); err == nil {
		t.Error("duplicate label must fail")
	}
}
