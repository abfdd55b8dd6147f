package xmlspec

import (
	"strings"
	"testing"

	"microtools/internal/ir"
	"microtools/internal/isa"
)

// Fig6 is the paper's Figure 6 kernel description — the (Load|Store)+
// definition that §5.1 expands into 510 benchmark programs — wrapped in the
// kernel element and completed with Figure 9's iteration counter.
const Fig6 = `
<kernel name="loadstore">
  <description>(Load|Store)+ movaps kernel, paper Figs. 6 and 9</description>
  <instruction>
    <operation>movaps</operation>
    <memory>
      <register><name>r1</name></register>
      <offset>0</offset>
    </memory>
    <register>
      <phyName>%xmm</phyName>
      <min>0</min>
      <max>8</max>
    </register>
    <swap_after_unroll/>
  </instruction>
  <unrolling>
    <min>1</min>
    <max>8</max>
  </unrolling>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
    <offset>16</offset>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked>
      <register><name>r1</name></register>
    </linked>
    <last_induction/>
  </induction>
  <induction>
    <register><phyName>%eax</phyName></register>
    <increment>1</increment>
    <not_affected_unroll/>
  </induction>
  <branch_information>
    <label>.L6</label>
    <test>jge</test>
  </branch_information>
</kernel>
`

func TestParseFig6(t *testing.T) {
	k, err := ParseOne(Fig6)
	if err != nil {
		t.Fatal(err)
	}
	if k.BaseName != "loadstore" {
		t.Errorf("name = %q", k.BaseName)
	}
	if len(k.Body) != 1 {
		t.Fatalf("body = %d instructions, want 1", len(k.Body))
	}
	in := k.Body[0]
	if in.Op != "movaps" || !in.SwapAfterUnroll || in.SwapBeforeUnroll {
		t.Errorf("instruction = %+v", in)
	}
	if len(in.Operands) != 2 {
		t.Fatalf("operands = %d, want 2", len(in.Operands))
	}
	// Memory first, register second: a load in AT&T order.
	if in.Operands[0].Kind != ir.MemOperand || in.Operands[1].Kind != ir.RegOperand {
		t.Errorf("operand order wrong: %v", in)
	}
	if in.Operands[0].Reg.Logical != "r1" {
		t.Errorf("memory base = %v", in.Operands[0].Reg)
	}
	rot := in.Operands[1].Reg
	if !rot.IsRotating() || rot.RotBase != "%xmm" || rot.RotRange != (ir.Range{Min: 0, Max: 8}) {
		t.Errorf("rotating register = %+v", rot)
	}
	if k.UnrollRange != (ir.Range{Min: 1, Max: 8}) {
		t.Errorf("unroll = %+v", k.UnrollRange)
	}
	if len(k.Inductions) != 3 {
		t.Fatalf("inductions = %d, want 3", len(k.Inductions))
	}
	// Register identity: the r1 induction must reference the same
	// *ir.Register as the memory operand base.
	if k.Inductions[0].Reg != in.Operands[0].Reg {
		t.Error("induction r1 and memory base r1 must be the same register object")
	}
	if k.Inductions[1].LinkedTo != in.Operands[0].Reg {
		t.Error("linked register must resolve to the same r1 object")
	}
	if !k.Inductions[1].Last || k.Inductions[1].Increment != -1 {
		t.Errorf("r0 induction = %+v", k.Inductions[1])
	}
	eax := k.Inductions[2]
	if eax.Reg.Phys != isa.RAX || !eax.Reg.Pinned32 || !eax.NotAffectedUnroll {
		t.Errorf("%%eax induction = %+v reg=%+v", eax, eax.Reg)
	}
	if k.Branch.Label != ".L6" || k.Branch.Test != "jge" {
		t.Errorf("branch = %+v", k.Branch)
	}
}

func TestParseMoveSemantics(t *testing.T) {
	src := `
<kernel name="m">
  <instruction>
    <move_semantics><bytes>16</bytes><precision>single</precision><aligned>both</aligned></move_semantics>
    <memory><register><name>r1</name></register></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
  </instruction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <last_induction/>
  </induction>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
    <offset>16</offset>
  </induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	k, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	mv := k.Body[0].Move
	if mv == nil || mv.Bytes != 16 || mv.Precision != "single" || mv.Aligned != "both" {
		t.Errorf("move semantics = %+v", mv)
	}
}

func TestParseImmediateAndStrideChoices(t *testing.T) {
	src := `
<kernel name="c">
  <instruction>
    <operation>add</operation>
    <immediate><value>4</value><value>8</value></immediate>
    <register><name>r1</name></register>
  </instruction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <last_induction/>
  </induction>
  <induction>
    <register><name>r1</name></register>
    <stride><value>4</value><value>16</value><value>64</value></stride>
    <offset>4</offset>
  </induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	k, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	imm := k.Body[0].Operands[0]
	if imm.Kind != ir.ImmOperand || len(imm.ImmChoices) != 2 {
		t.Errorf("immediate = %+v", imm)
	}
	if got := k.Inductions[1].IncrementChoices; len(got) != 3 || got[2] != 64 {
		t.Errorf("stride choices = %v", got)
	}
}

func TestParseStoreOperandOrder(t *testing.T) {
	// Register first, memory second: a store.
	src := `
<kernel name="s">
  <instruction>
    <operation>movaps</operation>
    <register><phyName>%xmm0</phyName></register>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
  </instruction>
  <induction><register><name>r1</name></register><increment>16</increment><offset>16</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	k, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	ops := k.Body[0].Operands
	if ops[0].Kind != ir.RegOperand || ops[1].Kind != ir.MemOperand {
		t.Errorf("store operand order not preserved: %v", k.Body[0])
	}
}

func TestParseMultipleKernels(t *testing.T) {
	src := `<microcreator>` + Fig6 + strings.ReplaceAll(Fig6, "loadstore", "loadstore2") + `</microcreator>`
	ks, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0].BaseName != "loadstore" || ks[1].BaseName != "loadstore2" {
		t.Fatalf("kernels = %d", len(ks))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", `<microcreator></microcreator>`},
		{"unknown top element", `<bogus/>`},
		{"no instructions", `<kernel name="k"><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"operation and move", `<kernel name="k"><instruction><operation>movss</operation><move_semantics><bytes>4</bytes></move_semantics><register><name>r1</name></register></instruction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"register name and phyName", `<kernel name="k"><instruction><operation>movss</operation><register><name>r1</name><phyName>%rax</phyName></register></instruction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"bad rotating range", `<kernel name="k"><instruction><operation>movss</operation><register><phyName>%xmm</phyName><min>8</min><max>2</max></register></instruction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"bad integer", `<kernel name="k"><instruction><operation>movss</operation><memory><register><name>r1</name></register><offset>xyz</offset></memory><register><phyName>%xmm0</phyName></register></instruction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"bad branch test", `<kernel name="k"><instruction><operation>movss</operation><memory><register><name>r1</name></register></memory><register><phyName>%xmm0</phyName></register></instruction><induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction><branch_information><label>.L</label><test>mov</test></branch_information></kernel>`},
		{"missing branch", `<kernel name="k"><instruction><operation>movss</operation><memory><register><name>r1</name></register></memory><register><phyName>%xmm0</phyName></register></instruction></kernel>`},
		{"empty immediate", `<kernel name="k"><instruction><operation>add</operation><immediate></immediate><register><name>r1</name></register></instruction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
		{"unknown kernel child", `<kernel name="k"><frobnicate/></kernel>`},
		{"zero increment induction", `<kernel name="k"><instruction><operation>movss</operation><memory><register><name>r1</name></register></memory><register><phyName>%xmm0</phyName></register></instruction><induction><register><name>r0</name></register><last_induction/></induction><branch_information><label>.L</label><test>jge</test></branch_information></kernel>`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestKernelCloneRegisterIdentity(t *testing.T) {
	k, err := ParseOne(Fig6)
	if err != nil {
		t.Fatal(err)
	}
	c := k.Clone()
	if c.Inductions[0].Reg != c.Body[0].Operands[0].Reg {
		t.Error("clone broke register identity")
	}
	if c.Inductions[0].Reg == k.Inductions[0].Reg {
		t.Error("clone shares registers with the original")
	}
	// Mutating the clone must not affect the original.
	c.Inductions[0].Reg.Phys = isa.RSI
	if k.Inductions[0].Reg.Phys == isa.RSI {
		t.Error("clone mutation leaked into original")
	}
}

func TestKernelRegistersEnumeration(t *testing.T) {
	k, err := ParseOne(Fig6)
	if err != nil {
		t.Fatal(err)
	}
	regs := k.AppendRegisters(nil)
	// r1, the rotating %xmm class, r0, %eax.
	if len(regs) != 4 {
		t.Fatalf("registers = %d (%v), want 4", len(regs), regs)
	}
}

func TestRangeDefaults(t *testing.T) {
	src := `
<kernel name="k">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register></memory>
    <register><phyName>%xmm0</phyName></register>
  </instruction>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	k, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if k.UnrollRange != (ir.Range{Min: 1, Max: 1}) {
		t.Errorf("default unroll = %+v", k.UnrollRange)
	}
	if k.ElementSize != 4 {
		t.Errorf("default element size = %d", k.ElementSize)
	}
}
