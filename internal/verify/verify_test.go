package verify_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/ir"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// lowered builds a minimal fully-lowered, verifier-clean kernel: a movss
// load through %rsi into a rotating XMM register, with the §4.4 loop shape.
// Tests mutate the result to seed specific defects.
func lowered() *ir.Kernel {
	base := &ir.Register{Logical: "r1", Phys: isa.RSI}
	counter := &ir.Register{Logical: "r0", Phys: isa.RDI}
	return &ir.Kernel{
		BaseName: "golden", Name: "golden",
		Body: []ir.Instruction{{
			Op: "movss",
			Operands: []ir.Operand{
				{Kind: ir.MemOperand, Reg: base},
				{Kind: ir.RegOperand, Reg: &ir.Register{RotBase: "%xmm", RotRange: ir.Range{Min: 0, Max: 4}}},
			},
		}},
		Inductions: []ir.Induction{
			{Reg: base, Increment: 4, Offset: 4},
			{Reg: counter, Increment: -1, Last: true},
		},
		Branch: ir.Branch{Label: ".L0", Test: "jge"},
		Unroll: 1,
	}
}

func rules(ds verify.Diagnostics) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Rule)
	}
	return out
}

func TestCleanKernelHasNoDiagnostics(t *testing.T) {
	if ds := verify.Kernel(lowered(), verify.Options{}); len(ds) != 0 {
		t.Fatalf("clean kernel produced diagnostics: %v", ds)
	}
}

func TestUseBeforeDefMemoryBase(t *testing.T) {
	k := lowered()
	// Rebase the load onto a scratch register nothing initializes: the
	// launcher only provides the SysV argument registers.
	k.Body[0].Operands[0].Reg = &ir.Register{Logical: "r9", Phys: isa.R10}
	ds := verify.Kernel(k, verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleUseBeforeDef || ds[0].Severity != verify.SeverityError {
		t.Fatalf("want one %s error, got %v", verify.RuleUseBeforeDef, ds)
	}
	if ds[0].Instr != 0 || !strings.Contains(ds[0].Message, "memory base") {
		t.Errorf("diagnostic misplaced: %+v", ds[0])
	}
}

func TestUseBeforeDefScratchReadIsWarning(t *testing.T) {
	k := lowered()
	// add $1, %r10 without a prior write: defined in simulation (the
	// launcher zero-fills the register file) but suspect — warning only.
	k.Body = append(k.Body, ir.Instruction{
		Op: "add",
		Operands: []ir.Operand{
			{Kind: ir.ImmOperand, Imm: 1},
			{Kind: ir.RegOperand, Reg: &ir.Register{Logical: "r9", Phys: isa.R10}},
		},
	})
	ds := verify.Kernel(k, verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleUseBeforeDef || ds[0].Severity != verify.SeverityWarning {
		t.Fatalf("want one %s warning, got %v", verify.RuleUseBeforeDef, ds)
	}
	if ds.HasErrors() {
		t.Error("warning counted as error")
	}
}

func TestIllegalOperandForm(t *testing.T) {
	k := lowered()
	// mov mem -> GPR is outside the executable subset (no memory-to-GPR
	// loads; the launcher protocol never needs them).
	k.Body[0].Op = "mov"
	k.Body[0].Operands[1] = ir.Operand{Kind: ir.RegOperand, Reg: &ir.Register{Logical: "r9", Phys: isa.R10}}
	ds := verify.Kernel(k, verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleOperandForm || ds[0].Severity != verify.SeverityError {
		t.Fatalf("want one %s error, got %v", verify.RuleOperandForm, ds)
	}
}

// TestKernelFormsNameWhatLoweringRefuses: every body form codegen.Lower
// (through isa.Program.Validate) refuses is a kernel-level V001 error at
// its instruction, and the forms it accepts are not; vet reports that
// V001 beside the pipeline error.
func TestKernelFormsNameWhatLoweringRefuses(t *testing.T) {
	mem := ir.Operand{Kind: ir.MemOperand, Reg: &ir.Register{Logical: "r1", Phys: isa.RSI}}
	gpr := ir.Operand{Kind: ir.RegOperand, Reg: &ir.Register{Phys: isa.RDX}}
	imm := ir.Operand{Kind: ir.ImmOperand, Imm: 1}
	for _, tc := range []struct {
		op       string
		operands []ir.Operand
		want     string // "" = legal
	}{
		{"mov", []ir.Operand{mem, gpr}, "mov does not accept operand form (mem,gpr)"},
		{"jmp", []ir.Operand{gpr}, "jmp inside the kernel body"},
		{"jge", []ir.Operand{imm}, "jge inside the kernel body"},
		{"jne", []ir.Operand{mem}, "jne inside the kernel body"},
		{"mov", []ir.Operand{gpr, mem}, ""},
		{"mov", []ir.Operand{imm, gpr}, ""},
		{"add", []ir.Operand{imm, gpr}, ""},
	} {
		k := lowered()
		k.Body = append(k.Body, ir.Instruction{Op: tc.op, Operands: tc.operands})
		var forms verify.Diagnostics
		for _, d := range verify.Kernel(k, verify.Options{}) {
			if d.Rule == verify.RuleOperandForm {
				forms = append(forms, d)
			}
		}
		_, lowerErr := codegen.Lower(k)
		if tc.want == "" {
			if len(forms) != 0 || lowerErr != nil {
				t.Errorf("%s %v: V001 %v, Lower error %v; want neither", tc.op, tc.operands, forms, lowerErr)
			}
			continue
		}
		if lowerErr == nil {
			t.Errorf("%s %v: Lower accepted it; the table no longer mirrors lowering", tc.op, tc.operands)
		}
		if len(forms) != 1 || forms[0].Severity != verify.SeverityError || forms[0].Instr != 1 ||
			!strings.Contains(forms[0].Message, tc.want) {
			t.Errorf("%s %v: V001 %v, want one error at 1 saying %q", tc.op, tc.operands, forms, tc.want)
		}
	}

	spec := `<kernel name="gpr">
  <instruction>
    <operation>mov</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%rdx</phyName></register>
  </instruction>
  <unrolling><min>1</min><max>2</max></unrolling>
  <induction><register><name>r1</name></register><increment>8</increment><offset>8</offset></induction>
  <induction>
    <register><name>r0</name></register><increment>-1</increment>
    <linked><register><name>r1</name></register></linked><last_induction/>
  </induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	ds, _, err := core.Vet(context.Background(), strings.NewReader(spec), core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rules(ds); !reflect.DeepEqual(got, []string{verify.RuleOperandForm, verify.RuleParse}) ||
		!strings.Contains(ds[0].Message, "(mem,gpr)") {
		t.Fatalf("vet of a mem→GPR mov: %v, want the V001 naming (mem,gpr) and the V000", ds)
	}
}

func TestUnknownOpcodeIsOperandFormError(t *testing.T) {
	k := lowered()
	k.Body[0].Op = "vfmadd231ps"
	ds := verify.Kernel(k, verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleOperandForm {
		t.Fatalf("want one %s finding, got %v", verify.RuleOperandForm, ds)
	}
}

// TestUnknownOpcodeDiagnostic pins the V001 finding for an unknown
// mnemonic: on a kernel that never resolved its opcodes, and on one whose
// mnemonic was replaced after resolution.
func TestUnknownOpcodeDiagnostic(t *testing.T) {
	want := verify.Diagnostics{{
		Rule: verify.RuleOperandForm, Severity: verify.SeverityError,
		Kernel: "golden", Instr: 0, Message: `unknown opcode "vfmadd231ps"`,
	}}
	k := lowered()
	k.Body[0].Op = "vfmadd231ps"
	if ds := verify.Kernel(k, verify.Options{}); !reflect.DeepEqual(ds, want) {
		t.Errorf("unresolved kernel: got %v, want %v", ds, want)
	}
	k = lowered()
	k.Body[0].SetOpcode(isa.MOVSS)
	k.Body[0].Op = "vfmadd231ps"
	if ds := verify.Kernel(k, verify.Options{}); !reflect.DeepEqual(ds, want) {
		t.Errorf("kernel resolved before the mnemonic changed: got %v, want %v", ds, want)
	}
}

func TestRegisterConflict(t *testing.T) {
	k := lowered()
	// Two distinct register objects landing on the same physical XMM.
	a := &ir.Register{Logical: "x0", Phys: isa.XMM2}
	b := &ir.Register{Logical: "x1", Phys: isa.XMM2}
	k.Body = []ir.Instruction{{
		Op: "addps",
		Operands: []ir.Operand{
			{Kind: ir.RegOperand, Reg: a},
			{Kind: ir.RegOperand, Reg: b},
		},
	}}
	ds := verify.Kernel(k, verify.Options{})
	if got := rules(ds); len(got) != 1 || got[0] != verify.RuleRegisterConflict {
		t.Fatalf("want [%s], got %v", verify.RuleRegisterConflict, ds)
	}
}

func TestRotatingPoolOverlapsPinned(t *testing.T) {
	k := lowered()
	// Pin an XMM inside the rotating pool's sweep range.
	k.Body = append(k.Body, ir.Instruction{
		Op: "addps",
		Operands: []ir.Operand{
			{Kind: ir.RegOperand, Reg: &ir.Register{Logical: "acc", Phys: isa.XMM2}},
			{Kind: ir.RegOperand, Reg: &ir.Register{Logical: "acc2", Phys: isa.XMM8}},
		},
	})
	ds := verify.Kernel(k, verify.Options{})
	found := false
	for _, d := range ds {
		if d.Rule == verify.RuleRegisterConflict && strings.Contains(d.Message, "rotating pool") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rotating-pool conflict reported: %v", ds)
	}
}

func TestMisalignedAccess(t *testing.T) {
	k := lowered()
	k.Body[0].Op = "movaps"
	k.Body[0].Operands[0].Offset = 6
	k.Inductions[0].Increment = 16
	ds := verify.Kernel(k, verify.Options{})
	if got := rules(ds); len(got) != 1 || got[0] != verify.RuleAlignment {
		t.Fatalf("want [%s], got %v", verify.RuleAlignment, ds)
	}
}

func TestMisalignedStride(t *testing.T) {
	k := lowered()
	k.Body[0].Op = "movaps"
	k.Inductions[0].Increment = 12 // offset 0 is aligned, but iteration 2 faults
	ds := verify.Kernel(k, verify.Options{})
	if got := rules(ds); len(got) != 1 || got[0] != verify.RuleAlignment {
		t.Fatalf("want [%s], got %v", verify.RuleAlignment, ds)
	}
	if !strings.Contains(ds[0].Message, "stride") {
		t.Errorf("message should name the stride: %s", ds[0].Message)
	}
}

func TestInductionInconsistencyAcrossCopies(t *testing.T) {
	k := lowered()
	k.Unroll = 2
	base := k.Body[0].Operands[0].Reg
	copy1 := ir.Instruction{
		Op: "movss",
		Operands: []ir.Operand{
			{Kind: ir.MemOperand, Reg: base, Offset: 999}, // should be 4 (the per-copy offset)
			{Kind: ir.RegOperand, Reg: &ir.Register{RotBase: "%xmm", RotRange: ir.Range{Min: 0, Max: 4}, RotIdx: 1}},
		},
		Copy: 1,
	}
	k.Body = append(k.Body, copy1)
	ds := verify.Kernel(k, verify.Options{})
	if got := rules(ds); len(got) != 1 || got[0] != verify.RuleInduction {
		t.Fatalf("want [%s], got %v", verify.RuleInduction, ds)
	}
}

func TestRotationRangeExceedsFile(t *testing.T) {
	k := lowered()
	k.Body[0].Operands[1].Reg.RotRange = ir.Range{Min: 0, Max: 20}
	ds := verify.Kernel(k, verify.Options{})
	found := false
	for _, d := range ds {
		if d.Rule == verify.RulePressure {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s finding for a 20-wide rotation range: %v", verify.RulePressure, ds)
	}
}

func TestSuppressionSilencesRule(t *testing.T) {
	k := lowered()
	k.Body[0].Op = "movaps"
	k.Body[0].Operands[0].Offset = 6
	k.Inductions[0].Increment = 16
	ds := verify.Kernel(k, verify.Options{Suppress: []string{verify.RuleAlignment}})
	if len(ds) != 0 {
		t.Fatalf("suppressed rule still reported: %v", ds)
	}
}

// --- asm-level golden cases ------------------------------------------------

const goodAsm = `
    .text
    .globl golden
golden:
.L0:
    movss (%rsi), %xmm0
    add $4, %rsi
    sub $1, %rdi
    jge .L0
    ret
`

func TestAsmCleanProgram(t *testing.T) {
	if ds := verify.Asm(goodAsm, "golden", verify.Options{}); len(ds) != 0 {
		t.Fatalf("clean asm produced diagnostics: %v", ds)
	}
}

func TestAsmDanglingBranchTarget(t *testing.T) {
	src := strings.Replace(goodAsm, "jge .L0", "jge .L9", 1)
	ds := verify.Asm(src, "golden", verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleLoop || ds[0].Severity != verify.SeverityError {
		t.Fatalf("want one %s error for the dangling target, got %v", verify.RuleLoop, ds)
	}
}

func TestAsmMissingRet(t *testing.T) {
	src := strings.Replace(goodAsm, "    ret\n", "", 1)
	ds := verify.Asm(src, "golden", verify.Options{})
	found := false
	for _, d := range ds {
		if d.Rule == verify.RuleLoop && strings.Contains(d.Message, "ret") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing ret not reported: %v", ds)
	}
}

func TestAsmLoopWithoutInductionUpdate(t *testing.T) {
	src := `
golden:
.L0:
    movss (%rsi), %xmm0
    jge .L0
    ret
`
	ds := verify.Asm(src, "golden", verify.Options{})
	found := false
	for _, d := range ds {
		if d.Rule == verify.RuleLoop {
			found = true
		}
	}
	if !found {
		t.Fatalf("flagless loop not reported: %v", ds)
	}
}

func TestAsmMisalignedInductionStride(t *testing.T) {
	src := `
golden:
.L0:
    movaps (%rsi), %xmm0
    add $12, %rsi
    sub $1, %rdi
    jge .L0
    ret
`
	ds := verify.Asm(src, "golden", verify.Options{})
	if got := rules(ds); len(got) != 1 || got[0] != verify.RuleAlignment {
		t.Fatalf("want [%s], got %v", verify.RuleAlignment, ds)
	}
}

func TestAsmProgramReturnsDecodedProgram(t *testing.T) {
	p, ds := verify.AsmProgram(goodAsm, "golden", verify.Options{})
	if len(ds) != 0 {
		t.Fatalf("diagnostics on clean asm: %v", ds)
	}
	if p == nil || len(p.Insts) == 0 {
		t.Fatal("no decoded program returned")
	}
}

// --- expansion accounting ---------------------------------------------------

func TestExpansionAccounting(t *testing.T) {
	if ds := verify.Expansion("k", 10, 10, verify.Options{}); len(ds) != 0 {
		t.Errorf("exact match reported: %v", ds)
	}
	ds := verify.Expansion("k", 8, 10, verify.Options{})
	if len(ds) != 1 || ds[0].Severity != verify.SeverityWarning || ds[0].Rule != verify.RuleExpansion {
		t.Errorf("shortfall should be a %s warning (prologue dedup): %v", verify.RuleExpansion, ds)
	}
	ds = verify.Expansion("k", 12, 10, verify.Options{})
	if len(ds) != 1 || ds[0].Severity != verify.SeverityError {
		t.Errorf("surplus should be an error: %v", ds)
	}
	ds = verify.Expansion("k", 0, 10, verify.Options{})
	if len(ds) != 1 || ds[0].Severity != verify.SeverityError {
		t.Errorf("zero variants should be an error: %v", ds)
	}
}

func TestExpectedVariantsUnpredictable(t *testing.T) {
	k := lowered()
	k.UnrollRange = ir.Range{Min: 1, Max: 1}
	k.Unroll = 0
	k.RandomCount = 3
	if _, ok := verify.ExpectedVariants(k, nil); ok {
		t.Error("random selection should be unpredictable")
	}
	k.RandomCount = 0
	k.MaxVariants = 5
	if _, ok := verify.ExpectedVariants(k, nil); ok {
		t.Error("capped kernels should be unpredictable")
	}
}

func TestExpectedVariantsSimple(t *testing.T) {
	k := lowered()
	k.Unroll = 0
	k.UnrollRange = ir.Range{Min: 1, Max: 2}
	k.Body[0].Operands = append(k.Body[0].Operands[:1], k.Body[0].Operands[1:]...)
	n, ok := verify.ExpectedVariants(k, nil)
	if !ok || n != 2 {
		t.Fatalf("ExpectedVariants = %d, %v; want 2 (one per unroll)", n, ok)
	}
	// An immediate choice list multiplies the count.
	k.Body = append(k.Body, ir.Instruction{
		Op: "add",
		Operands: []ir.Operand{
			{Kind: ir.ImmOperand, ImmChoices: []int64{1, 2, 3}},
			{Kind: ir.RegOperand, Reg: &ir.Register{Logical: "r9", Phys: isa.R10}},
		},
	})
	n, ok = verify.ExpectedVariants(k, nil)
	if !ok || n != 6 {
		t.Fatalf("ExpectedVariants = %d, %v; want 6 (2 unrolls x 3 immediates)", n, ok)
	}
}

// --- diagnostics plumbing ---------------------------------------------------

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []verify.Severity{verify.SeverityInfo, verify.SeverityWarning, verify.SeverityError} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back verify.Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("severity %v round-tripped to %v", s, back)
		}
	}
}

func TestDiagnosticsJSONAndSummary(t *testing.T) {
	ds := verify.Diagnostics{
		{Rule: verify.RuleAlignment, Severity: verify.SeverityError, Kernel: "k", Instr: 2, Message: "boom"},
		{Rule: verify.RuleExpansion, Severity: verify.SeverityWarning, Kernel: "k", Instr: -1, Message: "short"},
	}
	if got := ds.Summary(); got != "1 error, 1 warning" {
		t.Errorf("Summary = %q", got)
	}
	if err := ds.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Err = %v", err)
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back verify.Diagnostics
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != ds[0] || back[1] != ds[1] {
		t.Errorf("JSON round trip lost data: %v", back)
	}
}

// TestSeedSpecsVerifyClean is the property the repository promises: every
// shipped spec expands into variants the verifier fully accepts — no
// errors, no warnings.
func TestSeedSpecsVerifyClean(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no seed specs found")
	}
	for _, spec := range specs {
		ds, progs, err := core.VetFile(context.Background(), spec, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(progs) == 0 {
			t.Errorf("%s: produced no programs", spec)
		}
		for _, d := range ds {
			t.Errorf("%s: %s", spec, d)
		}
	}
}

// --- dataflow-backed rules (V009-V011) --------------------------------------

func TestAsmDeadWriteWarning(t *testing.T) {
	src := `
golden:
.L0:
    mov $7, %rcx
    movss (%rsi), %xmm0
    add $4, %rsi
    sub $1, %rdi
    jge .L0
    ret
`
	ds := verify.Asm(src, "golden", verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleDeadWrite || ds[0].Severity != verify.SeverityWarning {
		t.Fatalf("want one %s warning for the unread %%rcx write, got %v", verify.RuleDeadWrite, ds)
	}
	if ds[0].Instr != 0 {
		t.Errorf("dead write reported at %d, want instruction 0", ds[0].Instr)
	}
	// The load's unread %xmm0 must stay exempt: the access is the
	// workload.
	if strings.Contains(ds[0].Message, "xmm0") {
		t.Errorf("load destination flagged as dead: %v", ds[0])
	}
}

func TestAsmSelfMoveWarning(t *testing.T) {
	src := strings.Replace(goodAsm, "    add $4, %rsi\n", "    add $4, %rsi\n    mov %rdx, %rdx\n", 1)
	ds := verify.Asm(src, "golden", verify.Options{})
	if len(ds) != 1 || ds[0].Rule != verify.RuleSelfMove || ds[0].Severity != verify.SeverityWarning {
		t.Fatalf("want one %s warning for mov %%rdx, %%rdx, got %v", verify.RuleSelfMove, ds)
	}
}

func TestAsmRecurrenceInfoOptIn(t *testing.T) {
	// Off by default: the clean kernel stays finding-free.
	if ds := verify.Asm(goodAsm, "golden", verify.Options{}); len(ds) != 0 {
		t.Fatalf("V011 leaked without opt-in: %v", ds)
	}
	ds := verify.Asm(goodAsm, "golden", verify.Options{Recurrences: true})
	if len(ds) == 0 {
		t.Fatal("no V011 findings with Recurrences on")
	}
	for _, d := range ds {
		if d.Rule != verify.RuleRecurrence || d.Severity != verify.SeverityInfo {
			t.Errorf("unexpected finding: %v", d)
		}
	}
	if ds.HasErrors() {
		t.Errorf("info findings must not fail enforcement: %v", ds)
	}
	// The induction registers recur: expect %rsi (and %rdi) among them.
	found := false
	for _, d := range ds {
		if strings.Contains(d.Message, "%rsi") {
			found = true
		}
	}
	if !found {
		t.Errorf("no recurrence through %%rsi reported: %v", ds)
	}
}

// TestInductionDiagnosticsAcrossBases pins V005's findings when several
// induction bases share a body: one finding per inconsistent base, in
// register first-use order, comparing each copy against the first copy
// that has accesses, with every offset list sorted.
func TestInductionDiagnosticsAcrossBases(t *testing.T) {
	k := lowered()
	k.Unroll = 3
	b1 := k.Body[0].Operands[0].Reg
	b2 := &ir.Register{Logical: "r2", Phys: isa.RDX}
	k.Inductions = append(k.Inductions, ir.Induction{Reg: b2, Increment: 48, Offset: 16})
	xmm := k.Body[0].Operands[1].Reg
	load := func(base *ir.Register, off int64, copy int) ir.Instruction {
		return ir.Instruction{Op: "movss", Copy: copy, Operands: []ir.Operand{
			{Kind: ir.MemOperand, Reg: base, Offset: off},
			{Kind: ir.RegOperand, Reg: xmm},
		}}
	}
	k.Body = []ir.Instruction{
		load(b2, 16+5, 1), // b2 is used first; no copy-0 access, so copy 1 is its reference
		load(b1, 8, 0), load(b1, 0, 0),
		load(b1, 4, 1), load(b1, 12, 1),
		load(b2, 32+7, 2), load(b2, 32, 2),
		load(b1, 20, 2), load(b1, 8, 2),
		load(b1, 99, 2),
	}
	ds := verify.Kernel(k, verify.Options{})
	want := []string{
		"accesses through r2(%rdx) are inconsistent across unrolled copies: copy 1 covers offsets [5], copy 2 covers [0 7] (normalized by the per-copy offset)",
		"accesses through r1(%rsi) are inconsistent across unrolled copies: copy 0 covers offsets [0 8], copy 2 covers [0 12 91] (normalized by the per-copy offset)",
	}
	var got []string
	for _, d := range ds {
		if d.Rule == verify.RuleInduction {
			got = append(got, d.Message)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("V005 findings:\n%s\nwant:\n%s\nall: %v", strings.Join(got, "\n"), strings.Join(want, "\n"), ds)
	}
}
