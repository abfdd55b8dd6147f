package passes

import (
	"fmt"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/ir"
	"microtools/internal/isa"
	"microtools/internal/xmlspec"
)

// mustAsm renders a program's assembly on demand, failing the test on a
// render error.
func mustAsm(t *testing.T, p codegen.Program) string {
	t.Helper()
	s, err := p.Assembly()
	if err != nil {
		t.Fatalf("%s: render: %v", p.Name, err)
	}
	return s
}

// fig6XML reproduces the paper's Figure 6 (with the Figure 9 iteration
// counter): the (Load|Store)+ input that §5.1 says generates 510 benchmark
// program variations.
const fig6XML = `
<kernel name="loadstore">
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
    <swap_after_unroll/>
  </instruction>
  <unrolling><min>1</min><max>8</max></unrolling>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
    <offset>16</offset>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction>
    <register><phyName>%eax</phyName></register>
    <increment>1</increment>
    <not_affected_unroll/>
  </induction>
  <branch_information><label>.L6</label><test>jge</test></branch_information>
</kernel>`

// runPipeline runs the default pipeline over xml and returns the programs
// its sink collected and the final variant set.
func runPipeline(t *testing.T, xml string) ([]codegen.Program, []*ir.Kernel) {
	t.Helper()
	ks, err := xmlspec.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	var progs []codegen.Program
	ctx := &Context{EmitAssembly: true, Sink: func(p codegen.Program) error {
		progs = append(progs, p)
		return nil
	}}
	out, err := NewManager().Run(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	return progs, out
}

// TestFig6Produces510Variants checks the paper's headline generation count:
// "MicroCreator generated 510 benchmark program variations" — unroll factors
// 1..8 with a per-copy load/store swap: sum(2^u, u=1..8) = 510.
func TestFig6Produces510Variants(t *testing.T) {
	progs, out := runPipeline(t, fig6XML)
	if len(out) != 510 {
		t.Fatalf("generated %d variants, want 510", len(out))
	}
	if len(progs) != 510 {
		t.Fatalf("emitted %d programs, want 510", len(progs))
	}
	// Per-unroll counts must be 2^u.
	perUnroll := map[int]int{}
	names := map[string]bool{}
	for _, k := range out {
		perUnroll[k.Unroll]++
		if names[k.Name] {
			t.Fatalf("duplicate variant name %q", k.Name)
		}
		names[k.Name] = true
	}
	for u := 1; u <= 8; u++ {
		if perUnroll[u] != 1<<u {
			t.Errorf("unroll %d: %d variants, want %d", u, perUnroll[u], 1<<u)
		}
	}
	// Depth-first order: unroll ascending, then the swap choices with the
	// first copy most significant and the load before the store
	// (u1: L, S; u2: LL, LS, SL, SS; ...).
	i := 0
	for u := 1; u <= 8; u++ {
		for m := 0; m < 1<<u; m++ {
			pat := make([]byte, u)
			for c := range pat {
				pat[c] = "LS"[m>>(u-1-c)&1]
			}
			if want := fmt.Sprintf("loadstore_u%d_%s", u, pat); out[i].Name != want {
				t.Fatalf("variant %d is %q, want %q", i, out[i].Name, want)
			}
			i++
		}
	}
}

// TestFig8GoldenOutput finds the u=3 store/load/store variant and checks the
// generated assembly against the paper's Figure 8: offsets 0/16/32, add $48
// to the data pointer, sub $12 to the counter, jge loop.
func TestFig8GoldenOutput(t *testing.T) {
	progs, _ := runPipeline(t, fig6XML)
	var asmText string
	for _, p := range progs {
		if strings.Contains(p.Name, "u3_SLS") {
			asmText = mustAsm(t, p)
			break
		}
	}
	if asmText == "" {
		t.Fatal("no u3 SLS variant found")
	}
	for _, want := range []string{
		"movaps %xmm0, (%rsi)",
		"movaps 16(%rsi), %xmm1",
		"movaps %xmm2, 32(%rsi)",
		"add $48, %rsi",
		"add $1, %eax",
		"sub $12, %rdi",
		"jge .L6",
		"xor %eax, %eax",
		"ret",
	} {
		if !strings.Contains(asmText, want) {
			t.Errorf("assembly missing %q:\n%s", want, asmText)
		}
	}
	// The flag-setting last induction must be the final instruction before
	// the branch (the iteration counter would clobber the flags).
	lines := strings.Split(asmText, "\n")
	for i, line := range lines {
		if strings.Contains(line, "jge") {
			if !strings.Contains(lines[i-1], "sub $12, %rdi") {
				t.Errorf("instruction before jge is %q, want the sub", lines[i-1])
			}
		}
	}
}

// TestGeneratedProgramsParseAndRun feeds every generated variant through the
// assembly front end and executes it functionally, checking the
// MicroLauncher linking protocol: %eax returns the executed loop iterations.
func TestGeneratedProgramsParseAndRun(t *testing.T) {
	progs, _ := runPipeline(t, fig6XML)
	for _, prog := range progs {
		asmText := mustAsm(t, prog)
		p, err := asm.ParseOne(asmText, prog.Name)
		if err != nil {
			t.Fatalf("%s: %v\n%s", prog.Name, err, asmText)
		}
		u := prog.Kernel.Unroll
		n := uint64(16 * 4 * 8) // plenty of elements, multiple of all unrolls
		var rf isa.RegFile
		rf.Set(isa.RDI, n)
		rf.Set(isa.RSI, 0x100000)
		pc := 0 // entry at function start
		steps := 0
		for pc >= 0 {
			inst := &p.Insts[pc]
			var err error
			pc, _, err = isa.Exec(inst, pc, &rf)
			if err != nil {
				t.Fatalf("%s: %v", prog.Name, err)
			}
			steps++
			if steps > 100000 {
				t.Fatalf("%s: runaway execution", prog.Name)
			}
		}
		iters := rf.Get(isa.RAX)
		// Loop runs while counter >= 0: floor(n/(4u)) + 1 iterations.
		want := n/uint64(4*u) + 1
		if iters != want {
			t.Errorf("%s: %%eax = %d loop iterations, want %d", prog.Name, iters, want)
		}
		// Data pointer advanced by 16 bytes per movaps per iteration.
		if got := rf.Get(isa.RSI); got != 0x100000+iters*uint64(16*u) {
			t.Errorf("%s: rsi advanced %d bytes, want %d", prog.Name, got-0x100000, iters*uint64(16*u))
		}
	}
}

// TestRegisterRotation checks that unrolled copies use distinct XMM
// registers within the rotation range ("Doing so reduces register
// dependency", §3.1).
func TestRegisterRotation(t *testing.T) {
	progs, _ := runPipeline(t, fig6XML)
	for _, prog := range progs {
		if prog.Kernel.Unroll != 8 {
			continue
		}
		asmText := mustAsm(t, prog)
		for c := 0; c < 8; c++ {
			want := fmt.Sprintf("%%xmm%d", c)
			if !strings.Contains(asmText, want) {
				t.Errorf("%s: missing rotated register %s\n%s", prog.Name, want, asmText)
			}
		}
		break
	}
}

const moveSemanticsXML = `
<kernel name="moves">
  <instruction>
    <move_semantics><bytes>16</bytes><aligned>both</aligned></move_semantics>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
  </instruction>
  <unrolling><min>1</min><max>1</max></unrolling>
  <induction><register><name>r1</name></register><increment>16</increment><offset>16</offset></induction>
  <induction><register><name>r0</name></register><increment>-4</increment><last_induction/></induction>
  <branch_information><label>.L1</label><test>jge</test></branch_information>
</kernel>`

// TestMoveSemanticsSelection checks §3.1's abstract moves: 16 bytes, both
// precisions, both alignments = movaps, movups, movapd, movupd.
func TestMoveSemanticsSelection(t *testing.T) {
	progs, out := runPipeline(t, moveSemanticsXML)
	if len(out) != 4 {
		t.Fatalf("got %d variants, want 4", len(out))
	}
	got := map[string]bool{}
	for _, p := range progs {
		asmText := mustAsm(t, p)
		for _, op := range []string{"movaps", "movups", "movapd", "movupd"} {
			if strings.Contains(asmText, op+" ") {
				got[op] = true
			}
		}
	}
	if len(got) != 4 {
		t.Errorf("instruction selection produced %v, want all four variants", got)
	}
}

const strideXML = `
<kernel name="strided">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm0</phyName></register>
  </instruction>
  <unrolling><min>1</min><max>2</max></unrolling>
  <induction>
    <register><name>r1</name></register>
    <stride><value>4</value><value>16</value><value>64</value></stride>
    <offset>4</offset>
  </induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L2</label><test>jge</test></branch_information>
</kernel>`

func TestStrideSelection(t *testing.T) {
	_, out := runPipeline(t, strideXML)
	// 3 strides x 2 unrolls.
	if len(out) != 6 {
		t.Fatalf("got %d variants, want 6", len(out))
	}
	strides := map[string]int{}
	for _, k := range out {
		strides[k.Tags["stride0"]]++
	}
	for _, s := range []string{"4", "16", "64"} {
		if strides[s] != 2 {
			t.Errorf("stride %s: %d variants, want 2", s, strides[s])
		}
	}
}

func TestImmediateSelection(t *testing.T) {
	src := `
<kernel name="imms">
  <instruction>
    <operation>add</operation>
    <immediate><value>1</value><value>2</value></immediate>
    <register><name>r2</name></register>
  </instruction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L3</label><test>jge</test></branch_information>
</kernel>`
	_, out := runPipeline(t, src)
	if len(out) != 2 {
		t.Fatalf("got %d variants, want 2", len(out))
	}
}

func TestRepetitionExpansion(t *testing.T) {
	src := `
<kernel name="reps">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
    <repetition><min>1</min><max>3</max></repetition>
  </instruction>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L4</label><test>jge</test></branch_information>
</kernel>`
	_, out := runPipeline(t, src)
	if len(out) != 3 {
		t.Fatalf("got %d variants, want 3 (repetition 1..3)", len(out))
	}
	sizes := map[int]bool{}
	for _, k := range out {
		loads := 0
		for _, in := range k.Body {
			if in.Op == "movss" {
				loads++
			}
		}
		sizes[loads] = true
	}
	for c := 1; c <= 3; c++ {
		if !sizes[c] {
			t.Errorf("missing repetition count %d (got %v)", c, sizes)
		}
	}
}

func TestRandomSelectionDeterminism(t *testing.T) {
	src := `
<kernel name="rnd">
  <random_selection><count>5</count><seed>42</seed></random_selection>
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm0</phyName></register>
  </instruction>
  <instruction>
    <operation>movsd</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm1</phyName></register>
  </instruction>
  <induction><register><name>r1</name></register><increment>8</increment><offset>8</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L5</label><test>jge</test></branch_information>
</kernel>`
	progs1, out1 := runPipeline(t, src)
	progs2, out2 := runPipeline(t, src)
	if len(out1) == 0 || len(out1) != len(out2) {
		t.Fatalf("variant counts differ: %d vs %d", len(out1), len(out2))
	}
	for i := range progs1 {
		if mustAsm(t, progs1[i]) != mustAsm(t, progs2[i]) {
			t.Errorf("random selection is not deterministic at program %d", i)
		}
	}
}

func TestMaxVariantsCap(t *testing.T) {
	capped := strings.Replace(fig6XML, `<kernel name="loadstore">`,
		`<kernel name="loadstore"><max_variants>100</max_variants>`, 1)
	_, out := runPipeline(t, capped)
	if len(out) > 100 {
		t.Errorf("cap violated: %d variants", len(out))
	}
}

func TestRegisterAllocationConvention(t *testing.T) {
	_, out := runPipeline(t, fig6XML)
	k := out[0]
	var counter, base *ir.Register
	for i := range k.Inductions {
		if k.Inductions[i].Last {
			counter = k.Inductions[i].Reg
		}
	}
	for _, in := range k.Body {
		for _, o := range in.Operands {
			if o.Kind == ir.MemOperand {
				base = o.Reg
			}
		}
	}
	if counter == nil || counter.Phys != isa.RDI {
		t.Errorf("loop counter register = %v, want %%rdi", counter)
	}
	if base == nil || base.Phys != isa.RSI {
		t.Errorf("first array base register = %v, want %%rsi", base)
	}
}

func TestLinkedInductionScaling(t *testing.T) {
	_, out := runPipeline(t, fig6XML)
	for _, k := range out {
		for _, ind := range k.Inductions {
			switch {
			case ind.Last: // linked to r1: -1 * u * (16/4)
				want := int64(-1) * int64(k.Unroll) * 4
				if ind.Increment != want {
					t.Errorf("u=%d: counter increment %d, want %d", k.Unroll, ind.Increment, want)
				}
			case ind.NotAffectedUnroll:
				if ind.Increment != 1 {
					t.Errorf("u=%d: iteration counter increment %d, want 1", k.Unroll, ind.Increment)
				}
			default: // r1: 16 * u
				want := int64(16) * int64(k.Unroll)
				if ind.Increment != want {
					t.Errorf("u=%d: data increment %d, want %d", k.Unroll, ind.Increment, want)
				}
			}
		}
	}
}

func TestManagerHas19Passes(t *testing.T) {
	m := NewManager()
	// The paper's nineteen passes (§3.2) plus the static verifier.
	if got := len(m.Passes()); got != 20 {
		t.Fatalf("default pipeline has %d passes, want 20 (§3.2 + verify-variants)", got)
	}
	// Paper-named passes must all be present.
	for _, name := range []string{
		"validate", "repeat-instructions", "random-select",
		"select-instructions", "select-strides", "select-immediates",
		"swap-before-unroll", "unroll", "swap-after-unroll",
		"rotate-registers", "allocate-registers", "link-inductions",
		"insert-inductions", "schedule", "insert-branch",
		"prologue-epilogue", "align-code", "verify", "emit",
		"verify-variants",
	} {
		if m.Lookup(name) == nil {
			t.Errorf("missing pass %q", name)
		}
	}
}

func TestManagerMutations(t *testing.T) {
	m := NewManager()
	custom := &Pass{Name: "custom", Run: func(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) { return ks, nil }}
	if err := m.InsertAfter("unroll", custom); err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	for i, n := range names {
		if n == "unroll" && names[i+1] != "custom" {
			t.Errorf("custom not after unroll: %v", names)
		}
	}
	if err := m.Remove("custom"); err != nil {
		t.Fatal(err)
	}
	if m.Lookup("custom") != nil {
		t.Error("custom still present after Remove")
	}
	if err := m.Remove("custom"); err == nil {
		t.Error("removing a missing pass must fail")
	}
	repl := &Pass{Name: "unroll2", Run: custom.Run}
	if err := m.Replace("unroll", repl); err != nil {
		t.Fatal(err)
	}
	if m.Lookup("unroll") != nil || m.Lookup("unroll2") == nil {
		t.Error("Replace did not swap the pass")
	}
	if err := m.InsertBefore("nonexistent", custom); err == nil {
		t.Error("InsertBefore missing pass must fail")
	}
	if err := m.Append(&Pass{}); err == nil {
		t.Error("Append of invalid pass must fail")
	}
}

// TestGateDisablesPass disables the unroll-dependent passes via gates and
// checks the pipeline degenerates gracefully (unroll off -> single variant
// per swap pattern).
func TestGateDisablesPass(t *testing.T) {
	ks, err := xmlspec.ParseString(fig6XML)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if err := m.SetGate("swap-after-unroll", NeverGate); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{EmitAssembly: true}
	out, err := m.Run(ctx, ks)
	if err != nil {
		t.Fatal(err)
	}
	// Without the swap fan-out: exactly 8 variants (one per unroll).
	if len(out) != 8 {
		t.Errorf("got %d variants with swap gated off, want 8", len(out))
	}
}

func TestSchedulePassOffByDefault(t *testing.T) {
	m := NewManager()
	p := m.Lookup("schedule")
	if p == nil {
		t.Fatal("schedule pass missing")
	}
	if p.Gate(&Context{}) {
		t.Error("schedule gate must default to off")
	}
}

func TestVerifyCatchesAbstractInstruction(t *testing.T) {
	k := &ir.Kernel{
		BaseName: "bad", Name: "bad", Unroll: 1,
		Body:       []ir.Instruction{{Move: &ir.MoveSemantics{Bytes: 16}, Operands: []ir.Operand{{Kind: ir.ImmOperand, Imm: 1}}}},
		Inductions: []ir.Induction{{Reg: &ir.Register{Phys: isa.RDI}, Increment: -1, Last: true}},
		Branch:     ir.Branch{Label: ".L", Test: "jge"},
	}
	if _, err := passVerify(&Context{}, []*ir.Kernel{k}); err == nil {
		t.Error("verify must reject abstract instructions")
	}
}

// TestInsertBranchPlainLabel: insert-branch turns any spec label into a
// plain assembler symbol, keeps the conventional ones (".L0", ".L6")
// unchanged, and a spec with an odd label generates programs whose text
// parses back to the same label.
func TestInsertBranchPlainLabel(t *testing.T) {
	for in, want := range map[string]string{
		"":          ".L0",
		".":         ".L0",
		".L0":       ".L0",
		".L6":       ".L6",
		"L6":        ".L6",
		".L 0":      ".L_0",
		"L#1,x:y":   ".L_1_x_y",
		"é-loop(1)": ".__loop_1_",
		"..a_b.9":   "..a_b.9",
		"\tL\xff$%": "._L___",
	} {
		if got := plainLabel(in); got != want {
			t.Errorf("plainLabel(%q) = %q, want %q", in, got, want)
		}
	}
	progs, out := runPipeline(t, strings.Replace(fig6XML, "<label>.L6</label>", "<label>.L 6</label>", 1))
	if len(out) != 510 {
		t.Fatalf("odd label: %d variants, want 510", len(out))
	}
	parsed, err := asm.ParseOne(mustAsm(t, progs[0]), progs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed.LabelIndex(".L_6"); !ok || len(parsed.Labels) != 1 {
		t.Errorf("labels %v, want only .L_6", parsed.Labels)
	}
}
