package passes

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/cpu"
	"microtools/internal/isa"
	"microtools/internal/xmlspec"
)

// nullMem is a constant-latency memory for property executions.
type nullMem struct{}

func (nullMem) Load(_ int, _ uint64, _ int, issue int64) int64  { return issue + 4 }
func (nullMem) Store(_ int, _ uint64, _ int, issue int64) int64 { return issue + 1 }

// randomSpec builds a random but valid kernel description: 1-3 move
// instructions over 1-2 arrays with optional swaps/move-semantics/
// repetition, a random unroll range, optional stride choices, and the
// standard counter protocol.
func randomSpec(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(`<kernel name="prop">`)
	nArrays := 1 + rng.Intn(2)
	nInsts := 1 + rng.Intn(3)
	ops := []string{"movss", "movsd", "movaps", "movapd", "movups"}
	widths := map[string]int{"movss": 4, "movsd": 8, "movaps": 16, "movapd": 16, "movups": 16}
	maxWidth := 4
	used := map[int]bool{}
	for i := 0; i < nInsts; i++ {
		// The first instruction always uses r1, which the loop counter is
		// linked to; later ones pick any array.
		arr := 1
		if i > 0 {
			arr = 1 + rng.Intn(nArrays)
		}
		used[arr] = true
		b.WriteString("<instruction>")
		var w int
		if rng.Intn(4) == 0 {
			// Abstract move semantics.
			bytes := []int{4, 8, 16}[rng.Intn(3)]
			w = bytes
			fmt.Fprintf(&b, "<move_semantics><bytes>%d</bytes>", bytes)
			if bytes == 16 {
				b.WriteString("<aligned>both</aligned>")
			}
			b.WriteString("</move_semantics>")
		} else {
			op := ops[rng.Intn(len(ops))]
			w = widths[op]
			fmt.Fprintf(&b, "<operation>%s</operation>", op)
		}
		if w > maxWidth {
			maxWidth = w
		}
		// Load shape: memory then register (a later swap may flip it).
		fmt.Fprintf(&b, `<memory><register><name>r%d</name></register><offset>0</offset></memory>`, arr)
		fmt.Fprintf(&b, `<register><phyName>%%xmm</phyName><min>0</min><max>8</max></register>`)
		if rng.Intn(3) == 0 {
			b.WriteString("<swap_before_unroll/>")
		}
		if rng.Intn(3) == 0 {
			b.WriteString("<swap_after_unroll/>")
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "<repetition><min>1</min><max>%d</max></repetition>", 1+rng.Intn(2))
		}
		b.WriteString("</instruction>")
	}
	uMax := 1 + rng.Intn(4)
	fmt.Fprintf(&b, "<unrolling><min>1</min><max>%d</max></unrolling>", uMax)
	for a := 1; a <= nArrays; a++ {
		if !used[a] {
			continue
		}
		// All arrays stride by the widest instruction so addresses stay
		// within the footprint regardless of which instruction uses them.
		fmt.Fprintf(&b, `<induction><register><name>r%d</name></register><increment>%d</increment><offset>%d</offset></induction>`,
			a, maxWidth, maxWidth)
	}
	fmt.Fprintf(&b, `<induction><register><name>r0</name></register><increment>-1</increment><linked><register><name>r1</name></register></linked><last_induction/></induction>`)
	b.WriteString(`<induction><register><phyName>%eax</phyName></register><increment>1</increment><not_affected_unroll/></induction>`)
	b.WriteString(`<branch_information><label>.Lp</label><test>jge</test></branch_information>`)
	b.WriteString(`</kernel>`)
	return b.String()
}

// TestPropertyPipelineAlwaysExecutable: for many random specs, every
// generated variant re-parses, validates, executes to completion under the
// core model, and honours the %eax iteration protocol.
func TestPropertyPipelineAlwaysExecutable(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	arch := isa.Nehalem()
	for trial := 0; trial < 40; trial++ {
		spec := randomSpec(rng)
		ks, err := xmlspec.ParseString(spec)
		if err != nil {
			t.Fatalf("trial %d: spec invalid: %v\n%s", trial, err, spec)
		}
		var progs []codegen.Program
		ctx := &Context{EmitAssembly: true, Sink: func(p codegen.Program) error {
			progs = append(progs, p)
			return nil
		}}
		if _, err := NewManager().Run(ctx, ks); err != nil {
			t.Fatalf("trial %d: pipeline failed: %v\n%s", trial, err, spec)
		}
		if len(progs) == 0 {
			t.Fatalf("trial %d: no programs", trial)
		}
		// Execute a sample of variants (all if few).
		step := 1
		if len(progs) > 8 {
			step = len(progs) / 8
		}
		for i := 0; i < len(progs); i += step {
			prog := progs[i]
			asmText := mustAsm(t, prog)
			p, err := asm.ParseOne(asmText, prog.Name)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, prog.Name, err, asmText)
			}
			var rf isa.RegFile
			rf.Set(isa.RDI, 16*64-1)
			for r := 1; r <= 5; r++ {
				rf.Set(isa.ArgRegs[r], uint64(0x100000*r))
			}
			core := cpu.NewCore(0, arch, nullMem{})
			if err := core.Reset(p, &rf, 0, 200_000); err != nil {
				t.Fatalf("trial %d %s: %v", trial, prog.Name, err)
			}
			done, err := core.Step(math.MaxInt64)
			if err != nil {
				t.Fatalf("trial %d %s: exec: %v\n%s", trial, prog.Name, err, asmText)
			}
			if !done {
				t.Fatalf("trial %d %s: did not finish", trial, prog.Name)
			}
			res := core.Result()
			if res.Truncated {
				t.Fatalf("trial %d %s: runaway kernel (%d insts)", trial, prog.Name, res.Insts)
			}
			if core.Reg(isa.RAX) == 0 {
				t.Errorf("trial %d %s: %%eax protocol broken (0 iterations)", trial, prog.Name)
			}
		}
	}
}

// TestPropertySwapInvolution: swapping a load twice restores it.
func TestPropertySwapInvolution(t *testing.T) {
	spec := `
<kernel name="s">
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm0</phyName></register>
  </instruction>
  <induction><register><name>r1</name></register><increment>16</increment><offset>16</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`
	ks, err := xmlspec.ParseString(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := &ks[0].Body[0]
	before := in.String()
	if !swapInstr(in) {
		t.Fatal("swap failed")
	}
	if in.String() == before {
		t.Fatal("swap did not change the instruction")
	}
	if !swapInstr(in) {
		t.Fatal("second swap failed")
	}
	if in.String() != before {
		t.Errorf("double swap is not identity: %q vs %q", in.String(), before)
	}
}

// TestPropertyVariantCountFormula: for a single swap-after-unroll load and
// unroll 1..U, the pipeline produces sum(2^u) variants, generalizing the
// paper's 510.
func TestPropertyVariantCountFormula(t *testing.T) {
	for _, uMax := range []int{1, 2, 3, 4, 5, 6} {
		spec := fmt.Sprintf(`
<kernel name="f">
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%%xmm</phyName><min>0</min><max>8</max></register>
    <swap_after_unroll/>
  </instruction>
  <unrolling><min>1</min><max>%d</max></unrolling>
  <induction><register><name>r1</name></register><increment>16</increment><offset>16</offset></induction>
  <induction><register><name>r0</name></register><increment>-4</increment><last_induction/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`, uMax)
		ks, err := xmlspec.ParseString(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{EmitAssembly: true}
		out, err := NewManager().Run(ctx, ks)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for u := 1; u <= uMax; u++ {
			want += 1 << u
		}
		if len(out) != want {
			t.Errorf("uMax=%d: %d variants, want %d", uMax, len(out), want)
		}
	}
}
