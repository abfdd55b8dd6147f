package experiments

import (
	"context"
	"fmt"
	"strings"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/ir"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// parseVerified decodes a handwritten experiment kernel and fails fast on
// verifier errors, so a broken fixture aborts the campaign before any
// launches instead of skewing a whole figure.
func parseVerified(src, name string) (*isa.Program, error) {
	p, err := asm.ParseOne(src, name)
	if err != nil {
		return nil, err
	}
	if ds := verify.Program(p, name, verify.Options{}); ds.HasErrors() {
		return nil, fmt.Errorf("experiments: kernel %s failed verification: %w", name, ds.Err())
	}
	return p, nil
}

// opWidth returns the data width of the studied SSE moves.
func opWidth(op string) int64 {
	switch op {
	case "movss":
		return 4
	case "movsd":
		return 8
	default:
		return 16
	}
}

// loadStoreXML instantiates the paper's Fig. 6 (Load|Store)+ template for an
// instruction, producing the §5.1 variant family (510 programs at unroll
// 1..8 via swap_after_unroll) through the real MicroCreator pipeline.
func loadStoreXML(op string, maxUnroll int) string {
	w := opWidth(op)
	return fmt.Sprintf(`
<kernel name="%s_ls">
  <instruction>
    <operation>%s</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%%xmm</phyName><min>0</min><max>8</max></register>
    <swap_after_unroll/>
  </instruction>
  <unrolling><min>1</min><max>%d</max></unrolling>
  <induction>
    <register><name>r1</name></register>
    <increment>%d</increment>
    <offset>%d</offset>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction>
    <register><phyName>%%eax</phyName></register>
    <increment>1</increment>
    <not_affected_unroll/>
  </induction>
  <branch_information><label>.L6</label><test>jge</test></branch_information>
</kernel>`, op, op, maxUnroll, w, w)
}

// variantSet holds a generated family indexed by (unroll, pattern).
type variantSet struct {
	op       string
	programs map[string]*isa.Program // key: "u<u>_<pattern>"
}

// generateLoadStore runs the MicroCreator pipeline on the Fig. 6 template.
func generateLoadStore(ctx context.Context, op string, maxUnroll int) (*variantSet, error) {
	progs, err := core.GenerateString(ctx, loadStoreXML(op, maxUnroll), core.GenerateOptions{})
	if err != nil {
		return nil, err
	}
	vs := &variantSet{op: op, programs: map[string]*isa.Program{}}
	for _, prog := range progs {
		p, err := prog.Lowered()
		if err != nil {
			return nil, fmt.Errorf("experiments: lowering %s: %w", prog.Name, err)
		}
		key := fmt.Sprintf("u%d_%s", prog.Kernel.Unroll, pattern(prog))
		vs.programs[key] = p
	}
	return vs, nil
}

// pattern renders the kernel's load/store signature ("LSL"...), mirroring
// the naming pass.
func pattern(prog codegen.Program) string {
	var b strings.Builder
	for _, in := range prog.Kernel.Body {
		if len(in.Operands) != 2 {
			continue
		}
		a, c := in.Operands[0].Kind, in.Operands[1].Kind
		switch {
		case a == ir.MemOperand && c == ir.RegOperand:
			b.WriteByte('L')
		case a == ir.RegOperand && c == ir.MemOperand:
			b.WriteByte('S')
		}
	}
	return b.String()
}

// get returns the variant for an unroll factor and pattern.
func (vs *variantSet) get(u int, pat string) (*isa.Program, error) {
	p, ok := vs.programs[fmt.Sprintf("u%d_%s", u, pat)]
	if !ok {
		return nil, fmt.Errorf("experiments: no %s variant u=%d pattern=%q", vs.op, u, pat)
	}
	return p, nil
}

// patterns returns the representative load/store patterns the figures use
// per unroll group: all loads, all stores, and alternating — the paper takes
// the minimum over the whole group ("For each unroll group, the minimum
// value was taken though the variance was minimal", §5.1), and the minimum
// is always among these.
func patterns(u int) []string {
	all := func(c byte) string { return strings.Repeat(string(c), u) }
	alt := make([]byte, u)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = 'L'
		} else {
			alt[i] = 'S'
		}
	}
	out := []string{all('L')}
	if u > 1 {
		out = append(out, all('S'), string(alt))
	} else {
		out = append(out, all('S'))
	}
	return out
}

// loadOnlyKernel builds a pure-load unrolled kernel with the §4.4 protocol
// (for the frequency and fork studies, Figs. 13-14).
func loadOnlyKernel(op string, u int) (*isa.Program, error) {
	w := opWidth(op)
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&b, "%s %d(%%rsi), %%xmm%d\n", op, w*int64(c), c%8)
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\n", w*int64(u))
	b.WriteString("add $1, %eax\n")
	fmt.Fprintf(&b, "sub $%d, %%rdi\n", (w/4)*int64(u))
	b.WriteString("jge .L0\nret\n")
	return parseVerified(b.String(), fmt.Sprintf("%s_load_u%d", op, u))
}

// fourArrayTraversal builds the §5.2.2 kernel: a single-strided movss
// traversal of four arrays (Figs. 15-16), reading two and writing two — the
// traversal shape whose performance depends on the relative array
// placements (store-to-load 4K aliasing across streams).
func fourArrayTraversal() (*isa.Program, error) {
	src := `
.L0:
movss (%rsi), %xmm0
movss (%rdx), %xmm1
movss %xmm0, (%rcx)
movss %xmm1, (%r8)
add $4, %rsi
add $4, %rdx
add $4, %rcx
add $4, %r8
add $1, %eax
sub $1, %rdi
jge .L0
ret`
	return parseVerified(src, "four_array_traversal")
}
