package passes

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/ir"
	"microtools/internal/xmlspec"
)

// queueExpandAll is the FIFO loop expandAll replaced: it prepends each
// expansion's children by copying the whole queue. It is the reference for
// expandAll's depth-first output order.
func queueExpandAll(ks []*ir.Kernel, f func(*ir.Kernel) ([]*ir.Kernel, error)) ([]*ir.Kernel, error) {
	var out []*ir.Kernel
	queue := append([]*ir.Kernel(nil), ks...)
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		vs, err := f(k)
		if err != nil {
			return nil, err
		}
		if vs == nil {
			out = append(out, k)
			continue
		}
		queue = append(append([]*ir.Kernel(nil), vs...), queue...)
	}
	return out, nil
}

// fanXML has a fan-out point in every expanding pass: a repetition range,
// two inductions with stride choices, an immediate with choices and a
// per-copy swap.
const fanXML = `
<kernel name="fan">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
    <swap_after_unroll/>
  </instruction>
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r2</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
    <repetition><min>1</min><max>2</max></repetition>
    <swap_after_unroll/>
  </instruction>
  <instruction>
    <operation>add</operation>
    <immediate><value>1</value><value>2</value><value>3</value></immediate>
    <register><name>r3</name></register>
  </instruction>
  <unrolling><min>1</min><max>3</max></unrolling>
  <induction><register><name>r1</name></register><stride><value>4</value><value>16</value></stride><offset>4</offset></induction>
  <induction><register><name>r2</name></register><stride><value>8</value><value>32</value><value>64</value></stride><offset>4</offset></induction>
  <induction><register><name>r0</name></register><increment>-1</increment><last_induction/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

// fingerprint identifies a kernel variant by its tags and body.
func fingerprint(k *ir.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "u%d %s:", k.Unroll, k.TagString())
	for _, in := range k.Body {
		b.WriteString(" " + in.String())
	}
	return b.String()
}

func cloneAll(ks []*ir.Kernel) []*ir.Kernel {
	out := make([]*ir.Kernel, len(ks))
	for i, k := range ks {
		out[i] = k.Clone()
	}
	return out
}

// TestExpandAllMatchesQueueOrder runs the default pipeline up to and
// including swap-after-unroll and, before each fan-out pass, expands clones
// of its input through expandAll and through the old queue loop: the two
// must yield the same variants in the same order.
func TestExpandAllMatchesQueueOrder(t *testing.T) {
	children := map[string]func(*ir.Kernel) ([]*ir.Kernel, error){
		"repeat-instructions": repeatChildren,
		"select-instructions": moveChildren,
		"select-strides":      strideChildren,
		"select-immediates":   immediateChildren,
		"swap-before-unroll":  swapBeforeChildren,
		"swap-after-unroll":   swapAfterChildren,
	}
	for name, src := range map[string]string{"fig6": fig6XML, "fan": fanXML} {
		ks, err := xmlspec.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{EmitAssembly: true}
		for _, p := range NewManager().Passes() {
			if f, ok := children[p.Name]; ok {
				got, err := expandAll(cloneAll(ks), f)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, p.Name, err)
				}
				want, err := queueExpandAll(cloneAll(ks), f)
				if err != nil {
					t.Fatalf("%s/%s: reference: %v", name, p.Name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s: %d variants, reference %d", name, p.Name, len(got), len(want))
				}
				for i := range got {
					if g, w := fingerprint(got[i]), fingerprint(want[i]); g != w {
						t.Fatalf("%s/%s: variant %d is %q, reference %q", name, p.Name, i, g, w)
					}
				}
			}
			if ks, err = p.Run(ctx, ks); err != nil {
				t.Fatalf("%s/%s: %v", name, p.Name, err)
			}
			if p.Name == "swap-after-unroll" {
				break
			}
		}
		// fig6: sum(2^u, u=1..8). fan: 2 x 3 strides x 3 immediates, times
		// sum(2^(2u) + 2^(3u), u=1..3) swaps: two flagged instructions per
		// copy with one repetition, three with two.
		want := map[string]int{"fig6": 510, "fan": 2 * 3 * 3 * ((4 + 16 + 64) + (8 + 64 + 512))}[name]
		if len(ks) != want {
			t.Errorf("%s: %d variants after swap-after-unroll, want %d", name, len(ks), want)
		}
	}
}

// TestGeneratedKernelsOwnTheirState: for every shipped spec, no two
// generated kernels share a register, a Body element or an Operands
// element. swap-after-unroll reuses its input as the unswapped leaf, and
// the passes after it mutate kernels in place, so any sharing would leak
// one variant's edits into another.
func TestGeneratedKernelsOwnTheirState(t *testing.T) {
	paths, err := filepath.Glob("../../specs/*.xml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped specs found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, out := runPipeline(t, string(data))
		regs := map[*ir.Register]string{}
		instrs := map[*ir.Instruction]string{}
		operands := map[*ir.Operand]string{}
		for _, k := range out {
			for _, r := range k.Registers() {
				if other, ok := regs[r]; ok {
					t.Fatalf("%s: %s and %s share register %s", path, other, k.Name, r)
				}
				regs[r] = k.Name
			}
			for i := range k.Body {
				if other, ok := instrs[&k.Body[i]]; ok {
					t.Fatalf("%s: %s and %s share a Body array", path, other, k.Name)
				}
				instrs[&k.Body[i]] = k.Name
				for j := range k.Body[i].Operands {
					o := &k.Body[i].Operands[j]
					if other, ok := operands[o]; ok {
						t.Fatalf("%s: %s and %s share an Operands array", path, other, k.Name)
					}
					operands[o] = k.Name
				}
			}
		}
	}
}
