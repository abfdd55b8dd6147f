// Stencil study: §3.5 notes that "users are modeling unrolled codes and
// stencil codes with the MicroCreator tool". This example describes a
// 1-D three-point stencil (out[i] = in[i-1] + in[i] + in[i+1]) in
// MicroCreator's XML — neighbor accesses as memory-operand offsets,
// correlated register pools per unroll copy — generates its unroll
// variants, and measures them across the memory hierarchy.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"microtools"
)

// spec: three loads per point (left neighbor, right neighbor, center — the
// unaligned movups neighbors are exactly why stencils are
// alignment-sensitive), two packed adds, one store. Register pools of width
// two rotate per unroll copy, keeping each copy's dataflow private.
const spec = `
<kernel name="stencil3">
  <description>1-D 3-point stencil: out[i] = in[i-1]+in[i]+in[i+1]</description>
  <instruction>
    <operation>movups</operation>
    <memory><register><name>r1</name></register><offset>-4</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>2</max></register>
  </instruction>
  <instruction>
    <operation>movups</operation>
    <memory><register><name>r1</name></register><offset>4</offset></memory>
    <register><phyName>%xmm</phyName><min>2</min><max>4</max></register>
  </instruction>
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>4</min><max>6</max></register>
  </instruction>
  <instruction>
    <operation>addps</operation>
    <register><phyName>%xmm</phyName><min>0</min><max>2</max></register>
    <register><phyName>%xmm</phyName><min>4</min><max>6</max></register>
  </instruction>
  <instruction>
    <operation>addps</operation>
    <register><phyName>%xmm</phyName><min>2</min><max>4</max></register>
    <register><phyName>%xmm</phyName><min>4</min><max>6</max></register>
  </instruction>
  <instruction>
    <operation>movups</operation>
    <register><phyName>%xmm</phyName><min>4</min><max>6</max></register>
    <memory><register><name>r2</name></register><offset>0</offset></memory>
  </instruction>
  <unrolling><min>1</min><max>2</max></unrolling>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
    <offset>16</offset>
  </induction>
  <induction>
    <register><name>r2</name></register>
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
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

func main() {
	ctx := context.Background()
	progs, err := microtools.GenerateString(ctx, spec, microtools.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MicroCreator generated %d stencil variants\n\n", len(progs))
	lastAsm, err := progs[len(progs)-1].Assembly()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(lastAsm)

	desc, err := microtools.MachineByName("nehalem-dual/8")
	if err != nil {
		log.Fatal(err)
	}
	levels := []struct {
		name  string
		bytes int64
	}{
		{"L1", desc.Hierarchy.L1.Size / 2},
		{"L2", desc.Hierarchy.L1.Size * 2},
		{"L3", desc.Hierarchy.L2.Size * 2},
		{"RAM", desc.Hierarchy.L3.Size * 2},
	}

	fmt.Printf("%-8s", "level")
	for _, p := range progs {
		fmt.Printf("%22s", p.Name)
	}
	fmt.Println(" (cycles per stencil point)")
	for _, level := range levels {
		fmt.Printf("%-8s", level.name)
		for _, p := range progs {
			kernel, err := p.Lowered()
			if err != nil {
				log.Fatal(err)
			}
			opts := microtools.DefaultLaunchOptions()
			opts.MachineName = "nehalem-dual/8"
			opts.ArrayBytes = level.bytes
			opts.MaxInstructions = 100_000
			opts.OuterReps, opts.InnerReps = 2, 2
			m, err := microtools.Launch(ctx, kernel, opts)
			if err != nil {
				log.Fatal(err)
			}
			// One iteration computes 4*u stencil points (packed
			// singles); derive u from the variant's add count so the
			// normalization also holds for truncated RAM runs.
			asmText, err := p.Assembly()
			if err != nil {
				log.Fatal(err)
			}
			u := float64(strings.Count(asmText, "\n    addps")) / 2
			fmt.Printf("%22.3f", m.Value/(4*u))
		}
		fmt.Println()
	}
	fmt.Fprintln(os.Stderr, "\nNote: the unaligned movups neighbor loads split cache lines every"+
		" fourth point — part of the §5.2.2 alignment story.")
}
