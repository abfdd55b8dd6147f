// Quickstart: describe a kernel in MicroCreator's XML, generate its unroll
// variants, and launch each one on the simulated dual-socket Nehalem — the
// end-to-end MicroTools workflow in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"microtools"
)

// spec is a single streaming movaps load, unrolled 1..4, with the paper's
// Fig. 9 iteration-count protocol.
const spec = `
<kernel name="quickstart">
  <description>streaming movaps load, unrolled 1..4</description>
  <instruction>
    <operation>movaps</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
  </instruction>
  <unrolling><min>1</min><max>4</max></unrolling>
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
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

func main() {
	ctx := context.Background()
	// MicroCreator: one XML description -> four benchmark programs.
	progs, err := microtools.GenerateString(ctx, spec, microtools.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MicroCreator generated %d variants\n\n", len(progs))

	// MicroLauncher: run each variant over an L1-resident array.
	opts := microtools.DefaultLaunchOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 2 << 10 // half the scaled L1

	fmt.Printf("%-18s %-12s %s\n", "variant", "cycles/iter", "cycles/load")
	for _, p := range progs {
		// The generated program carries its decoded kernel; assembly text
		// is rendered only where it is actually displayed or counted.
		kernel, err := p.Lowered()
		if err != nil {
			log.Fatal(err)
		}
		m, err := microtools.Launch(ctx, kernel, opts)
		if err != nil {
			log.Fatal(err)
		}
		asmText, err := p.Assembly()
		if err != nil {
			log.Fatal(err)
		}
		u := float64(strings.Count(asmText, "\n    movaps"))
		fmt.Printf("%-18s %-12.3f %.3f\n", m.Kernel, m.Value, m.Value/u)
	}
	fmt.Println("\n(Each variant returns its iteration count in eax — the §4.4 protocol.)")
}
