package microtools_test

import (
	"context"
	"fmt"
	"log"

	"microtools"
)

// spec is a single streaming movaps load, unrolled 1..4, with the paper's
// Fig. 9 iteration-count protocol (the examples/quickstart description).
const spec = `
<kernel name="quickstart">
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

// Example is the library quick start: MicroCreator expands one XML
// description into its variants, and MicroLauncher measures each one on
// the simulated dual-socket Nehalem over an L1-resident array.
func Example() {
	ctx := context.Background()
	progs, err := microtools.GenerateString(ctx, spec, microtools.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	opts := microtools.DefaultLaunchOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 2 << 10
	for _, p := range progs {
		kernel, err := p.Lowered()
		if err != nil {
			log.Fatal(err)
		}
		m, err := microtools.Launch(ctx, kernel, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %.3f cycles/iteration\n", m.Kernel, m.Value)
	}
	// Output:
	// quickstart_u1_L: 1.477 cycles/iteration
	// quickstart_u2_LL: 2.031 cycles/iteration
	// quickstart_u3_LLL: 3.047 cycles/iteration
	// quickstart_u4_LLLL: 4.062 cycles/iteration
}
