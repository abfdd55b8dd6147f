// Auto-tuning workflow: the paper's §7 vision of "a cohesive solution to
// application characterization around the two focal tools" — applications
// drive MicroCreator's generated code around a hotspot, MicroLauncher
// measures every variant, and data-mining picks the optimum.
//
// The hotspot here is a copy-transform loop (load, scale, store). The
// description leaves the move width abstract (move semantics), sweeps the
// unroll factor, and swaps operands — MicroCreator expands the search
// space, the launcher measures it on the target machine, and the analysis
// layer ranks it per element and reports the recommendation with its
// energy cost.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"microtools"
)

const hotspotSpec = `
<kernel name="hotspot">
  <description>copy-transform hotspot: load, mulps-by-constant, store</description>
  <instruction>
    <move_semantics><bytes>16</bytes><aligned>both</aligned><precision>single</precision></move_semantics>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>6</max></register>
  </instruction>
  <instruction>
    <operation>mulps</operation>
    <register><phyName>%xmm7</phyName></register>
    <register><phyName>%xmm</phyName><min>0</min><max>6</max></register>
  </instruction>
  <instruction>
    <operation>movaps</operation>
    <register><phyName>%xmm</phyName><min>0</min><max>6</max></register>
    <memory><register><name>r2</name></register><offset>0</offset></memory>
  </instruction>
  <unrolling><min>1</min><max>6</max></unrolling>
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
  <branch_information><label>.Lh</label><test>jge</test></branch_information>
</kernel>`

func main() {
	ctx := context.Background()
	const machineName = "nehalem-dual/8"

	// 1. MicroLauncher configuration: how each variant is measured.
	opts := microtools.DefaultLaunchOptions()
	opts.MachineName = machineName
	opts.ArrayBytes = 2 << 10 // the hotspot's working set: L1-resident
	// Page-offset the destination away from the source: the launcher's
	// alignment control avoids 4K store-load aliasing between the streams
	// (the §5.2.2 effect — the ranking below is what remains once data
	// placement is right).
	opts.Alignments = []int64{0, 2048}
	opts.OuterReps, opts.InnerReps = 2, 2
	opts.ReportEnergy = true

	// 2. Campaign: MicroCreator expands the hotspot's variant space and the
	// engine streams every variant straight into a measurement worker pool,
	// with per-variant fault isolation.
	res, err := microtools.RunCampaign(ctx, strings.NewReader(hotspotSpec),
		microtools.GenerateOptions{},
		microtools.CampaignOptions{Launch: opts})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search space: %d generated variants (move-width x unroll)\n", res.Emitted)
	ms := res.Measurements()

	// 3. Analysis: rank per element, report the recommendation.
	ranking := microtools.RankMeasurements(ms)
	fmt.Println()
	lines := strings.Split(strings.TrimSpace(ranking.Report()), "\n")
	for i, l := range lines {
		if i > 6 && i < len(lines)-1 {
			continue // elide the middle of the ranking
		}
		fmt.Println(l)
	}

	best, worst := ranking[0], ranking[len(ranking)-1]
	fmt.Printf("\nrecommendation for %s:\n", machineName)
	fmt.Printf("  use %s (%.4f cycles/element; the worst variant costs %.4f)\n",
		best.Kernel, best.ValuePerElement, worst.ValuePerElement)
	if best.Energy != nil && worst.Energy != nil {
		perElemBest := best.Energy.TotalJoules / float64(best.Iterations)
		perElemWorst := worst.Energy.TotalJoules / float64(worst.Iterations)
		fmt.Printf("  energy per iteration: %.3g J (worst variant: %.3g J)\n", perElemBest, perElemWorst)
	}
	// Data-driven findings: how much each decision axis matters.
	byTag := func(sub string) (float64, bool) {
		var v float64
		found := false
		for _, m := range ms {
			if strings.Contains(m.Kernel, sub) && strings.Contains(m.Kernel, bestUnrollOf(best.Kernel)) {
				v = m.ValuePerElement
				found = true
			}
		}
		return v, found
	}
	if aps, ok1 := byTag("i0movaps"); ok1 {
		if ups, ok2 := byTag("i0movups"); ok2 {
			fmt.Printf("  aligned vs unaligned move at the best unroll: %.4f vs %.4f cycles/element\n", aps, ups)
		}
	}
}

// bestUnrollOf extracts the "_uN_" marker from a variant name.
func bestUnrollOf(name string) string {
	for _, part := range strings.Split(name, "_") {
		if strings.HasPrefix(part, "u") && len(part) <= 3 {
			return "_" + part + "_"
		}
	}
	return ""
}
