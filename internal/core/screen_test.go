package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
)

// TestScreenTopKMatchesGolden pins the screen's kept lists over every
// shipped spec × {nehalem-dual/8, sandybridge/8, nehalem-dual} × an array
// size per hierarchy level × k ∈ {4, 8, 32}. The fixture was recorded from
// the steady-state analytic screen the dataflow screen replaced; it must
// not be regenerated from the code under test.
func TestScreenTopKMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/screen_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []struct {
		Spec    string   `json:"spec"`
		Machine string   `json:"machine"`
		Size    int64    `json:"size"`
		K       int      `json:"k"`
		Kept    []string `json:"kept"`
	}
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatal(err)
	}
	families := map[string][]GeneratedProgram{}
	for _, c := range cells {
		progs, ok := families[c.Spec]
		if !ok {
			progs, err = GenerateFile(context.Background(), filepath.Join("../../specs", c.Spec), GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			families[c.Spec] = progs
		}
		kept, err := ScreenTopK(context.Background(), progs, c.Machine, c.Size, 4, c.K)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(kept))
		for i := range kept {
			names[i] = kept[i].Name
		}
		if got, want := strings.Join(names, " "), strings.Join(c.Kept, " "); got != want {
			t.Errorf("%s on %s, %d bytes, k=%d:\n got %s\nwant %s", c.Spec, c.Machine, c.Size, c.K, got, want)
		}
	}
}

// TestScreenTopKKeepsContenders: screening the Fig. 6 family keeps variants
// whose measured per-element cost is close to the true optimum — the screen
// discards the clearly inferior shapes, not the winners.
func TestScreenTopKKeepsContenders(t *testing.T) {
	progs, err := GenerateFile(context.Background(), "../../specs/loadstore_movaps.xml", GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const machineName = "nehalem-dual/8"
	const size = 4 << 10
	kept, err := ScreenTopK(context.Background(), progs, machineName, size, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 32 {
		t.Fatalf("screened to %d, want 32", len(kept))
	}
	opts := launcher.DefaultOptions()
	opts.MachineName = machineName
	opts.ArrayBytes = size
	opts.InnerReps = 1
	opts.OuterReps = 2
	perElement := func(p *GeneratedProgram) float64 {
		t.Helper()
		kernel, err := p.Lowered()
		if err != nil {
			t.Fatal(err)
		}
		m, err := Launch(context.Background(), kernel, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m.ValuePerElement
	}
	bestScreened := 0.0
	for i := range kept {
		if v := perElement(&kept[i]); v > 0 && (bestScreened == 0 || v < bestScreened) {
			bestScreened = v
		}
	}
	// Measure the known-optimal shape (u8 balanced) directly for the
	// ground truth.
	var truth float64
	for i := range progs {
		if progs[i].Name == "loadstore_u8_LSLSLSLS" {
			truth = perElement(&progs[i])
		}
	}
	if truth == 0 {
		t.Fatal("ground-truth variant not found")
	}
	if bestScreened > truth*1.1 {
		t.Errorf("screening lost the contenders: best screened %.4f vs ground truth %.4f",
			bestScreened, truth)
	}
	// Degenerate parameters.
	if all, _ := ScreenTopK(context.Background(), progs, machineName, size, 4, 0); len(all) != len(progs) {
		t.Error("k=0 must keep everything")
	}
	if _, err := ScreenTopK(context.Background(), progs, "z80", size, 4, 8); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestScreenTopKRanksByBound: in cache the screen orders variants by the
// dataflow lower bound per element, so among L1-resident streaming variants
// the densest unrolls (fewest loop-overhead cycles per element) must
// survive the cut.
func TestScreenTopKRanksByBound(t *testing.T) {
	progs, err := GenerateFile(context.Background(), "../../specs/loadstore_movaps.xml", GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := ScreenTopK(context.Background(), progs, "nehalem-dual/8", 2<<10, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	// No u1 shape (one 16-byte access per loop-overhead set) may beat the
	// denser unrolls the screen kept.
	for _, p := range kept {
		if strings.HasPrefix(p.Name, "loadstore_u1_") {
			t.Errorf("screen kept low-density variant %s over denser unrolls", p.Name)
		}
	}
}

// TestScreenTopKUnboundableRanksLast: a variant the dataflow analysis
// cannot bound is ranked behind every boundable one instead of failing the
// screen.
func TestScreenTopKUnboundableRanksLast(t *testing.T) {
	progs, err := GenerateString(context.Background(), smallSpec, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty := GeneratedProgram{Name: "empty", Parsed: &isa.Program{Name: "empty"}}
	all := append([]GeneratedProgram{empty}, progs...)
	kept, err := ScreenTopK(context.Background(), all, "nehalem-dual/8", 2<<10, 4, len(progs))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range kept {
		if p.Name == "empty" {
			t.Errorf("unboundable variant survived the screen: %v", kept)
		}
	}
}

// loadKernel is a u-way unrolled streaming movaps load loop.
func loadKernel(t *testing.T, u int) *isa.Program {
	t.Helper()
	var b strings.Builder
	b.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&b, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
	}
	fmt.Fprintf(&b, "add $%d, %%rsi\nsub $%d, %%rdi\njge .L0\nret\n", 16*u, 4*u)
	p, err := asm.ParseOne(b.String(), "k")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMemoryBoundDominates: with a low sustainable load rate (RAM-like),
// the memory term takes over from the dataflow bound.
func TestMemoryBoundDominates(t *testing.T) {
	cycles, elems, err := screenCycles(loadKernel(t, 8), isa.Nehalem(), 0.2, 0.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 40 || elems != 8 {
		t.Errorf("RAM estimate = %v cycles over %v elements, want 40 over 8", cycles, elems)
	}
}

// TestForLevelOrdering: the per-level throughputs slow the estimate down
// monotonically down the hierarchy and roughly predict the event-driven
// RAM behaviour.
func TestForLevelOrdering(t *testing.T) {
	m, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		t.Fatal(err)
	}
	prog := loadKernel(t, 8)
	var prev float64
	for _, level := range []string{"L1", "L2", "L3", "RAM"} {
		loads, stores := levelThroughput(m, level, 16)
		cycles, _, err := screenCycles(prog, m.Arch, loads, stores, 16)
		if err != nil {
			t.Fatal(err)
		}
		if cycles < prev {
			t.Errorf("%s estimate %.2f below the previous level's %.2f", level, cycles, prev)
		}
		prev = cycles
	}
	// RAM estimate in the right decade: the measured full-stack value is
	// ~5.5 cycles/instruction x 8 = ~44 cycles/iteration.
	if prev < 15 || prev > 90 {
		t.Errorf("RAM estimate %.1f cycles/iter outside the plausible band", prev)
	}
}
