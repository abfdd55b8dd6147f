package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
	"microtools/internal/verify"
)

// launchSpec is a two-variant movss family (unroll 1 and 2).
const launchSpec = `
<kernel name="core_k">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
  </instruction>
  <unrolling><min>1</min><max>2</max></unrolling>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction><register><phyName>%eax</phyName></register><increment>1</increment><not_affected_unroll/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

func launchOptions() launcher.Options {
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 4 << 10
	opts.InnerReps = 1
	opts.OuterReps = 2
	return opts
}

func generateLaunchSpec(t *testing.T) []codegen.Program {
	t.Helper()
	progs, err := core.Generate(context.Background(), strings.NewReader(launchSpec), core.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return progs
}

// TestGenerateLaunchAllEndToEnd: every variant core.Generate emits is
// measured when the list is handed to the campaign engine.
func TestGenerateLaunchAllEndToEnd(t *testing.T) {
	progs := generateLaunchSpec(t)
	res, err := campaign.RunPrograms(context.Background(), progs, campaign.Options{Launch: launchOptions(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Measurements()
	if len(ms) != 2 {
		t.Fatalf("measured %d variants, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Value <= 0 || m.Iterations == 0 {
			t.Errorf("%s: measurement = %+v", m.Kernel, m)
		}
	}
}

// TestLaunchAllParallelMatchesSerial: the worker-pool fan-out over a
// generated program list is bit-identical to the serial run (each variant
// owns its machine).
func TestLaunchAllParallelMatchesSerial(t *testing.T) {
	progs := generateLaunchSpec(t)
	run := func(workers int) []*launcher.Measurement {
		res, err := campaign.RunPrograms(context.Background(), progs, campaign.Options{Launch: launchOptions(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.Measurements()
	}
	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Kernel != parallel[i].Kernel || serial[i].Value != parallel[i].Value {
			t.Errorf("variant %d differs: %s=%v vs %s=%v",
				i, serial[i].Kernel, serial[i].Value, parallel[i].Kernel, parallel[i].Value)
		}
	}
}

// TestLaunchAllCancellation: canceling mid-campaign stops the pool within
// one variant and returns the partial measurements with ctx.Err().
func TestLaunchAllCancellation(t *testing.T) {
	progs := generateLaunchSpec(t)
	// Quadruple the family so there is something left to cancel.
	var many []codegen.Program
	for i := 0; i < 4; i++ {
		many = append(many, progs...)
	}
	opts := launchOptions()
	opts.ArrayBytes = 1 << 12
	opts.OuterReps = 1
	opts.MaxInstructions = 5_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := campaign.RunPrograms(ctx, many, campaign.Options{
		Launch:  opts,
		Workers: 1,
		Observers: []campaign.Observer{campaign.UpdateFunc(func(u telemetry.CampaignUpdate) {
			if u.Done == 2 {
				cancel()
			}
		})},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled campaign must still return its partial results")
	}
	got := len(res.Measurements())
	if got < 2 || got >= len(many) {
		t.Errorf("canceled campaign measured %d of %d variants, want a prompt partial stop", got, len(many))
	}
}

// TestMultiLineDescriptionGenerates: a description spanning two lines
// (one of them instruction-like, one holding "*/") generates under every
// verify mode; each written .s and .c file loads back to exactly the
// lowered program, and the loaded program measures.
func TestMultiLineDescriptionGenerates(t *testing.T) {
	spec := strings.Replace(launchSpec, `<kernel name="core_k">`,
		"<kernel name=\"core_k\">\n  <description>two lines:\nout[i] = in[i] */ done</description>", 1)
	for _, mode := range []verify.Mode{verify.ModeEnforce, verify.ModeCollect, verify.ModeOff} {
		var ds verify.Diagnostics
		progs, err := core.Generate(context.Background(), strings.NewReader(spec),
			core.GenerateOptions{EmitC: true, Verify: mode, Diagnostics: &ds})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(progs) != 2 || ds.HasErrors() {
			t.Fatalf("mode %v: %d programs, diagnostics %v", mode, len(progs), ds)
		}
		dir := t.TempDir()
		paths, err := core.WritePrograms(progs, dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 4 {
			t.Fatalf("mode %v: wrote %v, want a .s and a .c per program", mode, paths)
		}
		for _, path := range paths {
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			var want *isa.Program
			for i := range progs {
				if progs[i].Name == name {
					want = progs[i].Parsed
				}
			}
			got, err := core.LoadKernelFile(path, "")
			if err != nil {
				t.Fatalf("mode %v: %s: %v", mode, path, err)
			}
			if want == nil || got.Name != want.Name || !reflect.DeepEqual(got.Labels, want.Labels) || got.Print() != want.Print() {
				t.Fatalf("mode %v: %s loads to\n%s\nwant the lowered\n%v", mode, path, got.Print(), want)
			}
			if mode != verify.ModeEnforce || filepath.Ext(path) != ".s" {
				continue
			}
			m, err := launcher.Launch(context.Background(), got, launchOptions())
			if err != nil || m.Summary.N == 0 {
				t.Fatalf("%s: launch: %v", path, err)
			}
		}
	}
}
