package microtools

// One benchmark per paper table/figure (deliverable (d)): each regenerates
// its experiment through the full MicroCreator -> MicroLauncher -> simulator
// stack in Quick mode and reports the figure's headline values as custom
// metrics, so `go test -bench . -benchmem` reproduces the whole evaluation.
// The Ablation* benchmarks quantify the design choices DESIGN.md calls out.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	api "microtools/api/v1"
	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/cpu"
	"microtools/internal/dataflow"
	"microtools/internal/experiments"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/obs"
	"microtools/internal/service"
	"microtools/internal/sim"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
	"microtools/internal/verify"
)

// runExperiment executes one registered experiment per benchmark iteration
// and returns the last table.
func runExperiment(b *testing.B, id string) *stats.Table {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		tab, err = e.Run(context.Background(), experiments.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func reportAt(b *testing.B, tab *stats.Table, series string, x float64, metric string) {
	b.Helper()
	s := tab.Get(series)
	if s == nil {
		b.Fatalf("missing series %q", series)
	}
	v, err := s.YAt(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, metric)
}

// BenchmarkFig03MatmulSizeSweep regenerates Fig. 3 (matmul cycles/iteration
// vs matrix size) and reports the plateau and the post-knee cost.
func BenchmarkFig03MatmulSizeSweep(b *testing.B) {
	tab := runExperiment(b, "fig03")
	s := tab.Series[0]
	b.ReportMetric(s.MinY(), "plateau-cyc/iter")
	b.ReportMetric(s.Points[len(s.Points)-1].Y, "post-knee-cyc/iter")
}

// BenchmarkFig04MatmulAlignment regenerates Fig. 4 and reports the relative
// spread across alignment configurations (paper: <3%).
func BenchmarkFig04MatmulAlignment(b *testing.B) {
	tab := runExperiment(b, "fig04")
	s := tab.Series[0]
	b.ReportMetric(100*(s.MaxY()-s.MinY())/s.MinY(), "spread-%")
}

// BenchmarkFig05MatmulUnroll regenerates Fig. 5 and reports the unroll gain
// of the real kernel and of its generated microbenchmark equivalent.
func BenchmarkFig05MatmulUnroll(b *testing.B) {
	tab := runExperiment(b, "fig05")
	for _, name := range []string{"actual code", "microbenchmark"} {
		s := tab.Get(name)
		y1, _ := s.YAt(1)
		y8, _ := s.YAt(8)
		metric := "actual-gain-%"
		if name == "microbenchmark" {
			metric = "micro-gain-%"
		}
		b.ReportMetric(100*(y1-y8)/y1, metric)
	}
}

// BenchmarkFig11MovapsUnroll regenerates Fig. 11 (510-variant family).
func BenchmarkFig11MovapsUnroll(b *testing.B) {
	tab := runExperiment(b, "fig11")
	reportAt(b, tab, "L1", 8, "L1-cyc/inst")
	reportAt(b, tab, "RAM", 8, "RAM-cyc/inst")
}

// BenchmarkFig12MovssUnroll regenerates Fig. 12.
func BenchmarkFig12MovssUnroll(b *testing.B) {
	tab := runExperiment(b, "fig12")
	reportAt(b, tab, "L1", 8, "L1-cyc/inst")
	reportAt(b, tab, "RAM", 8, "RAM-cyc/inst")
}

// BenchmarkFig13FrequencySweep regenerates Fig. 13 and reports the
// core-clock sensitivity of L1 vs RAM in TSC cycles.
func BenchmarkFig13FrequencySweep(b *testing.B) {
	tab := runExperiment(b, "fig13")
	for _, name := range []string{"L1", "RAM"} {
		s := tab.Get(name)
		lo := s.Points[0].Y
		hi := s.Points[len(s.Points)-1].Y
		b.ReportMetric(lo/hi, name+"-slowdown-x")
	}
}

// BenchmarkFig14ForkSaturation regenerates Fig. 14 and reports the
// saturation factor (12-core vs 1-core cycles/iteration).
func BenchmarkFig14ForkSaturation(b *testing.B) {
	tab := runExperiment(b, "fig14")
	s := tab.Get("movaps")
	one, _ := s.YAt(1)
	twelve, _ := s.YAt(12)
	b.ReportMetric(twelve/one, "saturation-x")
}

// BenchmarkFig15Alignment8Core regenerates Fig. 15 and reports the
// cycles/iteration band across alignment configurations.
func BenchmarkFig15Alignment8Core(b *testing.B) {
	tab := runExperiment(b, "fig15")
	s := tab.Series[0]
	b.ReportMetric(s.MinY(), "min-cyc/iter")
	b.ReportMetric(s.MaxY(), "max-cyc/iter")
}

// BenchmarkFig16Alignment32Core regenerates Fig. 16.
func BenchmarkFig16Alignment32Core(b *testing.B) {
	tab := runExperiment(b, "fig16")
	s := tab.Series[0]
	b.ReportMetric(s.MinY(), "min-cyc/iter")
	b.ReportMetric(s.MaxY(), "max-cyc/iter")
}

// BenchmarkFig17OpenMP128k regenerates Fig. 17 and reports the OpenMP gain
// on the cache-resident array.
func BenchmarkFig17OpenMP128k(b *testing.B) {
	tab := runExperiment(b, "fig17")
	s, _ := tab.Get("sequential").YAt(8)
	o, _ := tab.Get("openmp").YAt(8)
	b.ReportMetric(s/o, "omp-gain-x")
}

// BenchmarkFig18OpenMP6M regenerates Fig. 18 (RAM-resident array).
func BenchmarkFig18OpenMP6M(b *testing.B) {
	tab := runExperiment(b, "fig18")
	s, _ := tab.Get("sequential").YAt(8)
	o, _ := tab.Get("openmp").YAt(8)
	b.ReportMetric(s/o, "omp-gain-x")
}

// BenchmarkTab02OpenMPWallclock regenerates Table 2 and reports the
// seconds-scale entries' structure: sequential u1 vs u8, and OpenMP u1.
func BenchmarkTab02OpenMPWallclock(b *testing.B) {
	tab := runExperiment(b, "tab02")
	s1, _ := tab.Get("sequential (s)").YAt(1)
	s8, _ := tab.Get("sequential (s)").YAt(8)
	o1, _ := tab.Get("openmp (s)").YAt(1)
	b.ReportMetric(s1, "seq-u1-s")
	b.ReportMetric(s8, "seq-u8-s")
	b.ReportMetric(o1, "omp-u1-s")
}

// BenchmarkStabilityProtocol regenerates the §4.7 stability study and
// reports the run-to-run CV with and without the launcher's protocol.
func BenchmarkStabilityProtocol(b *testing.B) {
	tab := runExperiment(b, "stability")
	b.ReportMetric(tab.Get("full protocol").Points[0].Y, "protocol-CV-%")
	b.ReportMetric(tab.Get("noise, naive").Points[0].Y, "naive-CV-%")
}

// ---- ablations -------------------------------------------------------------

func buildLoadKernel(b *testing.B, u int) *isa.Program {
	b.Helper()
	var sb strings.Builder
	sb.WriteString(".L0:\n")
	for c := 0; c < u; c++ {
		fmt.Fprintf(&sb, "movaps %d(%%rsi), %%xmm%d\n", 16*c, c%8)
	}
	fmt.Fprintf(&sb, "add $%d, %%rsi\n", 16*u)
	sb.WriteString("add $1, %eax\n")
	fmt.Fprintf(&sb, "sub $%d, %%rdi\n", 4*u)
	sb.WriteString("jge .L0\nret\n")
	p, err := asm.ParseOne(sb.String(), fmt.Sprintf("bench_u%d", u))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationBoundVsEventDriven compares the static dataflow lower
// bound against the event-driven core on an L1-resident kernel: it reports
// both per-iteration figures and their ratio (how much of the simulated
// cost the sim-free bound accounts for).
func BenchmarkAblationBoundVsEventDriven(b *testing.B) {
	arch := isa.Nehalem()
	prog := buildLoadKernel(b, 8)
	mem := fixedLatencyMem{lat: 4}

	iters := int64(2000)
	var eventCyc float64
	for i := 0; i < b.N; i++ {
		var rf isa.RegFile
		rf.Set(isa.RDI, uint64(32*iters-1))
		rf.Set(isa.RSI, 0x100000)
		core := cpu.NewCore(0, arch, mem)
		if err := core.Reset(prog, &rf, 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Step(math.MaxInt64); err != nil {
			b.Fatal(err)
		}
		eventCyc = float64(core.Result().Cycles) / float64(iters)
	}
	bounds, err := dataflow.KernelBounds(prog, arch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(eventCyc, "event-cyc/iter")
	b.ReportMetric(bounds.CyclesLowerBound, "bound-cyc/iter")
	b.ReportMetric(bounds.CyclesLowerBound/eventCyc, "ratio")
}

type fixedLatencyMem struct{ lat int64 }

func (m fixedLatencyMem) Load(_ int, _ uint64, _ int, issue int64) int64 {
	return issue + m.lat
}
func (m fixedLatencyMem) Store(_ int, _ uint64, _ int, issue int64) int64 {
	return issue + 1
}

// launchOnMachine measures a kernel on an explicitly configured machine.
func launchOnMachine(b *testing.B, desc *machine.Machine, prog *isa.Program, arrayBytes int64) float64 {
	b.Helper()
	mach, err := sim.New(desc)
	if err != nil {
		b.Fatal(err)
	}
	opts := launcher.DefaultOptions()
	opts.MachineName = desc.Name
	opts.ArrayBytes = arrayBytes
	opts.InnerReps = 1
	opts.OuterReps = 1
	opts.MaxInstructions = 60_000
	m, err := launcher.LaunchOn(context.Background(), mach, prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	return m.Value
}

// BenchmarkAblationPrefetcher measures the next-line prefetcher's effect on
// a latency-bound sequential stream (one outstanding access at a time, the
// worst case the prefetcher exists for). A many-MSHR unrolled stream is
// bandwidth-bound either way — that architectural fact is itself part of
// the result, so both regimes are reported.
func BenchmarkAblationPrefetcher(b *testing.B) {
	base, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	size := base.Hierarchy.L3.Size * 2
	serialized := func(pf bool) float64 {
		desc := *base
		desc.Hierarchy.NextLinePrefetch = pf
		sys, err := desc.NewSystem()
		if err != nil {
			b.Fatal(err)
		}
		cycle := int64(1)
		n := int64(0)
		for off := int64(0); off < size; off += 64 {
			cycle = sys.Load(0, uint64(0x1000000+off), 8, cycle)
			n++
		}
		return float64(cycle) / float64(n)
	}
	overlapped := func(pf bool) float64 {
		desc := *base
		desc.Hierarchy.NextLinePrefetch = pf
		return launchOnMachine(b, &desc, buildLoadKernel(b, 8), size)
	}
	var serOn, serOff, ovlOn, ovlOff float64
	for i := 0; i < b.N; i++ {
		serOn, serOff = serialized(true), serialized(false)
		ovlOn, ovlOff = overlapped(true), overlapped(false)
	}
	b.ReportMetric(serOff/serOn, "latency-bound-speedup-x")
	b.ReportMetric(ovlOff/ovlOn, "bw-bound-speedup-x")
	b.ReportMetric(serOn, "serialized-pf-cyc/line")
	b.ReportMetric(serOff, "serialized-nopf-cyc/line")
}

// BenchmarkAblationRegisterRotation quantifies §3.1's claim that rotating
// XMM registers "reduces register dependency": an unrolled read-modify
// multiply chain on one register vs rotated registers.
func BenchmarkAblationRegisterRotation(b *testing.B) {
	build := func(rotate bool) *isa.Program {
		var sb strings.Builder
		sb.WriteString(".L0:\n")
		for c := 0; c < 8; c++ {
			reg := 2
			if rotate {
				reg = 2 + c%6
			}
			fmt.Fprintf(&sb, "mulsd %d(%%rsi), %%xmm%d\n", 8*c, reg)
		}
		sb.WriteString("add $64, %rsi\nadd $1, %eax\nsub $8, %rdi\njge .L0\nret\n")
		p, err := asm.ParseOne(sb.String(), "rot")
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	arch := isa.Nehalem()
	run := func(p *isa.Program) float64 {
		var rf isa.RegFile
		rf.Set(isa.RDI, 8*2000-1)
		rf.Set(isa.RSI, 0x100000)
		core := cpu.NewCore(0, arch, fixedLatencyMem{lat: 4})
		if err := core.Reset(p, &rf, 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Step(math.MaxInt64); err != nil {
			b.Fatal(err)
		}
		return float64(core.Result().Cycles) / 2000
	}
	var fixed, rotated float64
	for i := 0; i < b.N; i++ {
		fixed = run(build(false))
		rotated = run(build(true))
	}
	b.ReportMetric(fixed, "fixed-reg-cyc/iter")
	b.ReportMetric(rotated, "rotated-cyc/iter")
	b.ReportMetric(fixed/rotated, "speedup-x")
}

// BenchmarkSimulatorThroughput measures the event-driven core's simulation
// speed in dynamic instructions per second — the practical budget every
// experiment sweep spends from.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog := buildLoadKernel(b, 8)
	arch := isa.Nehalem()
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rf isa.RegFile
		rf.Set(isa.RDI, 32*5000-1)
		rf.Set(isa.RSI, 0x100000)
		core := cpu.NewCore(0, arch, fixedLatencyMem{lat: 4})
		if err := core.Reset(prog, &rf, 0, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Step(math.MaxInt64); err != nil {
			b.Fatal(err)
		}
		insts += core.Result().Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkGenerate510Variants measures MicroCreator's generation speed on
// the paper's 510-variant input.
func BenchmarkGenerate510Variants(b *testing.B) {
	spec := fig6Spec()
	for i := 0; i < b.N; i++ {
		progs, err := GenerateString(context.Background(), spec, GenerateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(progs) != 510 {
			b.Fatalf("generated %d variants, want 510", len(progs))
		}
	}
}

// BenchmarkVerifyVariants measures the static verifier's overhead on a
// ~1k-variant expansion. Both arms produce launch-ready (decoded) programs,
// since the emit pass lowers every variant whether or not it verifies, so
// the delta is the cost of the verification rules proper. The
// verify-overhead-% metric is that delta relative to generation wall-clock: full two-level (IR + asm) verification costs a few
// microseconds per variant, around a tenth of generation time and well under
// a percent of any campaign that actually launches what it generates.
func BenchmarkVerifyVariants(b *testing.B) {
	spec := strings.Replace(fig6Spec(),
		"<unrolling><min>1</min><max>8</max></unrolling>",
		"<unrolling><min>1</min><max>9</max></unrolling>", 1)
	// generate runs MicroCreator, which leaves every program decoded,
	// exactly as a launch campaign consumes it.
	generate := func(opts GenerateOptions) int {
		progs, err := GenerateString(context.Background(), spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		return len(progs)
	}
	if n := generate(GenerateOptions{}); n != 1022 {
		b.Fatalf("generated %d variants, want 1022 (unroll 1..9)", n)
	}

	b.Run("no-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			generate(GenerateOptions{Verify: VerifyOff})
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			generate(GenerateOptions{})
		}
	})

	// Paired interleaved runs for the headline relative-overhead metric;
	// medians damp the GC noise either arm can catch on a busy machine.
	b.Run("overhead", func(b *testing.B) {
		offs := make([]time.Duration, 0, b.N)
		ons := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			generate(GenerateOptions{Verify: VerifyOff})
			offs = append(offs, time.Since(start))
			start = time.Now()
			generate(GenerateOptions{})
			ons = append(ons, time.Since(start))
		}
		median := func(ds []time.Duration) time.Duration {
			sorted := append([]time.Duration(nil), ds...)
			slices.Sort(sorted)
			return sorted[len(sorted)/2]
		}
		if off := median(offs); off > 0 {
			on := median(ons)
			b.ReportMetric(100*(float64(on)-float64(off))/float64(off), "verify-overhead-%")
		}
	})
}

// BenchmarkAnalyze measures the static dataflow analysis (internal/dataflow)
// over the paper's 510-variant §5.1 family: parse + reaching definitions +
// dependence DAG + bound computation per variant. The per-variant metric is
// the cold cost of attaching a static bound to a variant (the campaign and
// ScreenTopK use the memoized dataflow.KernelBounds slice of it).
func BenchmarkAnalyze(b *testing.B) {
	progs, err := GenerateString(context.Background(), fig6Spec(), GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	arch := isa.Nehalem()
	kernels := make([]*Kernel, len(progs))
	for i := range progs {
		k, err := progs[i].Lowered()
		if err != nil {
			b.Fatal(err)
		}
		kernels[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			rep, err := dataflow.Analyze(k, arch)
			if err != nil {
				b.Fatal(err)
			}
			if rep.CyclesLowerBound <= 0 {
				b.Fatalf("%s: no bound", k.Name)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kernels)), "ns/variant")
}

// BenchmarkScreenStatic measures the static screen (core.ScreenTopK at an
// L1-resident size) over the same 510-variant family (keep 32) and reports the speedup a campaign gains by
// measuring only the survivors: (cost of simulating all variants) versus
// (screen + simulate the kept fraction), with the per-variant simulation
// cost taken from one real launch.
func BenchmarkScreenStatic(b *testing.B) {
	progs, err := GenerateString(context.Background(), fig6Spec(), GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const keep = 32
	var screenTime time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		kept, err := core.ScreenTopK(context.Background(), progs, "nehalem-dual/8", 4<<10, 4, keep)
		if err != nil {
			b.Fatal(err)
		}
		screenTime += time.Since(start)
		if len(kept) != keep {
			b.Fatalf("kept %d, want %d", len(kept), keep)
		}
	}
	b.StopTimer()
	// One real launch calibrates the simulation cost the screen avoids.
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 4 << 10
	opts.InnerReps = 1
	opts.OuterReps = 2
	kernel, err := progs[0].Lowered()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if _, err := launcher.Launch(context.Background(), kernel, opts); err != nil {
		b.Fatal(err)
	}
	perLaunch := time.Since(start)
	screenPer := screenTime / time.Duration(b.N)
	all := perLaunch * time.Duration(len(progs))
	screened := screenPer + perLaunch*keep
	if screened > 0 {
		b.ReportMetric(float64(all)/float64(screened), "campaign-speedup-x")
	}
	b.ReportMetric(float64(screenPer.Nanoseconds())/float64(len(progs)), "screen-ns/variant")
}

func fig6Spec() string {
	return `
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
}

// ---- observability overhead ---------------------------------------------------

// obsKernel is the minimal streaming kernel the tracing-overhead benchmarks
// launch: small enough that per-launch protocol overhead dominates, which is
// exactly where tracing overhead would show.
const obsKernel = `
.L0:
movaps (%rsi), %xmm0
add $16, %rsi
add $1, %eax
sub $4, %rdi
jge .L0
ret`

func obsLaunchOptions() LaunchOptions {
	opts := DefaultLaunchOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 2 << 10
	opts.InnerReps = 2
	opts.OuterReps = 2
	return opts
}

// BenchmarkLaunchUntraced is the baseline: the instrumented launcher with
// the default nil tracer. The no-op tracing path must cost nothing — compare
// against BenchmarkLaunchTraced to see the price of turning tracing on.
func BenchmarkLaunchUntraced(b *testing.B) {
	prog, err := asm.ParseOne(obsKernel, "k")
	if err != nil {
		b.Fatal(err)
	}
	opts := obsLaunchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Launch(context.Background(), prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchTraced launches with an active tracer recording the full
// span tree (launch > phases > reps > sim runs).
func BenchmarkLaunchTraced(b *testing.B) {
	prog, err := asm.ParseOne(obsKernel, "k")
	if err != nil {
		b.Fatal(err)
	}
	opts := obsLaunchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Tracer = obs.New()
		if _, err := Launch(context.Background(), prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchCounters launches with simulated-PMU counter collection.
func BenchmarkLaunchCounters(b *testing.B) {
	prog, err := asm.ParseOne(obsKernel, "k")
	if err != nil {
		b.Fatal(err)
	}
	opts := obsLaunchOptions()
	opts.CollectCounters = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Launch(context.Background(), prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- hot-path simulator benchmarks (the Makefile's HOT_BENCHES) -----------
//
// These benchmarks guard the measurement loop itself: the single-repetition
// simulator path, the full launcher protocol, and whole campaign sweeps.
// make bench-smoke runs each once in CI so they cannot rot, and make
// bench-guard holds the sweep's allocation ceilings. They are pprof-friendly
// (one op = one unit of real work, no per-op setup) and run with -benchmem
// so allocation regressions fail review. Timing evidence for a speed claim
// comes from perfbench/, not from single runs of these.

// BenchmarkRunOne measures the simulate-one-repetition path: the same kernel
// re-launched on the same machine, which is exactly the unit of work the
// launcher's inner/outer repetition loops spend. After the first launch the
// decode cache and core pool are warm, so repeat launches must be 0
// allocs/op.
func BenchmarkRunOne(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.New(desc)
	if err != nil {
		b.Fatal(err)
	}
	prog := buildLoadKernel(b, 4)
	var rf isa.RegFile
	rf.Set(isa.RDI, 16*64-1)
	rf.Set(isa.RSI, 0x100000)
	job := sim.Job{Core: 0, Prog: prog, Regs: rf}
	// Warm launch: decode the program and populate the core pool.
	if _, err := mach.RunOne(job); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		r, err := mach.RunOne(job)
		if err != nil {
			b.Fatal(err)
		}
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkRunLockstep measures the simulator's multi-core scheduler, the
// path the fork and OpenMP studies take: fork4 is a quiet Run of one
// kernel on four cores, noisy1 a single job with interrupts enabled (which
// leaves RunOne's quiet fast path for the lock-step loop) and stream4 a
// RunStream of four slots handed three follow-on jobs each. The machine,
// decode cache and core pool are warmed first, so an op's allocations are
// the scheduler's own (make bench-guard caps them).
func BenchmarkRunLockstep(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	prog := buildLoadKernel(b, 4)
	jobs := make([]sim.Job, 4)
	for i := range jobs {
		var rf isa.RegFile
		rf.Set(isa.RDI, 16*64-1)
		rf.Set(isa.RSI, uint64(0x100000*(i+1)))
		jobs[i] = sim.Job{Core: i, Prog: prog, Regs: rf}
	}
	const followOns = 3
	handed := make([]int, len(jobs))
	next := func(slot int, _ sim.JobResult) *sim.Job {
		if handed[slot] == followOns {
			return nil
		}
		handed[slot]++
		return &jobs[slot]
	}
	for _, bc := range []struct {
		name string
		run  func(m *sim.Machine) (int, error)
	}{
		{"fork4", func(m *sim.Machine) (int, error) {
			rs, err := m.Run(jobs)
			return len(rs), err
		}},
		{"noisy1", func(m *sim.Machine) (int, error) {
			rs, err := m.Run(jobs[:1])
			return len(rs), err
		}},
		{"stream4", func(m *sim.Machine) (int, error) {
			clear(handed)
			rs, err := m.RunStream(jobs, next)
			return len(rs), err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			mach, err := sim.New(desc)
			if err != nil {
				b.Fatal(err)
			}
			if bc.name == "noisy1" {
				if err := mach.SetNoise(sim.DefaultNoise(1)); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := bc.run(mach); err != nil { // warm the decode cache and core pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(mach); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineReset measures the fixed cost a pooled machine pays
// between launches: warm three 16 KiB arrays through core 0's caches, as the
// launcher's warm-up does, then Reset the machine to its freshly built
// state. Reset clears only the cache sets the traffic filled.
func BenchmarkMachineReset(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.New(desc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := uint64(0); a < 3; a++ {
			mach.Touch(0, 0x10000000+a*0x10000, 16<<10)
		}
		mach.Reset()
	}
}

// BenchmarkMachineWarm measures a launch's warm-up of one 16 KiB array on
// core 0 followed by the Reset that returns the pooled machine: "miss"
// alternates two array bases, so every warm-up simulates its loads and
// captures the result into the machine's memo; "hit" repeats one base, so
// every warm-up restores the memo instead. BenchmarkMachineReset is the
// same traffic with no memo at all.
func BenchmarkMachineWarm(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	pins := []int{0}
	for _, tc := range []struct {
		name  string
		other uint64
	}{{"miss", 0x10010000}, {"hit", 0x10000000}} {
		b.Run(tc.name, func(b *testing.B) {
			arrays := [2][][]uint64{{{0x10000000}}, {{tc.other}}}
			mach, err := sim.New(desc)
			if err != nil {
				b.Fatal(err)
			}
			mach.Warm(pins, arrays[1], 16<<10)
			mach.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach.Warm(pins, arrays[i%2], 16<<10)
				mach.Reset()
			}
		})
	}
}

// BenchmarkLauncherProtocol measures one full launch protocol (warm-up,
// calibration, outer×inner repetitions) of a small streaming kernel on a
// reused machine. The trip count is deliberately tiny so per-repetition
// overhead — not simulated kernel work — dominates: this is the fixed cost
// every variant of a sweep pays.
func BenchmarkLauncherProtocol(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.New(desc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.ParseOne(obsKernel, "k")
	if err != nil {
		b.Fatal(err)
	}
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 1 << 10
	opts.TripElements = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := launcher.LaunchOn(context.Background(), mach, prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariantMaterialize measures the per-variant materialization
// path the IR-first pipeline pays between generation and launch: lower the
// kernel IR to its decoded program, run the per-program verifier rules on
// it, and decode it for the baseline microarchitecture. This is the fixed
// static cost of every variant in a sweep before any simulation happens —
// the number that regresses when text rendering or string building sneaks
// back into the hot path.
func BenchmarkVariantMaterialize(b *testing.B) {
	progs, err := core.Generate(context.Background(), strings.NewReader(fig6Spec()), core.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// A mid-family variant: unrolled enough that the body dominates the
	// prologue, small enough to stay representative of the whole family.
	k := progs[len(progs)/2].Kernel
	arch := isa.Nehalem()
	opt := verify.Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parsed, err := codegen.Lower(k)
		if err != nil {
			b.Fatal(err)
		}
		if ds := verify.Program(parsed, parsed.Name, opt); len(ds) > 0 {
			b.Fatalf("verify: %v", ds)
		}
		if _, err := parsed.Decoded(arch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSweep measures a full cold sweep of the paper's
// 510-variant family: generate, verify and measure every variant, no cache.
// This is the end-to-end number a campaign's wall-clock scales from.
func BenchmarkCampaignSweep(b *testing.B) {
	spec := fig6Spec()
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 1
	launch.MaxInstructions = 2_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunCampaign(context.Background(), strings.NewReader(spec), GenerateOptions{},
			CampaignOptions{Launch: launch, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.Launches != 510 {
			b.Fatalf("sweep launched %d variants, want 510", res.Launches)
		}
	}
}

// BenchmarkWriteReport encodes the JSON report of the 510-variant family,
// measured once outside the timer with the static bound checked: the
// reporting layer that ends every study and every served job. make
// bench-guard holds its allocs/op under bench_guard_report_allocs.txt.
func BenchmarkWriteReport(b *testing.B) {
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 2
	launch.MaxInstructions = 2_000
	res, err := RunCampaign(context.Background(), strings.NewReader(fig6Spec()), GenerateOptions{},
		CampaignOptions{Launch: launch, Workers: 4, CheckBounds: true})
	if err != nil {
		b.Fatal(err)
	}
	ms := res.Measurements()
	if len(ms) != 510 {
		b.Fatalf("report covers %d variants, want 510", len(ms))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := launcher.WriteReport(io.Discard, launcher.ReportJSON, ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobResultCodec decodes and re-encodes the result document of
// the 510-variant family as microserved serves it (a real job through an
// in-process daemon, run once outside the timer): the wire codec every
// served job pays on both ends. make bench-guard holds its allocs/op under
// bench_guard_codec_allocs.txt.
func BenchmarkJobResultCodec(b *testing.B) {
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 2
	launch.MaxInstructions = 2_000
	d, err := service.New(context.Background(), service.Options{MaxConcurrentJobs: 1, Launch: launch})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	status, aerr := d.Submit(api.JobRequest{Spec: fig6Spec(), Workers: 4, CheckBounds: true})
	if aerr != nil {
		b.Fatal(aerr)
	}
	res, _ := d.Result(status.ID)
	for res.Serving == nil { // set with the terminal state
		time.Sleep(10 * time.Millisecond)
		res, _ = d.Result(status.ID)
	}
	if res.Job.State != api.StateDone || res.Campaign == nil || len(res.Campaign.Variants) != 510 {
		b.Fatalf("job ended %s, want done with 510 variants", res.Job.State)
	}
	doc, err := res.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out api.JobResult
		if err := out.UnmarshalJSON(doc); err != nil {
			b.Fatal(err)
		}
		if _, err := out.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceRetention reports the live heap a memory-only daemon
// keeps per finished job (retained-B/job, measured after runtime.GC): the
// job's event history, result and status. The daemon runs the 510-variant
// family once cold, then warm until the telemetry tracker's window of
// finished campaigns is full, and the figure covers the next 20 warm jobs.
// make bench-guard caps it (bench_guard_retained_bytes.txt), so a return
// to a full JobStatus copy per event fails CI.
func BenchmarkServiceRetention(b *testing.B) {
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 2
	launch.MaxInstructions = 2_000
	const warmup, measured = 17, 20
	for i := 0; i < b.N; i++ {
		cache, err := OpenMeasurementCache(filepath.Join(b.TempDir(), "m.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		d, err := service.New(context.Background(), service.Options{MaxConcurrentJobs: 1, Cache: cache, Launch: launch})
		if err != nil {
			b.Fatal(err)
		}
		req := api.JobRequest{Spec: fig6Spec(), Workers: 1}
		run := func(n int) {
			for j := 0; j < n; j++ {
				status, aerr := d.Submit(req)
				if aerr != nil {
					b.Fatal(aerr)
				}
				for status.State == api.StateQueued || status.State == api.StateRunning {
					time.Sleep(time.Millisecond)
					status, _ = d.Job(status.ID)
				}
				if status.State != api.StateDone {
					b.Fatalf("job %s ended %s", status.ID, status.State)
				}
			}
		}
		run(1 + warmup)
		heap0 := liveHeap()
		run(measured)
		heap1 := liveHeap()
		b.ReportMetric(math.Round(float64(heap1-heap0)/measured), "retained-B/job")
		if err := errors.Join(d.Close(), cache.Close()); err != nil {
			b.Fatal(err)
		}
	}
}

// liveHeap collects garbage twice (the second pass frees what the first
// moved to sync.Pool victim caches) and returns the bytes still reachable.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// BenchmarkCampaignSweepAdaptive is BenchmarkCampaignSweep with a real
// 4-rep outer budget and the adaptive planner armed: same 510 variants,
// every one stopping at the 2-rep floor, then a top-up pass re-launching
// the variants whose collapsed interval still misses the target. Compare
// against a fixed OuterReps=4 run to read the planner's wall-clock win.
func BenchmarkCampaignSweepAdaptive(b *testing.B) {
	spec := fig6Spec()
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 4
	launch.MaxInstructions = 2_000
	launch.Adaptive = &AdaptivePlan{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunCampaign(context.Background(), strings.NewReader(spec), GenerateOptions{},
			CampaignOptions{Launch: launch, Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if res.Emitted != 510 {
			b.Fatalf("sweep emitted %d variants, want 510", res.Emitted)
		}
		if res.RepsSaved == 0 {
			b.Fatal("adaptive sweep saved no repetitions")
		}
	}
}

// BenchmarkCampaignSweepWorkers runs the same 510-variant cold sweep at
// 1/2/4/8 workers — the parallel-scaling curve of the campaign engine. The
// results are bit-identical across worker counts (every variant runs on its
// own simulated machine), so the sub-benchmark ratios are pure scheduling
// efficiency.
func BenchmarkCampaignSweepWorkers(b *testing.B) {
	spec := fig6Spec()
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 1
	launch.MaxInstructions = 2_000
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunCampaign(context.Background(), strings.NewReader(spec), GenerateOptions{},
					CampaignOptions{Launch: launch, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Launches != 510 {
					b.Fatalf("sweep launched %d variants, want 510", res.Launches)
				}
			}
		})
	}
}

// BenchmarkLauncherProtocolTelemetry is BenchmarkLauncherProtocol with a live
// metrics registry armed: every repetition feeds the rep-latency histogram
// and the sim flushes its counters at launch end. Compare against the plain
// benchmark — the acceptance budget for enabled telemetry is <2% on this
// protocol-dominated path.
func BenchmarkLauncherProtocolTelemetry(b *testing.B) {
	desc, err := machine.ByName("nehalem-dual/8")
	if err != nil {
		b.Fatal(err)
	}
	mach, err := sim.New(desc)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.ParseOne(obsKernel, "k")
	if err != nil {
		b.Fatal(err)
	}
	opts := launcher.DefaultOptions()
	opts.MachineName = "nehalem-dual/8"
	opts.ArrayBytes = 1 << 10
	opts.TripElements = 16
	opts.Metrics = telemetry.NewMetrics(telemetry.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := launcher.LaunchOn(context.Background(), mach, prog, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := opts.Metrics.Registry.Snapshot()
	if s.Counters["sim.insts.retired"] == 0 {
		b.Fatal("telemetry was armed but sim.insts.retired stayed 0")
	}
}

// BenchmarkCampaign compares a cold campaign (every variant generated,
// launched and cached) against a cache-warm re-run of the identical
// campaign (every variant served from the content-addressed store, zero
// launches). The gap is the measurement cost the cache amortizes across
// repeated or resumed sweeps. "quick" is the cold campaign as perfbench's
// fig6-quick-cold workload runs it: the shipped movaps spec at seed 1,
// 16 KiB arrays, 2×1 repetitions, bound checks and 2 workers, so its
// profiles show what that workload spends.
func BenchmarkCampaign(b *testing.B) {
	spec := fig6Spec()
	gen := GenerateOptions{}
	launch := DefaultLaunchOptions()
	launch.MachineName = "nehalem-dual/8"
	launch.ArrayBytes = 1 << 12
	launch.InnerReps = 1
	launch.OuterReps = 1
	launch.MaxInstructions = 2_000

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache, err := OpenMeasurementCache(filepath.Join(b.TempDir(), "m.jsonl"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := RunCampaign(context.Background(), strings.NewReader(spec), gen,
				CampaignOptions{Launch: launch, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.Launches != res.Emitted || res.CacheHits != 0 {
				b.Fatalf("cold run: %d launches, %d hits over %d variants",
					res.Launches, res.CacheHits, res.Emitted)
			}
			cache.Close()
		}
	})
	b.Run("quick", func(b *testing.B) {
		quickSpec, err := os.ReadFile("specs/loadstore_movaps.xml")
		if err != nil {
			b.Fatal(err)
		}
		quick := DefaultLaunchOptions()
		quick.MachineName = "nehalem-dual/8"
		quick.ArrayBytes = 16 << 10
		quick.OuterReps, quick.InnerReps = 2, 1
		for i := 0; i < b.N; i++ {
			cache, err := OpenMeasurementCache(filepath.Join(b.TempDir(), "m.jsonl"))
			if err != nil {
				b.Fatal(err)
			}
			res, err := RunCampaign(context.Background(), bytes.NewReader(quickSpec), GenerateOptions{Seed: 1},
				CampaignOptions{Launch: quick, Cache: cache, Workers: 2, CheckBounds: true})
			if err != nil {
				b.Fatal(err)
			}
			if res.Launches != res.Emitted || res.CacheHits != 0 {
				b.Fatalf("quick run: %d launches, %d hits over %d variants",
					res.Launches, res.CacheHits, res.Emitted)
			}
			cache.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "m.jsonl")
		cache, err := OpenMeasurementCache(path)
		if err != nil {
			b.Fatal(err)
		}
		defer cache.Close()
		if _, err := RunCampaign(context.Background(), strings.NewReader(spec), gen,
			CampaignOptions{Launch: launch, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := RunCampaign(context.Background(), strings.NewReader(spec), gen,
				CampaignOptions{Launch: launch, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.Launches != 0 || res.CacheHits != res.Emitted {
				b.Fatalf("warm run: %d launches, %d hits over %d variants",
					res.Launches, res.CacheHits, res.Emitted)
			}
		}
	})
}
