// Command microlauncher is the paper's §4 tool: it executes a benchmark
// program in a stable, controlled (simulated) environment and reports
// cycles per iteration as CSV.
//
// Usage:
//
//	microlauncher -kernel k.s [-function name] [options...]
//
// The option surface mirrors the paper's ">30 options": input selection,
// machine/environment, data arrays, measurement protocol and output
// control. Run with -h for the full list.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"microtools/internal/campaign"
	"microtools/internal/cliutil"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/stats"
	"microtools/internal/verify"
)

func main() {
	// Flags whose default is a launcher default bind straight to opts, so
	// DefaultOptions is the one place those defaults live.
	opts := launcher.DefaultOptions()
	// Input selection.
	kernelPath := flag.String("kernel", "", "kernel assembly file (required; - for stdin)")
	flag.StringVar(&opts.FunctionName, "function", opts.FunctionName, "kernel function name when the input holds several (§4.1); -function all measures every function")
	noVerify := flag.Bool("no-verify", false, "skip the pre-launch static verification of the kernel (internal/verify)")
	analyze := flag.Bool("analyze", false, "print the static dataflow report (bounds, dependences) for the kernel on -machine instead of launching (exit 1 on dead writes or self-moves)")
	suppress := flag.String("suppress", "", "comma-separated verifier rule IDs to ignore (e.g. V004)")
	// Machine / environment.
	flag.StringVar(&opts.MachineName, "machine", opts.MachineName, "simulated machine, optionally scaled: "+strings.Join(machine.Names(), "|")+"[ /factor]")
	flag.Float64Var(&opts.CoreFrequencyGHz, "frequency", opts.CoreFrequencyGHz, "core frequency in GHz (0 = nominal; Fig. 13 sweeps)")
	flag.IntVar(&opts.PinCore, "pin", opts.PinCore, "core to pin a sequential run to")
	flag.IntVar(&opts.Cores, "cores", opts.Cores, "core count for fork/openmp modes")
	mode := flag.String("mode", "sequential", "execution mode: sequential|fork|openmp")
	flag.BoolVar(&opts.SpreadSockets, "spread-sockets", opts.SpreadSockets, "round-robin fork processes across sockets")
	noIRQ := flag.Bool("disable-interrupts", true, "suppress environmental noise during runs (§4.7)")
	noiseSeed := flag.Int64("noise-seed", 0, "seed for the noise generator when interrupts are enabled")
	// Data arrays.
	flag.IntVar(&opts.NBVectors, "nbvectors", opts.NBVectors, "number of data arrays (0 = derive from the kernel)")
	flag.Int64Var(&opts.ArrayBytes, "size", opts.ArrayBytes, "bytes per data array")
	alignments := flag.String("alignments", "", "comma-separated per-array byte offsets within the alignment window")
	flag.Int64Var(&opts.AlignWindow, "align-window", opts.AlignWindow, "alignment window (power of two)")
	// Measurement protocol.
	flag.Int64Var(&opts.TripElements, "trip", opts.TripElements, "trip count element argument (0 = size/element-bytes)")
	flag.BoolVar(&opts.TripExact, "trip-exact", opts.TripExact, "pass the trip count unmodified (count-up kernels)")
	flag.Int64Var(&opts.ElementBytes, "element-bytes", opts.ElementBytes, "logical element size")
	flag.IntVar(&opts.InnerReps, "inner-reps", opts.InnerReps, "kernel calls per timed experiment (§4.5 inner loop)")
	flag.IntVar(&opts.OuterReps, "outer-reps", opts.OuterReps, "repeated experiments (§4.5 outer loop)")
	flag.BoolVar(&opts.Warmup, "warmup", opts.Warmup, "heat the caches before measuring (§4.5)")
	flag.BoolVar(&opts.Calibrate, "calibrate", opts.Calibrate, "subtract the empty-kernel call overhead (§4.5)")
	statName := flag.String("statistic", "min", "reported statistic: min|median|mean|max")
	flag.Int64Var(&opts.MaxInstructions, "max-instructions", opts.MaxInstructions, "dynamic instruction budget per call (0 = unlimited)")
	ompScale := flag.Float64("omp-overhead-scale", 1, "scale for the OpenMP region overhead model")
	ompSched := flag.String("omp-schedule", "static", "OpenMP schedule: static|dynamic")
	ompChunk := flag.Int64("omp-chunk", 1024, "chunk elements for schedule(dynamic)")
	flag.BoolVar(&opts.ReportEnergy, "energy", opts.ReportEnergy, "attach the power-model estimate (energy_j/avg_watts CSV columns)")
	// Output.
	unitName := flag.String("unit", "tsc", "time unit: tsc|cycles|seconds")
	flag.BoolVar(&opts.PerIteration, "per-iteration", opts.PerIteration, "divide by the kernel's %eax iteration count (§4.4)")
	verbose := flag.Bool("v", false, "protocol progress on stderr")
	memStats := flag.Bool("mem-stats", false, "print memory-system counters on stderr")
	dump := flag.Bool("dump-kernel", false, "print the decoded kernel (AT&T) on stderr before running")

	var (
		report   cliutil.Report
		counters cliutil.Counters
		camp     cliutil.Campaign
		trace    cliutil.Trace
		tele     cliutil.Telemetry
	)
	report.Register(flag.CommandLine, "result encoding on stdout")
	counters.Register(flag.CommandLine, "over the measured region (shown in the json report; csv prints them on stderr)")
	camp.RegisterWorkers(flag.CommandLine, "measuring several functions")
	camp.RegisterAdaptive(flag.CommandLine, "each measurement")
	trace.Register(flag.CommandLine, "the campaign and every launch (campaign, variant and launch spans)")
	tele.Register(flag.CommandLine, "the launches")
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the measurement between repetitions.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microlauncher: %v\n", err)
		os.Exit(1)
	}
	if err := tele.Start("microlauncher"); err != nil {
		fail(err)
	}
	defer tele.Close()
	if *kernelPath == "" {
		fmt.Fprintln(os.Stderr, "microlauncher: -kernel is required (see -h)")
		os.Exit(2)
	}

	var src []byte
	var err error
	if *kernelPath == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*kernelPath)
	}
	if err != nil {
		fail(err)
	}
	var kernels []*isa.Program
	if opts.FunctionName == "all" {
		all, err := core.LoadKernels(string(src))
		if err != nil {
			fail(err)
		}
		kernels = all
	} else {
		prog, err := core.LoadKernel(string(src), opts.FunctionName)
		if err != nil {
			fail(err)
		}
		kernels = append(kernels, prog)
	}
	for _, prog := range kernels {
		if *dump {
			fmt.Fprint(os.Stderr, prog.Print())
		}
		if !*noVerify {
			vopt := verify.Options{}
			if *suppress != "" {
				vopt.Suppress = strings.Split(*suppress, ",")
			}
			if ds := verify.Program(prog, prog.Name, vopt); len(ds) > 0 {
				ds.WriteText(os.Stderr)
				if ds.HasErrors() {
					fail(fmt.Errorf("kernel %s failed static verification (%s); pass -no-verify to launch anyway", prog.Name, ds.Summary()))
				}
			}
		}
	}

	if *analyze {
		mach, err := machine.ByName(opts.MachineName)
		if err != nil {
			fail(err)
		}
		defects, err := cliutil.WriteDataflow(os.Stdout, kernels, mach.Arch, false)
		if err != nil {
			fail(err)
		}
		if defects > 0 {
			fmt.Fprintf(os.Stderr, "microlauncher: analyze: %d defect finding(s) across %d kernel(s)\n", defects, len(kernels))
			os.Exit(1)
		}
		return
	}

	if opts.Mode, err = launcher.ParseMode(*mode); err != nil {
		fail(err)
	}
	if opts.Statistic, err = stats.ParseStatistic(*statName); err != nil {
		fail(err)
	}
	if opts.TimeUnit, err = launcher.ParseTimeUnit(*unitName); err != nil {
		fail(err)
	}
	if *alignments != "" {
		for _, a := range strings.Split(*alignments, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil {
				fail(fmt.Errorf("bad alignment %q: %w", a, err))
			}
			opts.Alignments = append(opts.Alignments, v)
		}
	}
	reportFormat, err := report.Format()
	if err != nil {
		fail(err)
	}
	if !*noIRQ {
		if *noiseSeed == 0 {
			// Pick and announce the effective seed so a noisy run can be
			// reproduced exactly with -noise-seed.
			*noiseSeed = time.Now().UnixNano()
			fmt.Fprintf(os.Stderr, "microlauncher: interrupts enabled without -noise-seed; using seed %d (pass -noise-seed %d to reproduce)\n",
				*noiseSeed, *noiseSeed)
		}
		opts.DisableInterrupts = false
		opts.NoiseSeed = *noiseSeed
	}
	opts.OMPOverheadScale = *ompScale
	switch *ompSched {
	case "static":
	case "dynamic":
		opts.OMPDynamic = true
		opts.OMPChunkElements = *ompChunk
	default:
		fail(fmt.Errorf("unknown -omp-schedule %q (want static|dynamic)", *ompSched))
	}
	if *verbose {
		opts.Verbose = os.Stderr
	}
	opts.Tracer = trace.Tracer()
	opts.CollectCounters = counters.Enabled
	opts.Metrics = tele.Metrics()

	// Every selected function runs through the campaign engine, fanned out
	// over -workers (-adaptive arms the plan on opts). Each kernel gets its
	// own simulated machine, so the measurements are bit-identical to
	// launching the functions one at a time.
	progs := make([]codegen.Program, len(kernels))
	for i, k := range kernels {
		progs[i] = codegen.Program{Name: k.Name, Parsed: k}
	}
	copts := camp.Options(opts)
	copts.Observers = []campaign.Observer{tele.Tracker().Begin(*kernelPath)}
	if *verbose {
		copts.Observers = append(copts.Observers, cliutil.Progress(os.Stderr, "microlauncher"))
	}
	res, err := campaign.RunPrograms(ctx, progs, copts)
	ms := res.Measurements()
	for _, m := range ms {
		// The launcher's report carries the measurement alone; the static
		// bound is what -analyze prints.
		m.StaticBound = 0
	}
	if err != nil {
		if len(res.Results) == 1 && res.Results[0].Err != nil {
			err = res.Results[0].Err // a single kernel fails with its own error
		}
		if len(ms) > 0 {
			launcher.WriteReport(os.Stdout, reportFormat, ms)
		}
		fail(err)
	}
	if err := launcher.WriteReport(os.Stdout, reportFormat, ms); err != nil {
		fail(err)
	}
	if *memStats {
		for _, m := range ms {
			fmt.Fprintf(os.Stderr, "mem %s: %+v\n", m.Kernel, m.MemStats)
		}
	}
	if counters.Enabled && reportFormat == launcher.ReportCSV {
		for _, m := range ms {
			c := m.Counters
			if c == nil {
				continue
			}
			fmt.Fprintf(os.Stderr, "counters %s: insts=%d cycles=%d cpi=%.3f branches=%d mispredicts=%d (rate %.4f) frontend-stalls=%d irq-stalls=%d\n",
				m.Kernel, c.RetiredInsts, c.CoreCycles, c.CPI(), c.Branches, c.BranchMispredicts, c.MispredictRate(),
				c.FrontendStallCycles, c.InterruptStallCycles)
			fmt.Fprintf(os.Stderr, "counters %s: l1-hit-rate=%.4f l1-mpki=%.2f l2-mpki=%.2f l3-mpki=%.2f mem-bytes=%d\n",
				m.Kernel, c.L1HitRate(), c.L1MPKI(), c.L2MPKI(), c.L3MPKI(), c.Mem.BytesFromMemory)
		}
	}
	spans, err := trace.Flush()
	if err != nil {
		fail(err)
	}
	if spans > 0 && *verbose {
		fmt.Fprintf(os.Stderr, "microlauncher: trace (%d spans) written to %s\n", spans, trace.Path)
	}
}
