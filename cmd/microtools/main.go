// Command microtools drives the end-to-end reproduction: it lists and runs
// the paper's evaluation experiments (Figs. 3-5, 11-18, Table 2 and the
// §4.7 stability study), writing each result as CSV and an ASCII chart.
//
// Usage:
//
//	microtools -list
//	microtools -experiment fig11 [-quick] [-csv out.csv] [-v]
//	microtools -all [-quick] [-outdir results/]
//	microtools -study spec.xml [-screen K] [-workers N] [-cache measurements.jsonl] [-fail-fast]
//	          [-retries N] [-retry-backoff D] [-deadline D] [-quarantine N]
//	microtools vet [-json] [-suppress V004,V008] spec.xml...
//	microtools chaos [-fault-seed N] [-fault-rate R] [-fault-burst N]
//	          [-fault-permanent] [-retries N] spec.xml
//	microtools top [-addr host:port] [-json] [-metrics]
//	microtools submit [-addr URL] [-tenant NAME] [-quick] [-v] spec.xml
//
// Every mode accepts -telemetry-addr to serve live telemetry while it
// runs: /metrics (Prometheus text format), /debug/campaigns (JSON
// snapshots of in-flight campaigns) and /events (SSE progress stream);
// -pprof additionally mounts net/http/pprof on the same listener. The
// top subcommand queries a running instance's endpoints once and prints
// a snapshot — the one-shot companion of watching /events.
//
// The -study flow runs as a campaign (internal/campaign): generated
// variants stream into a cancellable worker pool, failures are isolated
// per variant, and -cache keeps a content-addressed measurement store so
// an interrupted or repeated study resumes without re-measuring. The
// resilience budgets bound each variant (-deadline), re-attempt transient
// failures with deterministic backoff (-retries, -retry-backoff) and
// withdraw repeat offenders (-quarantine). -screen K first ranks the whole
// family statically (core.ScreenTopK) and runs only the top K through the
// same campaign.
//
// The vet subcommand runs MicroCreator's static verifier over every variant
// a spec expands to — without launching anything — and reports the findings
// (see internal/verify for the rule catalog). It exits non-zero when any
// error-severity diagnostic is found.
//
// The chaos subcommand replays a spec's campaign under a deterministic,
// seed-driven fault plan (internal/faults) and verifies the resilience
// contract: with transient faults and a sufficient retry budget, the final
// measurements are bit-identical to a fault-free run. It exits non-zero
// when the chaotic run diverges from the clean one.
//
// The submit subcommand is the -study flow pointed at a running
// microserved instance: the spec is measured remotely over the api/v1
// job contract (shared cache, per-tenant quotas, SSE progress) and the
// same ranking report is printed locally.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	api "microtools/api/v1"
	"microtools/internal/analysis"
	"microtools/internal/campaign"
	"microtools/internal/cliutil"
	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/experiments"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	machinepkg "microtools/internal/machine"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
	"microtools/internal/verify"
	"microtools/serviceclient"
)

// runVet implements the vet subcommand: collect-only verification of one or
// more XML kernel descriptions. Exit status 1 means error-severity findings
// (or an unreadable input), 0 means clean or warnings only.
func runVet(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array instead of text")
		suppress = fs.String("suppress", "", "comma-separated rule IDs to ignore (e.g. V004,V008)")
		seed     = fs.Int64("seed", 0, "seed for the random-select pass")
		vFlag    = fs.Bool("v", false, "per-pass progress on stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: microtools vet [-json] [-suppress IDs] [-seed N] spec.xml...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	opts := core.GenerateOptions{Seed: *seed}
	if *suppress != "" {
		opts.VerifySuppress = strings.Split(*suppress, ",")
	}
	if *vFlag {
		opts.Verbose = os.Stderr
	}
	var all verify.Diagnostics
	for _, path := range fs.Args() {
		ds, progs, err := core.VetFile(ctx, path, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microtools: vet: %v\n", err)
			os.Exit(1)
		}
		// Prefix the file so multi-spec runs stay attributable.
		for i := range ds {
			ds[i].Kernel = path + ": " + ds[i].Kernel
		}
		all = append(all, ds...)
		if !*jsonOut {
			fmt.Printf("%s: %d variants, %s\n", path, len(progs), ds.Summary())
		}
	}
	if err := cliutil.WriteDiagnostics(os.Stdout, all, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "microtools: vet: %v\n", err)
		os.Exit(1)
	}
	os.Exit(cliutil.DiagnosticsExitCode(all))
}

// runAnalyze implements the analyze subcommand: run the static dataflow
// analysis (internal/dataflow) over kernels — every variant of an XML spec,
// or an assembly file directly — and report the dependence structure and
// performance lower bounds without launching anything. Exit status 1 means
// the analysis flagged a defect (a dead register write outside a memory
// access, V009, or a register self-move, V010) or an input failed to
// analyze; `make analyze-smoke` relies on that contract.
func runAnalyze(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		jsonOut     = fs.Bool("json", false, "emit the reports as a JSON array instead of tables")
		machineName = fs.String("machine", "nehalem-dual", "machine model whose µop tables the analysis uses")
		seed        = fs.Int64("seed", 0, "seed for the random-select pass (XML inputs)")
		vFlag       = fs.Bool("v", false, "per-pass progress on stderr (XML inputs)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: microtools analyze [-json] [-machine M] spec.xml|kernel.s ...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microtools: analyze: %v\n", err)
		os.Exit(1)
	}
	mach, err := machinepkg.ByName(*machineName)
	if err != nil {
		fail(err)
	}
	gen := core.GenerateOptions{Seed: *seed}
	if *vFlag {
		gen.Verbose = os.Stderr
	}
	var reports []*dataflow.Report
	defects := 0
	for _, path := range fs.Args() {
		var kernels []*isa.Program
		if strings.HasSuffix(path, ".xml") {
			progs, err := core.GenerateFile(ctx, path, gen)
			if err != nil {
				fail(err)
			}
			for i := range progs {
				k, err := progs[i].Lowered()
				if err != nil {
					fail(fmt.Errorf("%s: %s: %w", path, progs[i].Name, err))
				}
				kernels = append(kernels, k)
			}
		} else {
			k, err := core.LoadKernelFile(path, "")
			if err != nil {
				fail(err)
			}
			kernels = append(kernels, k)
		}
		for _, k := range kernels {
			rep, err := dataflow.Analyze(k, mach.Arch)
			if err != nil {
				fail(fmt.Errorf("%s: %s: %w", path, k.Name, err))
			}
			reports = append(reports, rep)
			defects += len(rep.Findings()) + len(rep.SelfMoves)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fail(err)
		}
	} else if len(reports) == 1 {
		if err := reports[0].WriteTable(os.Stdout); err != nil {
			fail(err)
		}
	} else {
		for _, rep := range reports {
			fmt.Println(rep.Line())
		}
	}
	if defects > 0 {
		fmt.Fprintf(os.Stderr, "microtools: analyze: %d defect finding(s) across %d kernel(s)\n", defects, len(reports))
		os.Exit(1)
	}
}

// runChaos implements the chaos subcommand: run one spec's campaign twice —
// fault-free, then under the seeded fault plan with the retry budget — and
// check the resilience contract. With transient faults the chaotic run must
// reproduce the clean measurements bit-identically; with -fault-permanent,
// failures are expected and only the surviving variants are compared. Exit
// status 1 means divergence (or an unrunnable spec).
func runChaos(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		machineName = fs.String("machine", "nehalem-dual/8", "simulated machine for the campaign")
		size        = fs.Int64("size", 1<<13, "array bytes per variant")
		vFlag       = fs.Bool("v", false, "per-run accounting on stderr")
	)
	var chaos cliutil.Chaos
	chaos.Register(fs)
	var camp cliutil.Campaign
	camp.RegisterWorkers(fs, "the chaos campaign")
	camp.RegisterResilience(fs)
	camp.RegisterAdaptive(fs, "the chaos campaign")
	var tele cliutil.Telemetry
	tele.Register(fs, "both chaos runs")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: microtools chaos [flags] spec.xml")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	// Unless the user chose a budget, default to the minimum that provably
	// heals every transient fault: a variant's launch path crosses up to
	// five distinct injection sites (worker launch, two repetition
	// boundaries, calibration stepping, kernel stepping), each injecting
	// Burst failures before healing, and every failed attempt consumes
	// exactly one of those failures.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !explicit["retries"] && !chaos.Permanent {
		camp.Retries = 5 * chaos.Burst
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microtools: chaos: %v\n", err)
		os.Exit(1)
	}
	if addr, err := tele.Start(); err != nil {
		fail(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "microtools: chaos: telemetry: http://%s/\n", addr)
	}
	defer tele.Close()
	spec := fs.Arg(0)
	opts := launcher.DefaultOptions()
	opts.MachineName = *machineName
	opts.ArrayBytes = *size
	opts.OuterReps, opts.InnerReps = 2, 1
	opts.Metrics = tele.Metrics()

	run := func(name string, launch launcher.Options) (*campaign.Result, error) {
		copts := camp.Options(launch)
		copts.Observers = []campaign.Observer{tele.Tracker().Begin(name)}
		return campaign.RunFile(ctx, spec, core.GenerateOptions{}, copts)
	}

	clean, err := run(spec+" (fault-free)", opts)
	if err != nil {
		fail(fmt.Errorf("fault-free run: %w", err))
	}
	injector := chaos.Injector().SetCounter(tele.Registry().Counter("faults.injected"))
	faulted := opts
	faulted.Faults = injector
	chaotic, cerr := run(spec+" (chaotic)", faulted)
	if cerr != nil && !chaos.Permanent {
		fail(fmt.Errorf("chaotic run: %w", cerr))
	}

	fmt.Printf("chaos: seed %d rate %g burst %d class %s: %d faults injected at %d sites\n",
		chaos.Seed, chaos.Rate, chaos.Burst, map[bool]string{false: "transient", true: "permanent"}[chaos.Permanent],
		injector.Count(), len(injector.Injected()))
	fmt.Printf("chaos: %d variants, %d retries, %d quarantined, %d failed\n",
		chaotic.Emitted, chaotic.Retries, chaotic.Quarantined, chaotic.Failures)
	if *vFlag {
		for _, s := range injector.Injected() {
			fmt.Fprintf(os.Stderr, "  fault %s[%s] ×%d\n", s.Point, s.Key, s.Count)
		}
	}

	want := map[string]float64{}
	for _, m := range clean.Measurements() {
		want[m.Kernel] = m.Value
	}
	diverged := 0
	matched := 0
	for _, m := range chaotic.Measurements() {
		v, ok := want[m.Kernel]
		if !ok || v != m.Value {
			diverged++
			fmt.Fprintf(os.Stderr, "microtools: chaos: %s diverged: clean %v, chaotic %v\n", m.Kernel, v, m.Value)
			continue
		}
		matched++
	}
	switch {
	case diverged > 0:
		fail(fmt.Errorf("%d of %d surviving variants diverged from the fault-free run", diverged, matched+diverged))
	case !chaos.Permanent && chaotic.Failures > 0:
		fail(fmt.Errorf("%d variants failed despite transient faults and a retry budget of %d", chaotic.Failures, camp.Retries))
	default:
		fmt.Printf("chaos: %d surviving variants bit-identical to the fault-free run\n", matched)
	}
}

// runTop implements the top subcommand: one-shot snapshot of a running
// instance's telemetry. It fetches /debug/campaigns and prints a
// progress table (or the raw JSON with -json), and with -metrics also
// dumps the full Prometheus exposition. Exit status 1 means the
// instance was unreachable.
func runTop(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "localhost:9100", "telemetry address of the running instance (the value it was given as -telemetry-addr)")
		jsonOut = fs.Bool("json", false, "print the raw /debug/campaigns JSON instead of the table")
		metrics = fs.Bool("metrics", false, "also dump the /metrics Prometheus exposition")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: microtools top [-addr host:port] [-json] [-metrics]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microtools: top: %v\n", err)
		os.Exit(1)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return nil, err
		}
		rsp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer rsp.Body.Close()
		body, err := io.ReadAll(rsp.Body)
		if err != nil {
			return nil, err
		}
		if rsp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s%s: %s", base, path, rsp.Status)
		}
		return body, nil
	}

	body, err := get("/debug/campaigns")
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		os.Stdout.Write(body)
	} else {
		var page struct {
			Campaigns []telemetry.CampaignSnapshot `json:"campaigns"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			fail(fmt.Errorf("decoding /debug/campaigns: %w", err))
		}
		if len(page.Campaigns) == 0 {
			fmt.Println("no campaigns (running or recently finished)")
		} else {
			fmt.Printf("%-4s %-24s %12s %6s %6s %6s %6s %9s %9s %s\n",
				"ID", "NAME", "DONE/TOTAL", "CACHE%", "FAIL", "RETRY", "QUAR", "ELAPSED", "ETA", "STATE")
			for _, c := range page.Campaigns {
				total := fmt.Sprintf("%d", c.Emitted)
				if c.Generating {
					total += "+"
				}
				state := "running"
				switch {
				case c.Finished && c.Err != "":
					state = "failed: " + c.Err
				case c.Finished:
					state = "done"
				}
				name := c.Name
				if len(name) > 24 {
					name = name[:21] + "..."
				}
				fmt.Printf("%-4d %-24s %12s %5.1f%% %6d %6d %6d %9s %9s %s\n",
					c.ID, name, fmt.Sprintf("%d/%s", c.Done, total),
					100*c.CacheHitRatio, c.Failed, c.Retries, c.Quarantined,
					(time.Duration(c.ElapsedSeconds * float64(time.Second))).Round(time.Second),
					(time.Duration(c.ETASeconds * float64(time.Second))).Round(time.Second),
					state)
			}
		}
	}
	if *metrics {
		body, err := get("/metrics")
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(body)
	}
}

// runSubmit implements the submit subcommand: the remote drop-in for
// -study. It posts the XML kernel description to a running microserved
// instance over the api/v1 contract, follows the SSE progress stream,
// waits for the terminal state, and renders the same per-element ranking
// and report table the local -study flow prints — only where the
// campaign runs differs. Exit status 1 means the job failed or the
// server was unreachable past the transient-retry budget.
func runSubmit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "base URL of the microserved instance")
		tenant      = fs.String("tenant", "", "tenant for admission control (empty = the server's default tenant)")
		name        = fs.String("name", "", "job label in the service telemetry (empty = the server derives one)")
		machineName = fs.String("machine", "", "simulated machine for the remote campaign (empty = server default)")
		size        = fs.Int64("size", 0, "array bytes per variant (0 = server default)")
		seed        = fs.Int64("seed", 0, "deterministic generation seed")
		quick       = fs.Bool("quick", false, "reduced repetitions (outer 2, inner 1)")
		failFast    = fs.Bool("fail-fast", false, "stop the remote campaign on the first variant failure")
		retries     = fs.Int("submit-retries", 2, "client-side retries when submission fails transiently (429 over-quota, 503 draining, transport errors)")
		csvOut      = fs.String("csv", "", "write the result table to this file")
		vFlag       = fs.Bool("v", false, "per-variant progress and serving stats on stderr")

		report cliutil.Report
		camp   cliutil.Campaign
	)
	report.Register(fs, "encoding for the table written with -csv")
	camp.RegisterWorkers(fs, "the remote campaign")
	camp.RegisterResilience(fs)
	camp.RegisterAdaptive(fs, "the remote campaign")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: microtools submit [-addr URL] [-tenant NAME] [flags] spec.xml")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microtools: submit: %v\n", err)
		os.Exit(1)
	}
	reportFormat, err := report.Format()
	if err != nil {
		fail(err)
	}
	spec, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fail(err)
	}

	req := api.JobRequest{
		Tenant:            *tenant,
		Name:              *name,
		Spec:              string(spec),
		Seed:              *seed,
		Machine:           *machineName,
		ArrayBytes:        int(*size),
		Workers:           camp.Workers,
		FailFast:          *failFast,
		Retries:           camp.Retries,
		RetryBackoffMS:    camp.Backoff.Milliseconds(),
		VariantDeadlineMS: camp.Deadline.Milliseconds(),
		Quarantine:        camp.Quarantine,
	}
	if *quick {
		req.OuterReps, req.InnerReps = 2, 1
	}
	if p := camp.AdaptivePlan(); p != nil {
		req.Adaptive = &api.AdaptivePlan{
			MinReps:    p.MinReps,
			MaxReps:    p.MaxReps,
			TargetRCIW: p.TargetRCIW,
			StableRuns: p.StableRuns,
		}
	}

	client := &serviceclient.Client{Base: *addr, Retries: *retries}
	status, err := client.Submit(ctx, req)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "microtools: submit: job %s accepted (%s)\n", status.ID, status.Name)

	// Follow the event stream to the terminal state. The stream resumes
	// transparently across dropped connections, so progress lines never
	// repeat or skip variants.
	final := status
	err = client.Stream(ctx, status.ID, func(ev api.VariantEvent) error {
		final = ev.Status
		if *vFlag && ev.Type == api.EventProgress {
			p := ev.Status.Progress
			total := fmt.Sprintf("%d", p.Emitted)
			if p.Generating {
				total += "+"
			}
			fmt.Fprintf(os.Stderr, "microtools: submit: %d/%s variants (%d cached, %d failed)\n",
				p.Done, total, p.CacheHits, p.Failed)
		}
		return nil
	})
	if err != nil {
		fail(err)
	}
	res, err := client.Result(ctx, status.ID)
	if err != nil {
		fail(err)
	}
	if final.State != api.StateDone {
		if res.Job.Error != nil {
			fmt.Fprintf(os.Stderr, "microtools: submit: job %s %s: %v\n", status.ID, res.Job.State, res.Job.Error)
		} else {
			fmt.Fprintf(os.Stderr, "microtools: submit: job %s ended %s\n", status.ID, res.Job.State)
		}
		os.Exit(1)
	}
	if *vFlag && res.Serving != nil {
		s := res.Serving
		fmt.Fprintf(os.Stderr, "microtools: submit: serving: %d launches, %d cache hits (ratio %.2f), %d failures, %d retries\n",
			s.Launches, s.CacheHits, s.CacheHitRatio, s.Failures, s.Retries)
		if camp.Adaptive {
			fmt.Fprintf(os.Stderr, "microtools: submit: adaptive: %d reps executed, %d saved, %d topped up\n",
				s.RepsExecuted, s.RepsSaved, s.RepsTopUp)
		}
	}

	// Rebuild launcher measurements from the wire payload so the ranking
	// and report code is shared verbatim with the local -study path.
	var ms []*launcher.Measurement
	for _, vr := range res.Campaign.Variants {
		if vr.Error != "" {
			fmt.Fprintf(os.Stderr, "microtools: submit: variant %s failed: %s\n", vr.Name, vr.Error)
			continue
		}
		unit, uerr := launcher.ParseTimeUnit(vr.Unit)
		if uerr != nil {
			unit = launcher.UnitTSC
		}
		ms = append(ms, &launcher.Measurement{
			Kernel:          vr.Name,
			Value:           vr.Value,
			Unit:            unit,
			ValuePerElement: vr.ValuePerElement,
			Iterations:      uint64(vr.Iterations),
			StaticBound:     vr.StaticBoundValue,
			Stability: stats.Stability{
				N:    vr.Stability.N,
				Mean: vr.Stability.Mean,
				CV:   vr.Stability.CV,
				RCIW: vr.Stability.RCIW,
			},
		})
	}
	ranking := analysis.RankPerElement(ms)
	fmt.Print(ranking.Report())
	if *csvOut != "" {
		out, err := os.Create(*csvOut)
		if err != nil {
			fail(err)
		}
		defer out.Close()
		if err := launcher.WriteReport(out, reportFormat, ms); err != nil {
			fail(err)
		}
		fmt.Printf("%s: %s\n", reportFormat, *csvOut)
	}
}

func main() {
	// Ctrl-C / SIGTERM cancels the running campaign or experiment; a study
	// returns its partial results (and its cache keeps what was measured).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "vet":
			runVet(ctx, os.Args[2:])
			return
		case "analyze":
			runAnalyze(ctx, os.Args[2:])
			return
		case "chaos":
			runChaos(ctx, os.Args[2:])
			return
		case "top":
			runTop(ctx, os.Args[2:])
			return
		case "submit":
			runSubmit(ctx, os.Args[2:])
			return
		}
	}
	var (
		list    = flag.Bool("list", false, "list the available experiments")
		expID   = flag.String("experiment", "", "run one experiment by id (fig03..fig18, tab02, stability, ext-*)")
		all     = flag.Bool("all", false, "run every experiment")
		study   = flag.String("study", "", "XML kernel description: generate all variants, launch each, report the best (§7 workflow)")
		machine = flag.String("machine", "nehalem-dual/8", "machine for -study")
		size    = flag.Int64("size", 1<<14, "array bytes for -study")
		screen  = flag.Int("screen", 0, "pre-rank variants statically (dataflow bound, and memory throughput at the -size residency level) and measure only the top K (0 = measure all)")
		quick   = flag.Bool("quick", false, "reduced sweeps (shapes preserved)")
		csvOut  = flag.String("csv", "", "write the result table as CSV to this file")
		outDir  = flag.String("outdir", "results", "output directory for -all")
		plain   = flag.Bool("no-chart", false, "suppress the ASCII chart")
		vFlag   = flag.Bool("v", false, "progress on stderr")

		report   cliutil.Report
		counters cliutil.Counters
		camp     cliutil.Campaign
		trace    cliutil.Trace
		tele     cliutil.Telemetry
	)
	report.Register(flag.CommandLine, "encoding for the -study measurement table written with -csv")
	counters.Register(flag.CommandLine, "for every -study measurement")
	camp.Register(flag.CommandLine, "-study")
	camp.RegisterResilience(flag.CommandLine)
	camp.RegisterAdaptive(flag.CommandLine, "-study")
	trace.Register(flag.CommandLine, "the -study campaign (generation + every launch)")
	tele.Register(flag.CommandLine, "the run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "microtools: %v\n", err)
		os.Exit(1)
	}

	if addr, err := tele.Start(); err != nil {
		fail(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "microtools: telemetry: http://%s/\n", addr)
	}
	defer tele.Close()

	if *list {
		fmt.Println("Paper experiments (see DESIGN.md for the full index):")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
			fmt.Printf("  %10s machine: %s\n", "", e.Machine)
			fmt.Printf("  %10s paper:   %s\n", "", e.Paper)
		}
		return
	}

	cfg := experiments.Config{Quick: *quick}
	if *vFlag {
		cfg.Verbose = os.Stderr
	}

	runOne := func(e *experiments.Experiment, csvPath string) error {
		fmt.Printf("== %s: %s\n   machine: %s\n", e.ID, e.Title, e.Machine)
		tab, err := e.Run(ctx, cfg)
		if err != nil {
			return err
		}
		if !*plain {
			fmt.Println(tab.ASCII(64, 14))
		}
		if *vFlag {
			fmt.Print(analysis.StudyReport(tab))
		}
		if csvPath != "" {
			f, err := os.Create(csvPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := tab.WriteCSV(f); err != nil {
				return err
			}
			fmt.Printf("   csv: %s\n", csvPath)
		} else {
			fmt.Print(tab.CSVString())
		}
		return nil
	}

	switch {
	case *study != "":
		reportFormat, err := report.Format()
		if err != nil {
			fail(err)
		}
		tracer := trace.Tracer()
		opts := launcher.DefaultOptions()
		opts.MachineName = *machine
		opts.ArrayBytes = *size
		if *quick {
			opts.OuterReps, opts.InnerReps = 2, 1
		}
		opts.Tracer = tracer
		opts.CollectCounters = counters.Enabled
		opts.Metrics = tele.Metrics()
		cache, err := camp.OpenCache()
		if err != nil {
			fail(err)
		}
		if cache != nil {
			defer cache.Close()
		}
		copts := camp.Options(opts)
		copts.Cache = cache
		copts.Observers = []campaign.Observer{tele.Tracker().Begin(*study)}
		if *vFlag {
			copts.Observers = append(copts.Observers, cliutil.Progress(os.Stderr, "microtools"))
		}
		var res *campaign.Result
		if *screen > 0 {
			// Screening ranks the whole variant family, so it is
			// materialized first; the survivors then run through the
			// same campaign engine as an unscreened study.
			progs, err := core.GenerateFile(ctx, *study, core.GenerateOptions{Tracer: tracer})
			if err != nil {
				fail(err)
			}
			kept, err := core.ScreenTopK(ctx, progs, *machine, *size, int(opts.ElementBytes), *screen)
			if err != nil {
				fail(err)
			}
			fmt.Printf("static screening: %d of %d variants kept for measurement\n", len(kept), len(progs))
			res, err = campaign.RunPrograms(ctx, kept, copts)
		} else {
			res, err = campaign.RunFile(ctx, *study, core.GenerateOptions{Tracer: tracer}, copts)
		}
		partial := false
		if err != nil {
			// Partial results (a canceled or partly failed campaign) are
			// still reported below the error; the exit status stays
			// non-zero so scripts notice the incomplete sweep.
			fmt.Fprintf(os.Stderr, "microtools: %v\n", err)
			if len(res.Measurements()) == 0 {
				os.Exit(1)
			}
			partial = true
		}
		if *vFlag {
			fmt.Fprintf(os.Stderr, "microtools: campaign: %d variants, %d launches, %d cache hits, %d failures, %d retries, %d quarantined, %d key errors\n",
				res.Emitted, res.Launches, res.CacheHits, res.Failures, res.Retries, res.Quarantined, res.KeyErrors)
			if camp.Adaptive {
				fmt.Fprintf(os.Stderr, "microtools: adaptive: %d reps executed, %d saved, %d topped up, %d variants missed the RCIW target\n",
					res.RepsExecuted, res.RepsSaved, res.RepsTopUp, res.TargetMisses)
			}
		}
		ms := res.Measurements()
		ranking := analysis.RankPerElement(ms)
		fmt.Print(ranking.Report())
		if *csvOut != "" {
			out, err := os.Create(*csvOut)
			if err != nil {
				fail(err)
			}
			defer out.Close()
			if err := launcher.WriteReport(out, reportFormat, ms); err != nil {
				fail(err)
			}
			fmt.Printf("%s: %s\n", reportFormat, *csvOut)
		}
		if spans, err := trace.Flush(); err != nil {
			fail(err)
		} else if spans > 0 {
			fmt.Printf("trace: %s (%d spans)\n", trace.Path, spans)
		}
		if partial {
			os.Exit(1)
		}
	case *expID != "":
		e, err := experiments.ByID(*expID)
		if err != nil {
			fail(err)
		}
		if err := runOne(e, *csvOut); err != nil {
			fail(err)
		}
	case *all:
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
		for _, e := range experiments.All() {
			path := filepath.Join(*outDir, e.ID+".csv")
			if err := runOne(e, path); err != nil {
				fail(fmt.Errorf("%s: %w", e.ID, err))
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "microtools: pass -list, -experiment <id> or -all (see -h)")
		os.Exit(2)
	}
}
