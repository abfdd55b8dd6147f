// Package cliutil factors the flag plumbing the microtools commands
// share: span-trace output (-trace), simulated-PMU counter collection
// (-counters), report encoding (-report) and the campaign knobs
// (-workers, -cache, -fail-fast, plus the resilience budget flags).
//
// Each helper is a tiny struct: Register installs its flags on a FlagSet
// (the global flag.CommandLine or a subcommand's own set), and the
// accessor methods turn the parsed values into the library objects the
// command threads into options. Commands keep full control of their
// usage strings and error handling; cliutil only removes the copy-pasted
// create/validate/flush boilerplate.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"microtools/internal/campaign"
	"microtools/internal/faults"
	"microtools/internal/launcher"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// Trace wires the shared -trace flag: an optional span-trace output file
// whose extension selects the encoding.
type Trace struct {
	// Path is the parsed -trace value ("" = tracing off).
	Path   string
	tracer *obs.Tracer
}

// Register installs -trace on fs. what names the traced activity in the
// flag's help text (e.g. "the launch protocol").
func (t *Trace) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&t.Path, "trace", "",
		"write a span trace of "+what+" to this file (.json = Chrome trace_event for chrome://tracing, .jsonl = one span per line)")
}

// Tracer returns the tracer to thread through options — created on first
// call — or nil when -trace is unset (the zero-overhead off state).
func (t *Trace) Tracer() *obs.Tracer {
	if t.Path != "" && t.tracer == nil {
		t.tracer = obs.New()
	}
	return t.tracer
}

// Flush writes the collected spans to the -trace file and returns the
// span count; it is a no-op returning 0 when tracing is off.
func (t *Trace) Flush() (int, error) {
	if t.tracer == nil {
		return 0, nil
	}
	f, err := os.Create(t.Path)
	if err != nil {
		return 0, err
	}
	if err := t.tracer.WriteFileFormat(f, t.Path); err != nil {
		f.Close()
		return 0, fmt.Errorf("cliutil: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(t.tracer.Records()), nil
}

// Counters wires the shared -counters flag.
type Counters struct {
	// Enabled is the parsed -counters value.
	Enabled bool
}

// Register installs -counters on fs. what completes the help sentence
// (e.g. "for every -study measurement").
func (c *Counters) Register(fs *flag.FlagSet, what string) {
	fs.BoolVar(&c.Enabled, "counters", false,
		"collect simulated-PMU counters "+what)
}

// Report wires the shared -report flag selecting the measurement-table
// encoding.
type Report struct {
	// Name is the parsed -report value.
	Name string
}

// Register installs -report on fs. what completes the help sentence.
func (r *Report) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&r.Name, "report", "csv", what+": csv|json")
}

// Format parses the selected encoding.
func (r *Report) Format() (launcher.ReportFormat, error) {
	return launcher.ParseReportFormat(r.Name)
}

// Campaign wires the campaign-engine flags shared by commands that run
// measurement sweeps: -workers, -cache, -fail-fast and the resilience
// budgets (-retries, -retry-backoff, -deadline, -quarantine, plus the
// chaos seed knobs consumed by `microtools chaos`).
type Campaign struct {
	// Workers is the parsed -workers value.
	Workers int
	// CachePath is the parsed -cache value ("" = no cache).
	CachePath string
	// FailFast is the parsed -fail-fast value.
	FailFast bool
	// Retries, Backoff, Deadline and Quarantine are the parsed resilience
	// budgets (see campaign.Options).
	Retries    int
	Backoff    time.Duration
	Deadline   time.Duration
	Quarantine int
	// RetrySeed drives the deterministic backoff jitter.
	RetrySeed int64
	// Adaptive arms the μOpTime-style adaptive repetition planner; the
	// remaining fields are the parsed plan knobs (see launcher.Plan).
	Adaptive       bool
	AdaptiveRCIW   float64
	AdaptiveMin    int
	AdaptiveMax    int
	AdaptiveStable int
}

// Register installs -workers, -cache and -fail-fast on fs. what names the
// sweep in the help text (e.g. "-study").
func (c *Campaign) Register(fs *flag.FlagSet, what string) {
	c.RegisterWorkers(fs, what)
	fs.StringVar(&c.CachePath, "cache", "",
		"content-addressed measurement cache (JSONL) for "+what+": hits skip the launch, so an interrupted sweep resumes where it stopped")
	fs.BoolVar(&c.FailFast, "fail-fast", false,
		"stop the "+what+" campaign on the first variant failure instead of isolating it")
}

// RegisterWorkers installs only -workers on fs, for commands that fan out
// launches without the rest of the campaign surface.
func (c *Campaign) RegisterWorkers(fs *flag.FlagSet, what string) {
	fs.IntVar(&c.Workers, "workers", 0,
		"launch pool size for "+what+" (0 = GOMAXPROCS); results are bit-identical to a serial run")
}

// RegisterAdaptive installs the adaptive measurement-planner flags on fs.
// what names the sweep in the help text (e.g. "-study").
func (c *Campaign) RegisterAdaptive(fs *flag.FlagSet, what string) {
	fs.BoolVar(&c.Adaptive, "adaptive", false,
		"adaptively size the outer-rep budget per variant in "+what+": stop early once the statistic is stable, then top up unstable variants from the saved budget")
	fs.Float64Var(&c.AdaptiveRCIW, "adaptive-rciw", 0.05,
		"adaptive stop target: relative 95% confidence-interval width of the mean (mean/median statistics)")
	fs.IntVar(&c.AdaptiveMin, "adaptive-min", 2,
		"adaptive floor: never stop before this many outer reps (clamped to >= 2)")
	fs.IntVar(&c.AdaptiveMax, "adaptive-max", 0,
		"adaptive ceiling on outer reps per variant (0 = the fixed -outer budget)")
	fs.IntVar(&c.AdaptiveStable, "adaptive-stable", 1,
		"adaptive stop for min/max statistics: reps without improvement before the value counts as stable")
}

// AdaptivePlan returns the plan described by the adaptive flags, or nil
// when -adaptive is unset (the fixed-budget protocol, byte-identical to
// builds without the planner).
func (c *Campaign) AdaptivePlan() *launcher.Plan {
	if !c.Adaptive {
		return nil
	}
	return &launcher.Plan{
		MinReps:    c.AdaptiveMin,
		MaxReps:    c.AdaptiveMax,
		TargetRCIW: c.AdaptiveRCIW,
		StableRuns: c.AdaptiveStable,
	}
}

// RegisterResilience installs the retry/deadline/quarantine budget flags
// on fs.
func (c *Campaign) RegisterResilience(fs *flag.FlagSet) {
	fs.IntVar(&c.Retries, "retries", 0,
		"re-attempt a variant up to N extra times when its failure is transient (deterministic seeded backoff; 0 = single attempt)")
	fs.DurationVar(&c.Backoff, "retry-backoff", 0,
		"base delay before the first retry, doubling per attempt with deterministic jitter (0 = retry immediately)")
	fs.DurationVar(&c.Deadline, "deadline", 0,
		"per-variant wall-clock budget covering all attempts (0 = unbounded); an expired deadline fails the variant, not the campaign")
	fs.IntVar(&c.Quarantine, "quarantine", 0,
		"withdraw a variant after N consecutive failed attempts even with retry budget left (0 = off)")
	fs.Int64Var(&c.RetrySeed, "retry-seed", 0, "seed for the deterministic retry backoff jitter")
}

// OpenCache opens the -cache store, or returns nil when the flag is
// unset. The caller owns the returned cache and must Close it.
func (c *Campaign) OpenCache() (*campaign.Cache, error) {
	if c.CachePath == "" {
		return nil, nil
	}
	return campaign.OpenCache(c.CachePath)
}

// Options assembles a campaign.Options from the parsed flags. launch is
// the measurement configuration, hooks included; the -adaptive plan, when
// set, is armed on it. The cache and observers are left to the caller,
// which sets them on the returned value.
func (c *Campaign) Options(launch launcher.Options) campaign.Options {
	if p := c.AdaptivePlan(); p != nil {
		launch.Adaptive = p
	}
	return campaign.Options{
		Launch:          launch,
		Workers:         c.Workers,
		FailFast:        c.FailFast,
		VariantDeadline: c.Deadline,
		Quarantine:      c.Quarantine,
		Retry: campaign.RetryPolicy{
			MaxAttempts: c.Retries + 1,
			Backoff:     c.Backoff,
			Seed:        c.RetrySeed,
		},
	}
}

// Progress returns a campaign observer that logs one line per update on
// w — one per finished variant, then the settled totals — prefixed with
// the command name: done/total (marked "+" while the generator is still
// emitting), cache hits, failures, elapsed time and an ETA extrapolated
// from the elapsed measurement time — a lower bound while the total is
// still growing.
func Progress(w io.Writer, prefix string) campaign.Observer {
	started := telemetry.Now()
	return campaign.UpdateFunc(func(p telemetry.CampaignUpdate) {
		elapsed := telemetry.Now().Sub(started)
		var eta time.Duration
		if p.Done > 0 {
			eta = time.Duration(float64(elapsed) / float64(p.Done) * float64(p.Emitted-p.Done)).Round(time.Second)
		}
		total := fmt.Sprintf("%d", p.Emitted)
		if p.Generating {
			total += "+"
		}
		fmt.Fprintf(w, "%s: %d/%s variants (%d cached, %d failed), elapsed %s, eta %s\n",
			prefix, p.Done, total, p.CacheHits, p.Failed, elapsed.Round(time.Second), eta)
	})
}

// Telemetry wires the live-telemetry flags shared by every command:
// -telemetry-addr starts the embedded HTTP server (/metrics,
// /debug/campaigns, /events) and -pprof additionally mounts
// net/http/pprof on the same listener. The accessor methods hand out the
// registry-backed handles to thread into options; all of them return nil
// when -telemetry-addr is unset, which downstream code treats as
// telemetry-off.
type Telemetry struct {
	// Addr is the parsed -telemetry-addr value ("" = telemetry off).
	Addr string
	// Pprof is the parsed -pprof value.
	Pprof bool

	registry *telemetry.Registry
	metrics  *telemetry.Metrics
	tracker  *telemetry.Tracker
	server   *telemetry.Server
}

// Register installs -telemetry-addr and -pprof on fs. what names the
// instrumented activity in the help text (e.g. "the -study sweep").
func (t *Telemetry) Register(fs *flag.FlagSet, what string) {
	fs.StringVar(&t.Addr, "telemetry-addr", "",
		"serve live telemetry for "+what+" on this address (host:port; :0 picks a free port): /metrics (Prometheus text), /debug/campaigns (JSON), /events (SSE)")
	fs.BoolVar(&t.Pprof, "pprof", false,
		"also mount net/http/pprof on the -telemetry-addr listener (off by default)")
}

// Enabled reports whether -telemetry-addr was set.
func (t *Telemetry) Enabled() bool { return t.Addr != "" }

// ensure lazily builds the registry, metrics and tracker once enabled.
func (t *Telemetry) ensure() {
	if !t.Enabled() || t.registry != nil {
		return
	}
	t.registry = telemetry.NewRegistry()
	t.metrics = telemetry.NewMetrics(t.registry)
	t.tracker = telemetry.NewTracker()
}

// Registry returns the live registry, or nil when telemetry is off.
func (t *Telemetry) Registry() *telemetry.Registry {
	t.ensure()
	return t.registry
}

// Metrics returns the instrument handles to thread into launcher and
// campaign options, or nil when telemetry is off.
func (t *Telemetry) Metrics() *telemetry.Metrics {
	t.ensure()
	return t.metrics
}

// Tracker returns the campaign progress tracker, or nil when telemetry
// is off.
func (t *Telemetry) Tracker() *telemetry.Tracker {
	t.ensure()
	return t.tracker
}

// Start brings the HTTP server up on -telemetry-addr and returns the
// bound address (useful with :0). When telemetry is off it returns ""
// and does nothing.
func (t *Telemetry) Start() (string, error) {
	if !t.Enabled() {
		return "", nil
	}
	t.ensure()
	t.server = telemetry.NewServer(telemetry.ServerOptions{
		Registry:    t.registry,
		Tracker:     t.tracker,
		EnablePprof: t.Pprof,
	})
	addr, err := t.server.Start(t.Addr)
	if err != nil {
		t.server = nil
		return "", err
	}
	return addr, nil
}

// Close stops the server (no-op when never started).
func (t *Telemetry) Close() error {
	if t.server == nil {
		return nil
	}
	err := t.server.Close()
	t.server = nil
	return err
}

// Chaos wires the fault-plan flags of `microtools chaos`: seed, per-point
// rates, burst and class.
type Chaos struct {
	// Seed drives the deterministic fault plan.
	Seed int64
	// Rate is the fault probability armed at every built-in point.
	Rate float64
	// Burst is how many consecutive checks of a transient faulty site
	// fail before it heals.
	Burst int
	// Permanent selects permanent (never-healing) faults.
	Permanent bool
}

// Register installs the chaos flags on fs.
func (c *Chaos) Register(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "fault-seed", 1, "seed of the deterministic fault plan (same seed ⇒ same injected-fault set)")
	fs.Float64Var(&c.Rate, "fault-rate", 0.2, "fault probability in [0,1] armed at every injection point")
	fs.IntVar(&c.Burst, "fault-burst", 1, "consecutive failures a transient faulty site injects before healing")
	fs.BoolVar(&c.Permanent, "fault-permanent", false, "inject permanent (never-healing) faults instead of transient ones")
}

// Injector builds the armed fault injector described by the flags.
func (c *Chaos) Injector() *faults.Injector {
	in := faults.New(c.Seed).SetRate("*", c.Rate).SetBurst(c.Burst)
	if c.Permanent {
		in.SetClass(faults.ClassPermanent)
	}
	return in
}
