// Package microtools is a Go reproduction of "MicroTools: Automating
// Program Generation and Performance Measurement" (Beyler et al., ICPP
// 2012): MicroCreator, an XML-driven microbenchmark generator built as a
// nineteen-pass source-to-source compiler with a plugin system, and
// MicroLauncher, a benchmark runner that executes kernels in a stable,
// controlled environment and reports cycles per iteration.
//
// Because the paper measures real Nehalem/Sandy Bridge machines with
// rdtsc, the execution substrate here is a deterministic
// micro-architectural simulator (out-of-order cores, cache hierarchy with
// MSHRs/banks/prefetch, per-socket memory controllers with channel and
// DRAM-row modelling, core/uncore clock domains); see DESIGN.md for the
// substitution rationale and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	progs, err := microtools.Generate(strings.NewReader(xmlSpec), microtools.GenerateOptions{})
//	...
//	kernel, err := progs[0].Lowered() // decoded directly from the IR; progs[0].Assembly() renders text on demand
//	m, err := microtools.Launch(kernel, microtools.DefaultLaunchOptions())
//	fmt.Printf("%s: %.2f cycles/iteration\n", m.Kernel, m.Value)
//
// The paper's evaluation figures regenerate through Experiments / RunExperiment
// and through the benchmarks in bench_test.go.
package microtools

import (
	"context"
	"io"

	"microtools/internal/analysis"
	"microtools/internal/campaign"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/experiments"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/obs"
	"microtools/internal/passes"
	"microtools/internal/plugin"
	"microtools/internal/power"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
	"microtools/internal/verify"
)

// Re-exported types of the public surface.
type (
	// GenerateOptions configures MicroCreator (seed, output formats,
	// plugins).
	GenerateOptions = core.GenerateOptions
	// Program is one generated benchmark program (assembly and/or C).
	Program = codegen.Program
	// Kernel is a decoded, executable kernel program.
	Kernel = isa.Program
	// LaunchOptions is MicroLauncher's 30+ option surface.
	LaunchOptions = launcher.Options
	// LaunchOption is one functional setter for NewLaunchOptions; see the
	// With* family below.
	LaunchOption = launcher.Option
	// Measurement is one launcher result row.
	Measurement = launcher.Measurement
	// Experiment is one paper figure/table reproduction.
	Experiment = experiments.Experiment
	// ExperimentConfig tunes experiment execution.
	ExperimentConfig = experiments.Config
	// Table is an experiment result (CSV / ASCII renderable).
	Table = stats.Table
	// PassManager is MicroCreator's pass pipeline, exposed for plugins.
	PassManager = passes.Manager
	// Pass is one pipeline stage.
	Pass = passes.Pass
	// Plugin is the pluginInit-style extension interface.
	Plugin = plugin.Plugin
	// PluginFunc adapts a function to Plugin.
	PluginFunc = plugin.Func
	// Machine describes one of the paper's Table 1 platforms.
	Machine = machine.Machine
	// EnergyEstimate is the §7 power-model result attached to measurements
	// when LaunchOptions.ReportEnergy is set.
	EnergyEstimate = power.Estimate
	// Ranking is a best-first ordering of measurements.
	Ranking = analysis.Ranking
	// Tracer records hierarchical spans over generation and launch when set
	// on GenerateOptions.Tracer / LaunchOptions.Tracer (nil = zero-overhead
	// off). Export with its WriteChromeTrace / WriteJSONL methods.
	Tracer = obs.Tracer
	// Span is one tracer region; the zero Span is a no-op.
	Span = obs.Span
	// Counters is the simulated-PMU snapshot attached to Measurement when
	// LaunchOptions.CollectCounters is set: memory-hierarchy stats plus
	// pipeline counters, captured as a measured-region delta.
	Counters = obs.Counters
	// ReportFormat selects csv or json measurement encoding for
	// WriteMeasurements.
	ReportFormat = launcher.ReportFormat
	// Diagnostic is one static-verifier finding (rule, severity, kernel,
	// instruction index, message); Diagnostics is the report of a run.
	Diagnostic  = verify.Diagnostic
	Diagnostics = verify.Diagnostics
	// VerifyMode selects how generation treats verifier findings (see the
	// VerifyEnforce/VerifyCollect/VerifyOff constants).
	VerifyMode = verify.Mode
	// CampaignOptions configures RunCampaign (workers, buffering, fail-fast,
	// cache, observers, tracing).
	CampaignOptions = campaign.Options
	// CampaignOption is one functional setter for NewCampaignOptions; see
	// the WithCampaign* family below.
	CampaignOption = campaign.Option
	// CampaignResult is a campaign's per-variant results plus aggregate
	// counts (emitted, launches, cache hits, failures).
	CampaignResult = campaign.Result
	// CampaignObserver receives a campaign's event stream: one
	// CampaignUpdate per finished variant, the settled totals, then End.
	CampaignObserver = campaign.Observer
	// CampaignUpdate is one event of that stream (done/emitted, cache
	// hits, failures, launches, retries).
	CampaignUpdate = telemetry.CampaignUpdate
	// MeasurementCache is the content-addressed measurement store used for
	// campaign checkpoint/resume.
	MeasurementCache = campaign.Cache
	// AdaptivePlan configures the μOpTime-style adaptive repetition planner
	// (per-variant early stop plus campaign top-up); arm it with
	// WithAdaptive / WithCampaignAdaptive.
	AdaptivePlan = launcher.Plan
	// AdaptiveOutcome records the realized plan of one adaptive measurement
	// (reps run, achieved RCIW, stop reason) on Measurement.Adaptive.
	AdaptiveOutcome = launcher.AdaptiveOutcome

	// --- error taxonomy ---------------------------------------------------
	//
	// Every structured error below composes with the standard errors
	// package: errors.As recovers the typed record from a wrapped chain,
	// and the Err*Fault sentinels match through errors.Is.

	// CampaignError aggregates every per-variant failure of a Run /
	// RunCampaign: callers receive the partial results plus one error
	// naming each failed variant (Unwrap exposes the *VariantError
	// records, so errors.Is/As see through the aggregation).
	CampaignError = campaign.Error
	// CampaignSetupError reports a campaign that never measured anything:
	// the description failed to open or to generate. errors.As recovers
	// the stage ("open", "generate") and, for file campaigns, the path;
	// Unwrap exposes the cause.
	CampaignSetupError = campaign.SetupError
	// VariantError records one variant's launch failure (index, kernel
	// name, cause) inside a campaign.
	VariantError = campaign.VariantError
	// FaultError is one classified fault: either injected by a
	// FaultInjector or a real error wrapped via TransientFault /
	// PermanentFault. errors.As(err, &fe) recovers the injection point,
	// site key and class.
	FaultError = faults.Error
	// FaultClass is a fault's retry semantics (FaultTransient /
	// FaultPermanent).
	FaultClass = faults.Class
	// FaultInjector is the deterministic, seed-driven fault-injection
	// registry armed via CampaignOptions.Faults (or directly on
	// LaunchOptions.Faults); see NewFaultInjector.
	FaultInjector = faults.Injector
	// FaultSite is one (point, key) site an injector actually fired at.
	FaultSite = faults.Site
	// RetryPolicy bounds how a campaign re-attempts transiently failed
	// variants (CampaignOptions.Retry): attempt budget plus deterministic
	// seeded backoff.
	RetryPolicy = campaign.RetryPolicy
)

// Verification modes for GenerateOptions.Verify.
const (
	// VerifyEnforce (the default) fails generation on error-severity
	// verifier diagnostics.
	VerifyEnforce = verify.ModeEnforce
	// VerifyCollect records diagnostics without failing generation.
	VerifyCollect = verify.ModeCollect
	// VerifyOff disables the verify-variants pass.
	VerifyOff = verify.ModeOff
)

// Report formats accepted by WriteMeasurements.
const (
	ReportCSV  = launcher.ReportCSV
	ReportJSON = launcher.ReportJSON
)

// Fault classes for FaultInjector.SetClass and FaultError.Class.
const (
	// FaultTransient faults heal after the injector's burst budget; the
	// campaign retry policy re-attempts them.
	FaultTransient = faults.ClassTransient
	// FaultPermanent faults never heal; retrying is futile and skipped.
	FaultPermanent = faults.ClassPermanent
)

// Sentinel errors of the fault taxonomy, matched via errors.Is anywhere in
// a wrapped chain:
//
//	errors.Is(err, microtools.ErrFaultInjected)  // injector-produced
//	errors.Is(err, microtools.ErrFaultTransient) // retry may succeed
//	errors.Is(err, microtools.ErrFaultPermanent) // retry is futile
var (
	ErrFaultInjected  = faults.ErrInjected
	ErrFaultTransient = faults.ErrTransient
	ErrFaultPermanent = faults.ErrPermanent
)

// ErrNoVariants is returned by Run / RunCampaign when the description
// parsed and generated cleanly but produced zero variants — usually a
// filter or custom pass dropping every kernel. Match with errors.Is.
var ErrNoVariants = campaign.ErrNoVariants

// NewFaultInjector returns a deterministic fault injector: whether a given
// (point, key) site faults is a pure function of the seed, so the injected
// fault set of a campaign is reproducible regardless of worker count. Arm
// points with SetRate (the point "*" arms all; see FaultPoints) and attach
// via CampaignOptions.Faults.
func NewFaultInjector(seed int64) *FaultInjector { return faults.New(seed) }

// FaultPoints lists the built-in injection points in execution-stack
// order: campaign worker launch, measurement-cache get/put/checkpoint I/O,
// launcher repetition boundaries and simulator stepping.
func FaultPoints() []string { return faults.Points() }

// TransientFault wraps a real error as a transient fault: errors.Is(err,
// ErrFaultTransient) holds and the campaign retry policy re-attempts it.
func TransientFault(err error) error { return faults.Transient(err) }

// PermanentFault wraps a real error as a permanent fault: retry is
// skipped.
func PermanentFault(err error) error { return faults.Permanent(err) }

// IsTransientFault reports whether err is classified transient — the
// campaign retry gate. Unclassified errors are not transient.
func IsTransientFault(err error) bool { return faults.IsTransient(err) }

// IsPermanentFault reports whether err is classified permanent.
func IsPermanentFault(err error) bool { return faults.IsPermanent(err) }

// NewTracer returns an enabled span tracer.
func NewTracer() *Tracer { return obs.New() }

// Generate runs MicroCreator over an XML kernel description (§3). The
// context cancels generation between passes and between variants.
func Generate(ctx context.Context, r io.Reader, opts GenerateOptions) ([]Program, error) {
	return core.Generate(ctx, r, opts)
}

// GenerateString is Generate over a string.
func GenerateString(ctx context.Context, xml string, opts GenerateOptions) ([]Program, error) {
	return core.GenerateString(ctx, xml, opts)
}

// GenerateFile is Generate over a file.
func GenerateFile(ctx context.Context, path string, opts GenerateOptions) ([]Program, error) {
	return core.GenerateFile(ctx, path, opts)
}

// Vet runs MicroCreator in collect-only verification mode: the full pipeline
// executes and the static verifier's findings come back as diagnostics
// instead of failing generation (the CLI's `microtools vet`).
func Vet(ctx context.Context, r io.Reader, opts GenerateOptions) (Diagnostics, []Program, error) {
	return core.Vet(ctx, r, opts)
}

// VetFile is Vet over a file.
func VetFile(ctx context.Context, path string, opts GenerateOptions) (Diagnostics, []Program, error) {
	return core.VetFile(ctx, path, opts)
}

// LoadKernel parses assembly and selects the kernel function (§4.1).
func LoadKernel(src, functionName string) (*Kernel, error) {
	return core.LoadKernel(src, functionName)
}

// LoadKernelFile is LoadKernel over a file.
func LoadKernelFile(path, functionName string) (*Kernel, error) {
	return core.LoadKernelFile(path, functionName)
}

// Launch measures a kernel with MicroLauncher (§4). The context cancels
// the measurement between repetitions.
func Launch(ctx context.Context, prog *Kernel, opts LaunchOptions) (*Measurement, error) {
	return core.Launch(ctx, prog, opts)
}

// Run chains the tools end to end: generate every variant, launch each,
// and return the successful measurements in generation order. It is a thin
// wrapper over RunCampaign with default options — every campaign feature
// (an explicit worker count, caching, retry/deadline budgets, fault
// injection) is reachable by calling RunCampaign directly. Run already
// fans launches out over GOMAXPROCS workers, and results are bit-identical
// to a serial run because every variant executes on its own simulated
// machine.
//
// Failed variants are isolated, not fatal: the partial measurement set is
// returned together with a *CampaignError aggregating every failure
// (errors.As recovers the per-variant *VariantError records).
func Run(ctx context.Context, xml io.Reader, gen GenerateOptions, launch LaunchOptions) ([]*Measurement, error) {
	res, err := campaign.Run(ctx, xml, gen, campaign.Options{Launch: launch})
	return res.Measurements(), err
}

// RunCampaign streams generated variants straight into a cancellable,
// fault-isolated, optionally cached measurement campaign (the engine behind
// `microtools run`); see CampaignOptions and the DESIGN.md "Campaign
// engine" section.
func RunCampaign(ctx context.Context, xml io.Reader, gen GenerateOptions, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(ctx, xml, gen, opts)
}

// OpenMeasurementCache opens (creating if needed) a JSONL-backed
// content-addressed measurement cache for CampaignOptions.Cache; an
// interrupted campaign resumes from it.
func OpenMeasurementCache(path string) (*MeasurementCache, error) {
	return campaign.OpenCache(path)
}

// DefaultLaunchOptions returns the paper-faithful launcher defaults.
func DefaultLaunchOptions() LaunchOptions { return launcher.DefaultOptions() }

// NewLaunchOptions builds a LaunchOptions from the paper-faithful defaults
// with the given setters applied, in order — the constructor form of
// DefaultLaunchOptions for callers that would otherwise hand-mutate fields:
//
//	opts := microtools.NewLaunchOptions(
//		microtools.WithMachine("nehalem-dual/8"),
//		microtools.WithArrayBytes(2<<10),
//	)
//
// Nil setters are skipped, so options can be assembled conditionally. The
// LaunchOptions struct stays exported; both styles remain supported.
func NewLaunchOptions(setters ...LaunchOption) LaunchOptions { return launcher.NewOptions(setters...) }

// Functional setters for NewLaunchOptions, re-exported from the launcher
// package and grouped as its Options sections are.
var (
	// Input selection.
	WithFunction = launcher.WithFunction
	// Machine / environment.
	WithMode           = launcher.WithMode
	WithMachine        = launcher.WithMachine
	WithCoreFrequency  = launcher.WithCoreFrequency
	WithPinCore        = launcher.WithPinCore
	WithCores          = launcher.WithCores
	WithSpreadSockets  = launcher.WithSpreadSockets
	WithInterruptNoise = launcher.WithInterruptNoise
	// Data arrays.
	WithVectors     = launcher.WithVectors
	WithArrayBytes  = launcher.WithArrayBytes
	WithAlignments  = launcher.WithAlignments
	WithAlignWindow = launcher.WithAlignWindow
	// Measurement protocol.
	WithTrip             = launcher.WithTrip
	WithExactTrip        = launcher.WithExactTrip
	WithElementBytes     = launcher.WithElementBytes
	WithReps             = launcher.WithReps
	WithWarmup           = launcher.WithWarmup
	WithCalibration      = launcher.WithCalibration
	WithStatistic        = launcher.WithStatistic
	WithMaxInstructions  = launcher.WithMaxInstructions
	WithOMPOverheadScale = launcher.WithOMPOverheadScale
	WithOMPDynamic       = launcher.WithOMPDynamic
	WithAdaptive         = launcher.WithAdaptive
	WithAdaptiveTarget   = launcher.WithAdaptiveTarget
	// Output / observability.
	WithTimeUnit  = launcher.WithTimeUnit
	WithEnergy    = launcher.WithEnergy
	WithWholeCall = launcher.WithWholeCall
	WithVerbose   = launcher.WithVerbose
	WithTracer    = launcher.WithTracer
	WithCounters  = launcher.WithCounters
	// Resilience.
	WithFaults = launcher.WithFaults
)

// NewCampaignOptions builds a CampaignOptions from the zero value (the
// campaign default: GOMAXPROCS workers, 2×workers buffering, no cache,
// single attempt per variant) with the given setters applied, in order —
// the constructor form of a CampaignOptions literal, mirroring
// NewLaunchOptions:
//
//	opts := microtools.NewCampaignOptions(
//		microtools.WithCampaignLaunch(launch),
//		microtools.WithCampaignCache(cache),
//	)
//
// Nil setters are skipped, so options can be assembled conditionally. The
// CampaignOptions struct stays exported; both styles remain supported.
func NewCampaignOptions(setters ...CampaignOption) CampaignOptions {
	return campaign.NewOptions(setters...)
}

// Functional setters for NewCampaignOptions, re-exported from the campaign
// engine under a Campaign prefix (the unprefixed With* names belong to the
// launcher option family above). Setters whose argument types are not
// constructible through the facade (live-telemetry handles) are reachable
// via the CampaignOptions struct fields instead.
var (
	// Execution.
	WithCampaignLaunch   = campaign.WithLaunch
	WithCampaignAdaptive = campaign.WithAdaptive
	WithCampaignWorkers  = campaign.WithWorkers
	WithCampaignBuffer   = campaign.WithBuffer
	WithCampaignFailFast = campaign.WithFailFast
	WithCampaignCache    = campaign.WithCache
	// Observability.
	WithCampaignObservers = campaign.WithObservers
	WithCampaignTracer    = campaign.WithTracer
	// Resilience.
	WithCampaignVariantDeadline = campaign.WithVariantDeadline
	WithCampaignRetryPolicy     = campaign.WithRetryPolicy
	WithCampaignQuarantine      = campaign.WithQuarantine
	WithCampaignFaults          = campaign.WithFaults
	WithCampaignCheckBounds     = campaign.WithCheckBounds
)

// WriteMeasurementsCSV renders measurements as the launcher's CSV output
// (§4.3).
func WriteMeasurementsCSV(w io.Writer, ms []*Measurement) error {
	return launcher.WriteCSV(w, ms)
}

// WriteMeasurements renders measurements in the chosen format: ReportCSV for
// the paper's table, ReportJSON for the structured report with full summary
// statistics, simulated-PMU counters and derived metrics.
func WriteMeasurements(w io.Writer, format ReportFormat, ms []*Measurement) error {
	return launcher.WriteReport(w, format, ms)
}

// Experiments lists the paper's figure/table reproductions in paper order.
func Experiments() []*Experiment { return experiments.All() }

// RunExperiment regenerates one paper figure/table by id ("fig03" ...
// "fig18", "tab02", "stability").
func RunExperiment(ctx context.Context, id string, cfg ExperimentConfig) (*Table, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, cfg)
}

// RegisterPlugin registers a MicroCreator plugin (§3.3).
func RegisterPlugin(p Plugin) error { return plugin.Register(p) }

// Machines returns the available Table 1 machine model names.
func Machines() []string { return machine.Names() }

// MachineByName resolves a machine model, optionally scaled ("nehalem-dual/8").
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// RankMeasurements orders a variant family best-first by per-element cost
// (falling back to per-iteration cost), the §7 automated-analysis step.
func RankMeasurements(ms []*Measurement) Ranking { return analysis.RankPerElement(ms) }

// AnalyzeTable renders the automated analysis of an experiment table:
// plateaus, cutting points, and speedups (§7 data-mining).
func AnalyzeTable(t *Table) string { return analysis.StudyReport(t) }
