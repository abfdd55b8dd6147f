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
// Quick start: Example (example_test.go) generates a kernel family with
// GenerateString, lowers one variant with Program.Lowered and measures it
// with Launch; it runs under go test, so it stays compilable.
//
// The paper's evaluation figures regenerate through RunExperiment and
// through the benchmarks in bench_test.go.
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
	"microtools/internal/passes"
	"microtools/internal/plugin"
	"microtools/internal/stats"
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
	// Measurement is one launcher result row.
	Measurement = launcher.Measurement
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
	// Ranking is a best-first ordering of measurements.
	Ranking = analysis.Ranking
	// Diagnostics is the report of a static-verifier run: its findings,
	// each with rule, severity, kernel, instruction index and message.
	Diagnostics = verify.Diagnostics
	// VerifyMode selects how generation treats verifier findings (see the
	// VerifyEnforce/VerifyCollect/VerifyOff constants).
	VerifyMode = verify.Mode
	// CampaignOptions configures RunCampaign (launch options, workers,
	// fail-fast, cache, observers, resilience); tracing, metrics, fault
	// injection and the adaptive plan are hooks on its LaunchOptions.
	CampaignOptions = campaign.Options
	// CampaignResult is a campaign's per-variant results plus aggregate
	// counts (emitted, launches, cache hits, failures).
	CampaignResult = campaign.Result
	// MeasurementCache is the content-addressed measurement store used for
	// campaign checkpoint/resume.
	MeasurementCache = campaign.Cache
	// AdaptivePlan configures the μOpTime-style adaptive repetition planner
	// (per-variant early stop plus campaign top-up); arm it through
	// LaunchOptions.Adaptive (CampaignOptions.Launch for a campaign).
	AdaptivePlan = launcher.Plan

	// --- error taxonomy ---------------------------------------------------
	//
	// Every structured error below composes with the standard errors
	// package: errors.As recovers the typed record from a wrapped chain.

	// CampaignError aggregates every per-variant failure of a
	// RunCampaign: callers receive the partial results plus one error
	// naming each failed variant (Unwrap exposes the *VariantError
	// records, so errors.Is/As see through the aggregation).
	CampaignError = campaign.Error
	// VariantError records one variant's launch failure (index, kernel
	// name, cause) inside a campaign.
	VariantError = campaign.VariantError
	// FaultInjector is the deterministic, seed-driven fault-injection
	// registry armed via LaunchOptions.Faults (CampaignOptions.Launch for
	// a campaign) or, for the cache's I/O points, MeasurementCache.SetFaults;
	// see NewFaultInjector.
	FaultInjector = faults.Injector
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

// NewFaultInjector returns a deterministic fault injector: whether a given
// (point, key) site faults is a pure function of the seed, so the injected
// fault set of a campaign is reproducible regardless of worker count. Arm
// points with SetRate (the point "*" arms all) and attach via
// LaunchOptions.Faults, and MeasurementCache.SetFaults for cache I/O.
func NewFaultInjector(seed int64) *FaultInjector { return faults.New(seed) }

// TransientFault wraps a real error as a transient fault: the campaign
// retry policy re-attempts it.
func TransientFault(err error) error { return faults.Transient(err) }

// Generate runs MicroCreator over an XML kernel description (§3). The
// context cancels generation between passes and between variants.
func Generate(ctx context.Context, r io.Reader, opts GenerateOptions) ([]Program, error) {
	return core.Generate(ctx, r, opts)
}

// GenerateString is Generate over a string.
func GenerateString(ctx context.Context, xml string, opts GenerateOptions) ([]Program, error) {
	return core.GenerateString(ctx, xml, opts)
}

// Launch measures a kernel with MicroLauncher (§4). The context cancels
// the measurement between repetitions.
func Launch(ctx context.Context, prog *Kernel, opts LaunchOptions) (*Measurement, error) {
	return launcher.Launch(ctx, prog, opts)
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

// MachineByName resolves a machine model, optionally scaled ("nehalem-dual/8").
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// RankMeasurements orders a variant family best-first by per-element cost
// (falling back to per-iteration cost), the §7 automated-analysis step.
func RankMeasurements(ms []*Measurement) Ranking { return analysis.RankPerElement(ms) }
