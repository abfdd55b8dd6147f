// Package launcher is MicroLauncher (§4): it executes benchmark programs in
// a stable, controlled environment and reports cycles per iteration.
//
// The execution protocol follows Fig. 10's pseudo-code:
//
//  1. allocate the kernel's data arrays (with the requested alignments);
//  2. warm the caches by running the kernel once (§4.5);
//  3. calibrate the measurement overhead with an empty kernel;
//  4. run outer repetitions, each timing an inner loop of kernel calls;
//  5. divide by repetitions and the %eax iteration count (§4.4) to report
//     cycles per iteration.
//
// Multi-core execution (§4.6, §5.2.1) forks the same kernel onto several
// pinned cores; alignment studies (§5.2.2) sweep per-array offsets.
//
// Options is one plain value: start from DefaultOptions and assign the
// fields a launch changes.
package launcher

import (
	"fmt"
	"io"

	"microtools/internal/faults"
	"microtools/internal/obs"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// Mode selects the execution strategy.
type Mode int

const (
	// Sequential runs the kernel on one pinned core (§5.1).
	Sequential Mode = iota
	// Fork runs identical copies on N pinned cores with a synchronized
	// start (§4.6, §5.2.1).
	Fork
	// OpenMP splits the trip count across N cores with a parallel-region
	// runtime model (§5.2.3); see internal/openmp.
	OpenMP
)

func (m Mode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Fork:
		return "fork"
	case OpenMP:
		return "openmp"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -mode option.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sequential", "seq":
		return Sequential, nil
	case "fork":
		return Fork, nil
	case "openmp", "omp":
		return OpenMP, nil
	}
	return 0, fmt.Errorf("launcher: unknown mode %q (want sequential|fork|openmp)", s)
}

// Options is MicroLauncher's behaviour-tweaking surface. The paper notes
// "there are currently more than thirty options in the MicroLauncher tool";
// this struct is the library form, and cmd/microlauncher exposes each as a
// flag.
type Options struct {
	// --- input selection -------------------------------------------------

	// FunctionName selects the kernel function when the input holds
	// several ("A command-line parameter provides the function name",
	// §4.1). Empty = single function expected.
	FunctionName string

	// Mode selects sequential, fork or OpenMP execution.
	Mode Mode

	// --- machine / environment -------------------------------------------

	// MachineName picks the simulated platform (Table 1), optionally
	// scaled, e.g. "nehalem-dual/8".
	MachineName string
	// CoreFrequencyGHz overrides the DVFS point (0 = nominal).
	CoreFrequencyGHz float64
	// PinCore is the core a sequential run is pinned to ("the program is
	// pinned on a given default core or chosen by the user", §4).
	PinCore int
	// Cores is the core count for Fork/OpenMP modes.
	Cores int
	// SpreadSockets round-robins fork processes across sockets (default
	// true, the typical HPC placement).
	SpreadSockets bool
	// DisableInterrupts suppresses environmental noise during measured
	// runs (§4.7). Default true; turning it off demonstrates why the
	// launcher exists.
	DisableInterrupts bool
	// NoiseSeed seeds the noise generator when interrupts are enabled.
	NoiseSeed int64

	// --- data arrays -------------------------------------------------------

	// NBVectors is the number of dynamically allocated arrays the kernel
	// expects (the paper's --nbvectors). 0 = derive from the kernel.
	NBVectors int
	// ArrayBytes is the size of each array in bytes.
	ArrayBytes int64
	// Alignments gives each array's byte offset within its alignment
	// window (missing entries default to 0).
	Alignments []int64
	// AlignWindow is the alignment modulus (default 4096, one page).
	AlignWindow int64

	// --- measurement protocol ----------------------------------------------

	// TripElements is the element count passed as the kernel's first
	// argument (%rdi). 0 = derive from ArrayBytes and ElementBytes.
	TripElements int64
	// ElementBytes is the logical element size (default 4).
	ElementBytes int64
	// TripExact passes TripElements to %rdi unmodified. Count-up kernels
	// (e.g. the §2 matrix multiply, cmp/jl against an exact bound) need
	// the exact value; the default subtracts one, which makes
	// MicroCreator's count-down jge loops cover the arrays exactly.
	TripExact bool
	// InnerReps is how many kernel calls one timed experiment contains.
	InnerReps int
	// OuterReps is the number of repeated experiments (§4.5's
	// "repetitions"); the statistic summarizes across them.
	OuterReps int
	// Warmup runs the kernel once untimed to heat the caches (§4.5).
	Warmup bool
	// Calibrate measures and subtracts the empty-function overhead
	// (§4.5's "overhead calculation removes the function call cost").
	Calibrate bool
	// Statistic selects the reported summary (paper figures use min).
	Statistic stats.Statistic
	// MaxInstructions bounds each kernel call's dynamic instructions
	// (0 = unlimited); long-running kernels report steady-state
	// cycles/iteration from the truncated run.
	MaxInstructions int64
	// OMPOverheadScale scales the OpenMP runtime model's fork/join costs
	// (default 1.0). Experiments on cache-scaled machines set it to the
	// same scale factor so region overhead shrinks with the work.
	OMPOverheadScale float64
	// OMPDynamic selects schedule(dynamic) with OMPChunkElements-sized
	// chunks instead of the default schedule(static).
	OMPDynamic       bool
	OMPChunkElements int64
	// Adaptive, when non-nil, arms the μOpTime-style adaptive repetition
	// plan: the outer-rep loop evaluates the plan's statistic-aware stop
	// rule after every repetition and stops early once the statistic has
	// stabilized, recording the outcome on Measurement.Adaptive. Nil (the
	// default) keeps the fixed OuterReps protocol — and, via omitempty,
	// keeps the cache key of fixed-budget runs byte-identical to builds
	// that predate the field. See Plan for the stop rules and the
	// cache-key policy (planned budget in, realized reps out). A campaign
	// resolves the plan once for every variant and adds its top-up pass
	// (see campaign.Options.Launch).
	Adaptive *Plan `json:",omitempty"`

	// --- output ------------------------------------------------------------

	// TimeUnit selects the reported unit: core cycles, TSC reference
	// cycles (the rdtsc default), or seconds.
	TimeUnit TimeUnit
	// ReportEnergy attaches the §7 power-model estimate to the
	// measurement (energy, average watts, energy-delay product).
	ReportEnergy bool
	// PerIteration divides by the kernel-reported iteration count
	// (default true; §4.3 "by default the number of cycles per
	// iteration"). When false, whole-call time is reported ("the tool may
	// output the full kernel function's execution").
	PerIteration bool
	// Verbose, when non-nil, receives protocol progress lines.
	Verbose io.Writer

	// --- observability -----------------------------------------------------

	// Tracer, when non-nil, records hierarchical spans over the whole
	// protocol (warm-up, calibration, each measurement repetition, and the
	// simulator runs underneath). Nil is the zero-overhead default. A
	// campaign records its "campaign" and per-variant "variant" spans
	// into the same tracer.
	Tracer *obs.Tracer
	// CollectCounters attaches a simulated-PMU Counters snapshot to the
	// measurement, captured as a delta over the measured region only (so
	// warm-up and calibration traffic never pollute the counts).
	CollectCounters bool
	// Metrics, when non-nil, records live telemetry for the launch: the
	// per-repetition latency and calibration-time histograms, plus the
	// simulator's instructions-retired and core-pool counters for the
	// machine's duration. A campaign records into the same set: the
	// per-variant duration histogram, the queue-depth gauge and the
	// engine's named counters in Metrics.Registry (campaign.variants,
	// campaign.launches, campaign.cache.hits, campaign.cache.misses,
	// campaign.cache.key_errors, campaign.cache.put_errors,
	// campaign.failures, campaign.retry, variant.quarantined,
	// analysis.bound.violations, campaign.stability.backfilled and the
	// adaptive campaign.reps.saved, campaign.reps.topup and
	// campaign.topup.failures). Nil is the zero-overhead default.
	// Excluded from cache keys: live instrumentation observes the run, it
	// does not change the measured value.
	Metrics *telemetry.Metrics `json:"-"`

	// --- resilience --------------------------------------------------------

	// Faults, when non-nil, arms deterministic fault injection at the
	// launch protocol's boundaries (faults.PointLauncherRep at every outer
	// repetition, faults.PointSimStep under the simulator). Nil is the
	// fault-free default. A campaign also checks it at its worker-launch
	// point (faults.PointCampaignLaunch); the measurement cache's I/O
	// points are armed on the cache (campaign.Cache.SetFaults). Excluded
	// from cache keys: the
	// fault plan perturbs execution, not the measured value a healthy run
	// produces.
	Faults *faults.Injector `json:"-"`
}

// TimeUnit is the launcher's reporting unit.
type TimeUnit int

const (
	// UnitTSC reports constant-rate TSC reference cycles (the paper's
	// rdtsc default, §4.2).
	UnitTSC TimeUnit = iota
	// UnitCoreCycles reports raw core cycles.
	UnitCoreCycles
	// UnitSeconds reports wall-clock seconds (Table 2).
	UnitSeconds
)

func (u TimeUnit) String() string {
	switch u {
	case UnitTSC:
		return "tsc-cycles"
	case UnitCoreCycles:
		return "core-cycles"
	case UnitSeconds:
		return "seconds"
	}
	return fmt.Sprintf("TimeUnit(%d)", int(u))
}

// ParseTimeUnit parses the -unit option.
func ParseTimeUnit(s string) (TimeUnit, error) {
	switch s {
	case "tsc", "tsc-cycles", "rdtsc":
		return UnitTSC, nil
	case "cycles", "core-cycles":
		return UnitCoreCycles, nil
	case "seconds", "s":
		return UnitSeconds, nil
	}
	return 0, fmt.Errorf("launcher: unknown time unit %q (want tsc|cycles|seconds)", s)
}

// DefaultOptions returns the paper-faithful defaults: Nehalem dual-socket,
// warmed caches, calibrated overhead, interrupts disabled, min statistic,
// TSC cycles per iteration.
func DefaultOptions() Options {
	return Options{
		MachineName:       "nehalem-dual",
		PinCore:           0,
		Cores:             1,
		SpreadSockets:     true,
		DisableInterrupts: true,
		ArrayBytes:        1 << 16,
		AlignWindow:       4096,
		ElementBytes:      4,
		InnerReps:         4,
		OuterReps:         4,
		Warmup:            true,
		Calibrate:         true,
		Statistic:         stats.StatMin,
		TimeUnit:          UnitTSC,
		PerIteration:      true,
	}
}

// Option is a functional setter for Options, applied by NewOptions. It
// and the three setters below survive only for the benchmark harness
// (perfbench/workloads.go), whose files change only with the benchmark;
// every other caller builds Options as a value: DefaultOptions, then
// field assignment.
type Option func(*Options)

// NewOptions applies setters on top of DefaultOptions, skipping nil ones.
// Kept only for the benchmark harness.
func NewOptions(setters ...Option) Options {
	o := DefaultOptions()
	for _, set := range setters {
		if set != nil {
			set(&o)
		}
	}
	return o
}

// WithMachine sets MachineName. Kept only for the benchmark harness.
func WithMachine(name string) Option { return func(o *Options) { o.MachineName = name } }

// WithArrayBytes sets ArrayBytes. Kept only for the benchmark harness.
func WithArrayBytes(n int64) Option { return func(o *Options) { o.ArrayBytes = n } }

// WithReps sets OuterReps and InnerReps. Kept only for the benchmark
// harness.
func WithReps(outer, inner int) Option {
	return func(o *Options) {
		o.OuterReps = outer
		o.InnerReps = inner
	}
}

// Validate normalizes and checks the options.
func (o *Options) Validate() error {
	if o.MachineName == "" {
		return fmt.Errorf("launcher: no machine selected")
	}
	if o.ArrayBytes <= 0 {
		return fmt.Errorf("launcher: array size must be positive")
	}
	if o.AlignWindow <= 0 {
		o.AlignWindow = 4096
	}
	if o.AlignWindow&(o.AlignWindow-1) != 0 {
		return fmt.Errorf("launcher: alignment window %d not a power of two", o.AlignWindow)
	}
	for i, a := range o.Alignments {
		if a < 0 || a >= o.AlignWindow {
			return fmt.Errorf("launcher: alignment[%d]=%d outside [0,%d)", i, a, o.AlignWindow)
		}
	}
	if o.ElementBytes <= 0 {
		o.ElementBytes = 4
	}
	if o.InnerReps <= 0 {
		o.InnerReps = 1
	}
	if o.OuterReps <= 0 {
		o.OuterReps = 1
	}
	if o.Cores <= 0 {
		o.Cores = 1
	}
	if o.NBVectors < 0 {
		return fmt.Errorf("launcher: negative nbvectors")
	}
	if o.Adaptive != nil && o.Adaptive.TargetRCIW < 0 {
		return fmt.Errorf("launcher: negative adaptive RCIW target %g", o.Adaptive.TargetRCIW)
	}
	return nil
}
