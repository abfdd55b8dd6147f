package campaign

import (
	"time"

	"microtools/internal/faults"
	"microtools/internal/launcher"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// Option is a functional setter for Options, applied by NewOptions — the
// campaign counterpart of launcher.Option. The setters below are grouped
// exactly like the Options struct sections, so a call site reads in the
// same order as the documentation.
type Option func(*Options)

// NewOptions builds an Options value by applying functional setters on top
// of the zero value (which is the campaign default: GOMAXPROCS workers,
// 2×workers buffering, no cache, single attempt per variant). It is the
// recommended constructor: call sites name only what they change instead
// of leaking Options literals field by field.
//
//	opts := campaign.NewOptions(
//	    campaign.WithLaunch(launch),
//	    campaign.WithWorkers(8),
//	    campaign.WithCache(cache),
//	)
//
// Nil setters are skipped, so options can be assembled conditionally. The
// Options struct stays exported; both styles remain supported.
func NewOptions(setters ...Option) Options {
	var o Options
	for _, set := range setters {
		if set != nil {
			set(&o)
		}
	}
	return o
}

// --- execution ---------------------------------------------------------------

// WithLaunch sets the measurement configuration applied to every variant.
func WithLaunch(l launcher.Options) Option { return func(o *Options) { o.Launch = l } }

// WithAdaptive arms μOpTime-style adaptive repetition with the given plan
// (see launcher.Plan); the engine early-stops stable variants and tops up
// the ones whose RCIW missed the plan's target from the saved budget.
func WithAdaptive(p launcher.Plan) Option {
	return func(o *Options) {
		pp := p
		o.Adaptive = &pp
	}
}

// WithAdaptiveTarget arms adaptive repetition with the given RCIW stop
// threshold and plan defaults for everything else.
func WithAdaptiveTarget(rciw float64) Option {
	return func(o *Options) { o.Adaptive = &launcher.Plan{TargetRCIW: rciw} }
}

// WithWorkers sizes the launch pool (<= 0 means GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithBuffer bounds the in-flight variant queue between the generator and
// the launch pool (<= 0 means 2×Workers).
func WithBuffer(n int) Option { return func(o *Options) { o.Buffer = n } }

// WithFailFast cancels the campaign on the first variant failure instead
// of isolating it.
func WithFailFast(on bool) Option { return func(o *Options) { o.FailFast = on } }

// WithCache consults and fills the content-addressed measurement cache;
// hits skip the launch entirely.
func WithCache(c *Cache) Option { return func(o *Options) { o.Cache = c } }

// --- observability -----------------------------------------------------------

// WithObservers appends observers of the run's event stream (see Observer).
func WithObservers(observers ...Observer) Option {
	return func(o *Options) { o.Observers = append(o.Observers, observers...) }
}

// WithTracer records the campaign as a span tree.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithMetrics records live campaign metrics and counters into the
// instrument set.
func WithMetrics(m *telemetry.Metrics) Option { return func(o *Options) { o.Metrics = m } }

// --- resilience --------------------------------------------------------------

// WithVariantDeadline bounds each variant's total measurement time, every
// attempt included (0 = unbounded).
func WithVariantDeadline(d time.Duration) Option {
	return func(o *Options) { o.VariantDeadline = d }
}

// WithRetryPolicy re-attempts variants that failed with a transient fault.
func WithRetryPolicy(p RetryPolicy) Option { return func(o *Options) { o.Retry = p } }

// WithQuarantine stops retrying a variant after n consecutive failed
// attempts (0 = off).
func WithQuarantine(n int) Option { return func(o *Options) { o.Quarantine = n } }

// WithFaults arms the deterministic fault-injection plan at every built-in
// injection point.
func WithFaults(in *faults.Injector) Option { return func(o *Options) { o.Faults = in } }

// WithCheckBounds asserts the static-bound oracle invariant on every
// cache-miss measurement.
func WithCheckBounds(on bool) Option { return func(o *Options) { o.CheckBounds = on } }
