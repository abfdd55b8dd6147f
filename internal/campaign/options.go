package campaign

import (
	"time"

	"microtools/internal/launcher"
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

// WithLaunch sets the measurement configuration applied to every variant,
// hooks included: the adaptive plan, tracer, metrics and fault injector
// are launcher options (see Options.Launch).
func WithLaunch(l launcher.Options) Option { return func(o *Options) { o.Launch = l } }

// WithWorkers sizes the launch pool (<= 0 means GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

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

// WithMetrics sets Launch.Metrics, the instrument set the engine and every
// launch record into. Apply it after WithLaunch, which replaces the whole
// launch configuration.
func WithMetrics(m *telemetry.Metrics) Option { return func(o *Options) { o.Launch.Metrics = m } }

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

// WithCheckBounds asserts the static-bound oracle invariant on every
// cache-miss measurement.
func WithCheckBounds(on bool) Option { return func(o *Options) { o.CheckBounds = on } }
