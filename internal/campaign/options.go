package campaign

import (
	"microtools/internal/launcher"
	"microtools/internal/telemetry"
)

// Option is a functional setter for Options, applied by NewOptions. It
// and the setters below survive only for the benchmark harness
// (perfbench/workloads.go), whose files change only with the benchmark;
// every other caller builds Options as a value: a literal (the zero value
// is the campaign default), then field assignment.
type Option func(*Options)

// NewOptions applies setters on top of the zero Options, skipping nil
// ones. Kept only for the benchmark harness.
func NewOptions(setters ...Option) Options {
	var o Options
	for _, set := range setters {
		if set != nil {
			set(&o)
		}
	}
	return o
}

// WithLaunch sets Launch. Kept only for the benchmark harness.
func WithLaunch(l launcher.Options) Option { return func(o *Options) { o.Launch = l } }

// WithWorkers sets Workers. Kept only for the benchmark harness.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithCache sets Cache. Kept only for the benchmark harness.
func WithCache(c *Cache) Option { return func(o *Options) { o.Cache = c } }

// WithMetrics sets Launch.Metrics; apply it after WithLaunch, which
// replaces the whole launch configuration. Kept only for the benchmark
// harness.
func WithMetrics(m *telemetry.Metrics) Option { return func(o *Options) { o.Launch.Metrics = m } }

// WithCheckBounds sets CheckBounds. Kept only for the benchmark harness.
func WithCheckBounds(on bool) Option { return func(o *Options) { o.CheckBounds = on } }
