package telemetry

// Metric names shared by the instrumented layers and the smoke tests.
// Dotted internal names; /metrics exposes them with promName applied
// (microtools_ prefix, dots to underscores).
const (
	// The campaign engine's named counters (campaign.launches, ...)
	// live in the same registry; campaign.Options.Metrics lists them.
	MetricVariantSeconds   = "campaign.variant.seconds"
	MetricQueueDepth       = "campaign.queue.depth"
	MetricRepSeconds       = "launcher.rep.seconds"
	MetricCalibrateSeconds = "launcher.calibrate.seconds"
	MetricSimInstsRetired  = "sim.insts.retired"
	MetricSimPoolHits      = "sim.pool.hits"
	MetricSimPoolMisses    = "sim.pool.misses"
)

// Metrics bundles the pre-resolved instrument handles the measurement
// stack records into: the campaign worker pool (per-variant duration,
// queue depth), the launcher protocol (per-repetition latency,
// calibration time) and the simulator (instructions retired, core-pool
// hit rate). Resolving the handles once up front keeps the hot paths
// free of registry lookups.
//
// A nil *Metrics disables instrumentation; holders must nil-check the
// struct pointer before reading its fields (the fields themselves are
// nil-safe handles, so copying them out of a non-nil Metrics and using
// them unconditionally is the intended pattern).
type Metrics struct {
	// Registry is the backing registry, exposed so the campaign engine
	// can resolve its named counters in it and tests can assert on
	// exposition.
	Registry *Registry

	// VariantSeconds is the campaign's per-variant wall-time histogram
	// (cache hits and failures included — it times the worker, not the
	// simulator).
	VariantSeconds *Histogram
	// QueueDepth tracks the generator→worker variant queue occupancy.
	QueueDepth *Gauge

	// RepSeconds is the launcher's per-outer-repetition wall-time
	// histogram; CalibrateSeconds times the §4.5 empty-kernel
	// calibration.
	RepSeconds       *Histogram
	CalibrateSeconds *Histogram

	// SimInstsRetired counts simulated instructions retired across all
	// runs; SimPoolHits/SimPoolMisses track the machine's core-pool
	// reuse (a miss allocates a fresh cpu.Core, a hit resets a pooled
	// one — the RunOne fast-path economics). Launch reuses pooled
	// machines, so hits accumulate across launches too.
	SimInstsRetired *Counter
	SimPoolHits     *Counter
	SimPoolMisses   *Counter
}

// NewMetrics resolves the standard instrument set against a registry.
// A nil registry yields nil (instrumentation off).
func NewMetrics(r *Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Registry:         r,
		VariantSeconds:   r.Histogram(MetricVariantSeconds, nil),
		QueueDepth:       r.Gauge(MetricQueueDepth),
		RepSeconds:       r.Histogram(MetricRepSeconds, nil),
		CalibrateSeconds: r.Histogram(MetricCalibrateSeconds, nil),
		SimInstsRetired:  r.Counter(MetricSimInstsRetired),
		SimPoolHits:      r.Counter(MetricSimPoolHits),
		SimPoolMisses:    r.Counter(MetricSimPoolMisses),
	}
}
