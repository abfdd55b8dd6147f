// Package telemetry is the live observability layer: a process-wide
// metrics registry (atomic counters, gauges and fixed-bucket histograms
// whose Observe is allocation-free), an in-flight campaign tracker with a
// subscriber event stream, and an embeddable HTTP server exposing
// /metrics (Prometheus text format), /debug/campaigns (JSON snapshots)
// and /events (SSE progress stream).
//
// The package complements internal/obs: obs records post-hoc artifacts
// (span traces, per-measurement counter snapshots), telemetry serves
// the same signals while the run is still going — the operational
// requirement of the ROADMAP's campaign-daemon direction. It deliberately
// imports nothing from the rest of the module so every layer (sim,
// launcher, campaign, obs) can feed it without cycles.
//
// Every handle type follows the repository's nil-off convention: a nil
// *Registry, *Counter, *Gauge, *Histogram, *Tracker or *Campaign is the
// disabled default, and every method on one returns immediately — wiring
// telemetry in costs nothing until a caller actually provides it.
//
// Telemetry is, with internal/obs, one of the two packages allowed to
// read the wall clock (microlint L001): live metrics are about observed
// wall time by definition, while the simulation itself stays
// deterministic.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (no-op on a nil counter).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depths, pool sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value (no-op on a nil gauge).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Observe is allocation-free —
// a linear scan over the (small, immutable) bound slice plus two atomic
// operations — so it can sit inside the launcher's per-repetition hot
// loop. The observation count is not tracked separately: it is the sum of
// the bucket counts, derived at snapshot time. Bucket semantics follow
// Prometheus: bucket i counts observations v <= bounds[i]; the last
// implicit bucket is +Inf.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sumBits atomic.Uint64  // float64 bits, CAS-accumulated
}

// DurationBuckets is the default bucket layout for wall-time histograms:
// decades from 1µs to 10s plus a 60s catch-all below +Inf.
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 60}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample (no-op on a nil histogram).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the number of observations: the sum of the bucket counts
// (every observation lands in exactly one bucket).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Now is the sanctioned wall-clock read for packages outside the
// telemetry/obs boundary (repo rule L001 confines time.Now to those two
// packages). Long-running components that need real timestamps — the
// service daemon stamping job submission and completion times — route
// their clock reads through here so the boundary stays auditable.
func Now() time.Time { return time.Now() }

// Tick chains wall-clock laps into histograms: every Lap costs a single
// clock read and observes the time since the previous Lap (or Reset).
// Back-to-back timed sections — calibration, then each repetition — share
// their boundary timestamps instead of reading the clock twice per
// section, which is what keeps enabled telemetry inside its overhead
// budget on the launch hot path. The zero Tick has no baseline; its first
// Lap only establishes one.
type Tick struct {
	last time.Time
}

// Reset establishes a new baseline: the next Lap measures from here.
func (t *Tick) Reset() { t.last = time.Now() }

// Started reports whether a baseline exists.
func (t *Tick) Started() bool { return !t.last.IsZero() }

// Lap observes the seconds since the previous Lap/Reset into h (nil-safe)
// and moves the baseline to now. Without a baseline it only establishes
// one, observing nothing.
func (t *Tick) Lap(h *Histogram) {
	now := time.Now()
	if !t.last.IsZero() {
		h.Observe(now.Sub(t.last).Seconds())
	}
	t.last = now
}

// LapN splits the lap evenly across n observations into h — for n
// back-to-back repetitions timed as a single lap, trading within-lap
// variance (each repetition is recorded at the lap mean) for n-1 fewer
// clock reads on the hot path. Without a baseline or with n <= 0 it only
// moves the baseline.
func (t *Tick) LapN(h *Histogram, n int) {
	now := time.Now()
	if !t.last.IsZero() && n > 0 {
		v := now.Sub(t.last).Seconds() / float64(n)
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	t.last = now
}

// HistogramSnapshot is one histogram's state at a point in time. Buckets
// holds per-bucket (non-cumulative) counts; the last entry is the +Inf
// bucket.
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric in a registry, read by
// the /metrics exposition and the tests. Maps and slices are owned by the
// caller.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Registry is a concurrency-safe registry of named metrics. Metric
// handles are created on first use and stable thereafter: instrumented
// code resolves its handles once and then touches only atomics.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (disabled) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds — the
// first registration wins). A nil or empty bounds slice selects
// DurationBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		hs := HistogramSnapshot{
			Name:    name,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}
