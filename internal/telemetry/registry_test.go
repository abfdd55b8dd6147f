package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilHandlesNoOp(t *testing.T) {
	var r *Registry
	// Every accessor on a nil registry returns a nil (disabled) handle,
	// and every method on a nil handle is a no-op.
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("x").Set(7)
	r.Gauge("x").Add(1)
	r.Histogram("x", nil).Observe(1)
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d, want 0", got)
	}
	if got := r.Gauge("x").Value(); got != 0 {
		t.Errorf("nil gauge value = %d, want 0", got)
	}
	if got := r.Histogram("x", nil).Count(); got != 0 {
		t.Errorf("nil histogram count = %d, want 0", got)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry exposition not empty: %q", b.String())
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if r.Counter("hits") != c {
		t.Error("Counter did not return the same handle on second lookup")
	}
	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %d, want 3", got)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) semantics: an
// observation exactly equal to a bound lands in that bound's bucket, one
// just above it in the next, and anything beyond the last bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(s.Histograms))
	}
	hs := s.Histograms[0]
	// v=1 -> le=1; v=1.5 and v=2 -> le=2; v=5 -> le=5; v=7 -> +Inf.
	want := []int64{1, 2, 1, 1}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(hs.Buckets), len(want))
	}
	for i, n := range want {
		if hs.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d (buckets %v)", i, hs.Buckets[i], n, hs.Buckets)
		}
	}
	if hs.Count != 5 {
		t.Errorf("count = %d, want 5", hs.Count)
	}
	if hs.Sum != 1+1.5+2+5+7 {
		t.Errorf("sum = %g, want 16.5", hs.Sum)
	}
}

func TestHistogramBoundsSortedAndFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{5, 1, 2}) // unsorted on purpose
	h.Observe(1.5)
	again := r.Histogram("lat", []float64{100, 200})
	if again != h {
		t.Fatal("second registration returned a different histogram")
	}
	hs := r.Snapshot().Histograms[0]
	if len(hs.Bounds) != 3 || hs.Bounds[0] != 1 || hs.Bounds[1] != 2 || hs.Bounds[2] != 5 {
		t.Errorf("bounds = %v, want sorted [1 2 5]", hs.Bounds)
	}
	if hs.Buckets[1] != 1 {
		t.Errorf("1.5 landed in buckets %v, want le=2", hs.Buckets)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", nil)
	h.Observe(0.5e-3) // 500µs -> le=1e-3
	hs := r.Snapshot().Histograms[0]
	if len(hs.Bounds) != len(DurationBuckets) {
		t.Fatalf("default bounds = %v", hs.Bounds)
	}
	if hs.Buckets[3] != 1 { // 1e-6, 1e-5, 1e-4, 1e-3
		t.Errorf("500µs landed in buckets %v, want index 3 (le=1e-3)", hs.Buckets)
	}
}

func TestTickChainsLaps(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("a", nil)
	b := r.Histogram("b", nil)
	var tick Tick
	if tick.Started() {
		t.Fatal("zero Tick reports Started")
	}
	// A Lap without a baseline only establishes one.
	tick.Lap(a)
	if got := a.Count(); got != 0 {
		t.Errorf("baseline Lap observed %d samples, want 0", got)
	}
	if !tick.Started() {
		t.Fatal("Tick has no baseline after Lap")
	}
	tick.Lap(a) // observes a
	tick.Lap(b) // observes b, chained from a's end
	if got := a.Count(); got != 1 {
		t.Errorf("a count = %d, want 1", got)
	}
	if got := b.Count(); got != 1 {
		t.Errorf("b count = %d, want 1", got)
	}
	// LapN splits one lap across n observations summing to the lap.
	tick.Reset()
	time.Sleep(time.Millisecond)
	tick.LapN(a, 4)
	if got := a.Count(); got != 5 {
		t.Errorf("a count after LapN = %d, want 5", got)
	}
	if sum := a.Sum(); sum <= 0 {
		t.Errorf("a sum = %g, want > 0", sum)
	}
	tick.LapN(a, 0) // n<=0 only moves the baseline
	if got := a.Count(); got != 5 {
		t.Errorf("a count after LapN(0) = %d, want 5", got)
	}
}

// TestConcurrentObserveAndCollect drives observers and collectors in
// parallel; under -race (make race) this is the registry's thread-safety
// gate.
func TestConcurrentObserveAndCollect(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h", nil).Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestMetricsNilRegistry(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %+v, want nil", m)
	}
	m := NewMetrics(NewRegistry())
	if m.VariantSeconds == nil || m.RepSeconds == nil || m.SimInstsRetired == nil {
		t.Fatal("NewMetrics left handles nil")
	}
	m.SimInstsRetired.Add(42)
	if got := m.Registry.Snapshot().Counters[MetricSimInstsRetired]; got != 42 {
		t.Errorf("%s = %d, want 42", MetricSimInstsRetired, got)
	}
}
