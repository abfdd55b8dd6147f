// Package campaign is the engine behind the paper's end-to-end workflow at
// sweep scale: MicroCreator expands one XML spec into hundreds or
// thousands of variants and MicroLauncher measures every one (§3–§4). At
// that scale the driver — not the simulator — is the bottleneck and the
// reliability risk, so the engine restructures generate→launch→analyze
// around four properties:
//
//   - streaming: variants flow from the pass pipeline through a bounded
//     buffer into the launch pool (core.GenerateStream), so a 10k-variant
//     family never materializes all rendered programs at once;
//   - cancellation: one context.Context threads end to end; canceling it
//     stops generation and measurement within one variant and returns the
//     partial result set with ctx.Err();
//   - fault isolation: a failing variant yields a structured per-variant
//     error in the result set instead of discarding the campaign; the
//     aggregate error lists every failure, and FailFast restores
//     stop-on-first-error semantics when wanted;
//   - caching: a content-addressed measurement cache (hash of canonical
//     kernel assembly + launcher options + machine model → Measurement,
//     backed by an append-only JSONL store) lets an identical or
//     overlapping re-run skip already-measured variants, which is also the
//     checkpoint/resume story for interrupted sweeps;
//   - resilience: a per-variant deadline and a bounded retry policy with
//     deterministic backoff re-attempt transient faults (faults.IsTransient)
//     instead of failing the variant outright; variants that keep failing
//     are quarantined, cache-write failures degrade to a counted miss, and
//     the whole failure surface is exercisable on demand through the
//     deterministic fault injector (internal/faults, Launch.Faults and
//     Cache.SetFaults).
//
// Results are deterministic and bit-identical across serial, parallel and
// cache-warm runs: every variant runs on its own simulated machine, and
// cache entries are canonicalized through the store encoding on the cold
// run (Cache.Put), so a hit replays exactly what the miss produced.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/obs"
	"microtools/internal/stats"
	"microtools/internal/telemetry"
)

// Error aggregates every variant failure of a campaign.
type Error struct {
	// Failed lists the failed variants in generation order.
	Failed []*VariantError
	// Total is the number of variants the campaign emitted.
	Total int
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d of %d variants failed:", len(e.Failed), e.Total)
	for _, f := range e.Failed {
		fmt.Fprintf(&b, "\n  %s: %v", f.Name, f.Err)
	}
	return b.String()
}

// Unwrap exposes the per-variant errors to errors.Is/As.
func (e *Error) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// launchFunc measures one kernel; tests substitute it to inject faults.
type launchFunc func(context.Context, *isa.Program, launcher.Options) (*launcher.Measurement, error)

// Options configures a campaign run.
type Options struct {
	// Launch is the measurement configuration applied to every variant.
	// Its hooks serve the campaign as well as each launch:
	//
	//   - Adaptive, when non-nil, arms μOpTime-style adaptive repetition
	//     for every variant: the plan (resolved once against
	//     Launch.OuterReps) drives the launcher's per-rep stop rule, and
	//     after the main pass the engine reallocates the saved repetition
	//     budget to variants whose achieved RCIW missed the plan's target
	//     — a bounded second "top-up" pass (see the adaptive accounting on
	//     Result). The resolved plan is a cache-key dimension; fixed-budget
	//     runs (nil) keep their exact pre-adaptive keys.
	//   - Tracer records the campaign as a span tree: "campaign" >
	//     per-variant "variant" spans with "cache.hit"/"cache.miss"
	//     children; each launch of a cache miss records its own root
	//     "launch" span.
	//   - Metrics records the per-variant duration histogram, the
	//     queue-depth gauge and the engine's named counters (listed on
	//     launcher.Options.Metrics) beside the launcher's own instruments.
	//   - Faults arms the campaign worker-launch injection point beside
	//     the launcher's repetition and sim-stepping points. The cache's
	//     I/O points are armed by the cache's owner (Cache.SetFaults).
	Launch launcher.Options
	// Workers sizes the launch pool (<= 0 means GOMAXPROCS). Every
	// variant runs on its own simulated machine, so results are
	// bit-identical to a serial run; only wall-clock time changes. The
	// queue between the generator and the pool holds 2×Workers variants:
	// generation stalls rather than materializing an unbounded backlog.
	Workers int
	// FailFast cancels the campaign on the first variant failure instead
	// of isolating it and measuring the rest.
	FailFast bool
	// Cache, when non-nil, consults and fills the content-addressed
	// measurement cache; hits skip the launch entirely.
	Cache *Cache

	// --- observability -----------------------------------------------------

	// Observers receive the run's event stream (see Observer): one update
	// per finished variant in completion order, then the settled totals,
	// then End with the campaign's error. A tracked live campaign
	// (telemetry.Tracker.Begin) is an Observer. Spans, metrics, faults
	// and the adaptive plan are hooks on Launch.
	Observers []Observer

	// --- resilience --------------------------------------------------------

	// VariantDeadline bounds each variant's total measurement time, every
	// attempt included (0 = unbounded). An expired deadline fails the
	// variant — it is a variant fault, not a campaign cancellation.
	VariantDeadline time.Duration
	// Retry re-attempts variants that failed with a transient fault; see
	// RetryPolicy. The zero value performs a single attempt.
	Retry RetryPolicy
	// Quarantine, when > 0, stops retrying a variant after that many
	// consecutive failed attempts — even with retry budget left — and
	// marks it quarantined in the result (counter: variant.quarantined).
	// 0 disables quarantine.
	Quarantine int

	// CheckBounds asserts the oracle invariant on every cache-miss
	// measurement: the static lower bound from internal/dataflow must not
	// exceed the measured core cycles per iteration (within the
	// calibration tolerance). Violations are structured
	// *BoundViolationError variant failures, counted in telemetry as
	// analysis.bound.violations. Cache hits are not re-checked — they
	// passed when first measured.
	CheckBounds bool

	// launch substitutes the launcher in tests (nil = launcher.Launch).
	launch launchFunc
	// boundArch overrides the microarchitecture the static bound is
	// computed from (tests corrupt its latency tables to prove the
	// CheckBounds assertion has teeth). nil = the launch machine's Arch.
	boundArch *isa.Arch
}

// Observer receives one campaign's event stream. Update is called once
// per finished variant (measured, cache-hit or failed) in completion
// order, so Done never decreases; then once more with the settled totals,
// which equal the returned Result's accounting; then End is called
// exactly once with the campaign's error (nil on success), on every exit
// path. Calls are serialized under the engine's lock, from whichever
// worker finished the variant: an observer must be quick and must not
// call back into the engine. *telemetry.Campaign is an Observer.
type Observer interface {
	Update(telemetry.CampaignUpdate)
	End(error)
}

// UpdateFunc adapts a function to an Observer that ignores End.
type UpdateFunc func(telemetry.CampaignUpdate)

// Update calls f(u).
func (f UpdateFunc) Update(u telemetry.CampaignUpdate) { f(u) }

// End does nothing.
func (UpdateFunc) End(error) {}

// VariantResult is one variant's outcome.
type VariantResult struct {
	// Index is the variant's position in generation order.
	Index int
	// Name is the variant's kernel name.
	Name string
	// Measurement is the result (nil when Err is set).
	Measurement *launcher.Measurement
	// CacheHit reports that the measurement was served from the cache.
	CacheHit bool
	// Attempts is how many launch attempts the variant consumed (0 for
	// cache hits; > 1 means transient faults were retried).
	Attempts int
	// Quarantined reports that the variant failed Options.Quarantine
	// consecutive attempts and was withdrawn from further retries.
	Quarantined bool
	// Stability carries the measurement's per-repetition confidence
	// signals (N, mean, CV, RCIW). It is filled for measured and
	// cache-hit variants alike — entries cached before the launcher
	// stored it are backfilled from their Summary, which reproduces the
	// same values bit for bit (stats.StabilityOf is pure).
	Stability stats.Stability
	// StaticBound is internal/dataflow's lower bound for the variant in
	// the measurement's unit and per-iteration basis (0 when the bound
	// does not apply). It is recorded for hits and misses alike — the
	// bound is a pure function of the kernel and the machine, so
	// backfilling keeps cached results bit-identical.
	StaticBound float64
	// Err is the variant's failure (nil on success).
	Err error
}

// Result is a campaign's outcome: every completed variant in generation
// order, plus the engine's own accounting.
type Result struct {
	// Results holds the completed variants in generation order. On a
	// canceled campaign it holds only the variants that finished before
	// the cancellation.
	Results []VariantResult
	// Emitted is the number of variants the generator produced.
	Emitted int
	// Launches counts actual launcher runs (cache misses); a warm-cache
	// re-run of an identical campaign performs zero.
	Launches int
	// CacheHits and Failures break down the completions.
	CacheHits int
	Failures  int
	// Retries counts launch re-attempts across all variants (0 on a
	// fault-free run).
	Retries int
	// Quarantined counts variants withdrawn after Options.Quarantine
	// consecutive failed attempts.
	Quarantined int
	// KeyErrors counts variants whose cache key could not be derived: those
	// variants were measured but neither consulted nor populated the cache,
	// so a warm re-run repeats their launches.
	KeyErrors int

	// --- adaptive accounting (zero unless Launch.Adaptive) ----------------

	// RepsSaved is the repetition budget the main pass left unspent:
	// Σ max(0, plan.MaxReps − realized reps) over adaptive measurements.
	// It is the pool the top-up pass reallocates from.
	RepsSaved int
	// RepsTopUp is the additional repetitions the top-up pass actually
	// gained for variants whose RCIW missed the plan's target.
	RepsTopUp int
	// RepsExecuted counts the launcher repetitions completed by this
	// run's real launches (cache hits execute none; a topped-up variant
	// pays its re-run in full). Against Emitted × plan.MaxReps this is
	// the fixed-vs-adaptive savings figure.
	RepsExecuted int
	// TargetMisses counts variants whose achieved RCIW still exceeds the
	// plan's target after top-up (0 = every variant met target).
	TargetMisses int
}

// Measurements returns the successful measurements in generation order
// (failed or unfinished variants are skipped).
func (r *Result) Measurements() []*launcher.Measurement {
	out := make([]*launcher.Measurement, 0, len(r.Results))
	for i := range r.Results {
		if r.Results[i].Measurement != nil {
			out = append(out, r.Results[i].Measurement)
		}
	}
	return out
}

// Err returns the aggregated per-variant error of the run, or nil when
// every completed variant succeeded.
func (r *Result) Err() error {
	var agg Error
	for i := range r.Results {
		if err := r.Results[i].Err; err != nil {
			agg.Failed = append(agg.Failed, &VariantError{
				Index: r.Results[i].Index,
				Name:  r.Results[i].Name,
				Err:   err,
			})
		}
	}
	if len(agg.Failed) == 0 {
		return nil
	}
	agg.Total = r.Emitted
	return &agg
}

// Run executes a full campaign over the XML kernel description: stream the
// generated variants into a bounded queue, measure each over a worker pool
// (consulting the cache first), and collect per-variant results in
// generation order.
//
// The returned Result is always non-nil. The error is, in precedence
// order: ctx.Err() when the caller canceled (partial results included);
// a *SetupError when the generation pipeline failed; the aggregated
// *Error when variants failed (with FailFast, the remainder was skipped);
// ErrNoVariants when the description emitted nothing; nil on full
// success.
func Run(ctx context.Context, xml io.Reader, gen core.GenerateOptions, opts Options) (*Result, error) {
	return run(ctx, func(ctx context.Context, emit func(codegen.Program) error) error {
		_, err := core.GenerateStream(ctx, xml, gen, emit)
		return err
	}, opts)
}

// RunPrograms is Run over an already materialized program list — a
// screened variant family, or the functions of one assembly file. The
// programs enter the same engine in slice order (Index is the position in
// progs), with the same cache, resilience, adaptive top-up, bound checks
// and live tracking. The returned Result is always non-nil; the error is
// as for Run, with ErrNoVariants for an empty list.
func RunPrograms(ctx context.Context, progs []codegen.Program, opts Options) (*Result, error) {
	return run(ctx, func(ctx context.Context, emit func(codegen.Program) error) error {
		for i := range progs {
			if err := emit(progs[i]); err != nil {
				return err
			}
		}
		return nil
	}, opts)
}

// run is the engine behind Run and RunPrograms. source hands every variant
// to emit in generation order and returns the producer's error; emit
// blocks while the launch queue is full and fails once the campaign is
// canceled.
func run(ctx context.Context, source func(ctx context.Context, emit func(codegen.Program) error) error, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	launch := opts.launch
	if launch == nil {
		launch = launcher.Launch
	}
	// Resolve the adaptive plan once against the fixed budget so every
	// variant — and the cache key — sees the same effective plan.
	plan := opts.Launch.Adaptive
	if plan != nil {
		p := plan.Resolve(opts.Launch.OuterReps)
		plan = &p
		opts.Launch.Adaptive = plan
	}

	// Live telemetry: the counter handles are resolved once, so every
	// campaign.* counter is visible on /metrics while the run is still
	// going (nil handles no-op without a registry).
	var variantHist *telemetry.Histogram
	var queueDepth *telemetry.Gauge
	var reg *telemetry.Registry
	if m := opts.Launch.Metrics; m != nil {
		variantHist = m.VariantSeconds
		queueDepth = m.QueueDepth
		reg = m.Registry
	}
	cnt := newCounters(reg)

	root := opts.Launch.Tracer.Start("campaign").
		Str("machine", opts.Launch.MachineName).
		Int("workers", int64(workers))
	defer root.End()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		index int
		prog  codegen.Program
	}
	jobs := make(chan job, 2*workers)

	// topupCand is one variant whose achieved RCIW missed the adaptive
	// target in the main pass — a candidate for budget reallocation.
	type topupCand struct {
		index  int
		name   string
		kernel *isa.Program
		reps   int
	}

	// res is the run's accounting, built up under mu as variants finish.
	var (
		mu         sync.Mutex
		res        = &Result{}
		generating = true
		topups     []topupCand
	)

	// Producer: stream programs out of the source into the bounded queue.
	// A full queue applies backpressure to generation; campaign
	// cancellation (user or fail-fast) aborts the source via cctx.
	var genErr error
	var producerWG sync.WaitGroup
	producerWG.Add(1)
	go func() {
		defer producerWG.Done()
		defer close(jobs)
		index := 0
		err := source(cctx, func(p codegen.Program) error {
			j := job{index: index, prog: p}
			index++
			mu.Lock()
			res.Emitted = index
			mu.Unlock()
			select {
			case jobs <- j:
				return nil
			case <-cctx.Done():
				return cctx.Err()
			}
		})
		mu.Lock()
		genErr = err
		generating = false
		mu.Unlock()
	}()

	// record files one finished variant and notifies the observers while
	// still holding mu, so they see the updates in completion order.
	record := func(r VariantResult) {
		mu.Lock()
		res.Results = append(res.Results, r)
		if r.CacheHit {
			res.CacheHits++
		}
		if r.Err != nil {
			res.Failures++
		}
		if r.Quarantined {
			res.Quarantined++
		}
		upd := res.update(generating)
		for _, o := range opts.Observers {
			o.Update(upd)
		}
		mu.Unlock()
		if r.Err != nil {
			cnt.failures.Inc()
			if opts.FailFast {
				cancel()
			}
		}
	}

	// Resolve the launch machine's decode signature once: pre-decoding each
	// variant against it (below, in measure) warms the program's µop cache
	// so every launch attempt — first try, cache-miss relaunch, or retry —
	// shares one decode instead of redoing it per attempt. A resolution
	// error is left for the launch itself to surface.
	var decodeArch *isa.Arch
	var launchDesc *machine.Machine
	if desc, err := machine.ByName(opts.Launch.MachineName); err == nil {
		decodeArch = desc.Arch
		launchDesc = desc
	}
	// The static-bound arch defaults to the launch machine's; tests
	// substitute a corrupted table through the seam.
	boundArch := opts.boundArch
	if boundArch == nil {
		boundArch = decodeArch
	}
	// Derive the variant-independent cache-key parts once per campaign. A
	// keyer error (unresolvable machine, unmarshalable options) would have
	// failed every per-variant Key call identically, so it is carried into
	// the loop and surfaces as a counted key error on each variant.
	var keyer *Keyer
	var keyerErr error
	if opts.Cache != nil {
		keyer, keyerErr = NewKeyer(opts.Launch)
	}

	// attempt runs one launch try, consulting the worker-launch injection
	// point first; an injected fault there models the worker dying before
	// the launcher even starts.
	attempt := func(ctx context.Context, name string, kernel *isa.Program, lopts launcher.Options) (*launcher.Measurement, error) {
		if err := opts.Launch.Faults.Check(faults.PointCampaignLaunch, name); err != nil {
			return nil, err
		}
		cnt.launches.Inc()
		mu.Lock()
		res.Launches++
		mu.Unlock()
		return launch(ctx, kernel, lopts)
	}

	// launchWithRetries is the full per-variant attempt loop — transient
	// retries with deterministic backoff, quarantine — shared by the main
	// pass and the adaptive top-up pass so both behave identically under
	// fault injection. A cancellation error propagates for the caller to
	// discard; every other error is final for this variant.
	launchWithRetries := func(vctx context.Context, sp obs.Span, name string, kernel *isa.Program, lopts launcher.Options) (m *launcher.Measurement, attempts int, isQuarantined bool, err error) {
		budget := opts.Retry.attempts()
		for {
			m, err = attempt(vctx, name, kernel, lopts)
			attempts++
			if err == nil {
				mu.Lock()
				res.RepsExecuted += m.Summary.N
				mu.Unlock()
				return
			}
			if cctx.Err() != nil && errors.Is(err, cctx.Err()) {
				return
			}
			if opts.Quarantine > 0 && attempts >= opts.Quarantine {
				isQuarantined = true
				cnt.quarantined.Inc()
				sp.Int("quarantined_after", int64(attempts))
				return
			}
			if attempts >= budget || vctx.Err() != nil || !faults.IsTransient(err) {
				return
			}
			cnt.retries.Inc()
			mu.Lock()
			res.Retries++
			mu.Unlock()
			rsp := sp.Child("retry").
				Int("attempt", int64(attempts)).
				Str("error", err.Error())
			opts.Retry.pause(vctx, name, attempts)
			rsp.End()
		}
	}

	// noteTopup remembers a successful adaptive variant whose achieved
	// RCIW (including the +Inf "no confidence" sentinel) missed target.
	noteTopup := func(index int, name string, kernel *isa.Program, m *launcher.Measurement) {
		if plan == nil || m.Adaptive == nil || !(m.Adaptive.RCIW > plan.TargetRCIW) {
			return
		}
		mu.Lock()
		topups = append(topups, topupCand{index: index, name: name, kernel: kernel, reps: m.Adaptive.Reps})
		mu.Unlock()
	}

	// mainKey derives main-pass cache keys from the campaign's Keyer.
	mainKey := func(kernel *isa.Program) (string, error) {
		if keyer == nil {
			return "", keyerErr
		}
		return keyer.Key(kernel)
	}

	// measureOne is the per-variant lookup → launchWithRetries → put path
	// shared by the main pass and the adaptive top-up pass: consult the
	// cache under keyOf's key, otherwise launch under the variant deadline
	// and store the canonical encoding. bound is the variant's static bound
	// in the report unit, stamped on the measurement (on a hit, on the
	// caller-owned copy Get returns, so entries that predate the field
	// are backfilled without touching the cache). A cancellation error
	// propagates for the caller to discard; any other error is final.
	measureOne := func(sp obs.Span, name string, kernel *isa.Program, lopts launcher.Options, keyOf func(*isa.Program) (string, error), bound float64) (m *launcher.Measurement, hit bool, attempts int, isQuarantined bool, err error) {
		var key string
		if opts.Cache != nil {
			if k, kerr := keyOf(kernel); kerr == nil {
				key = k
				if cm, ok := opts.Cache.Get(key); ok {
					sp.Child("cache.hit").End()
					cnt.hits.Inc()
					if bound > 0 {
						// Get hands out a private copy, so stamping it
						// leaves the cached entry untouched.
						cm.StaticBound = bound
					}
					return cm, true, 0, false, nil
				}
				sp.Child("cache.miss").End()
				cnt.misses.Inc()
			} else {
				// A variant without a key is measured but bypasses the
				// cache entirely; count it so warm-rerun regressions are
				// visible instead of silently re-launching.
				cnt.keyErrors.Inc()
				mu.Lock()
				res.KeyErrors++
				mu.Unlock()
				sp.Str("cache_key_error", kerr.Error())
			}
		}

		// Warm the kernel's µop decode cache before the first attempt.
		// Best-effort: a decode error is not cached, so a broken kernel
		// still fails inside the launch with its usual error path.
		if decodeArch != nil {
			_, _ = kernel.Decoded(decodeArch)
		}

		// The variant's deadline covers every attempt, retries and backoff
		// included; an expired deadline is a variant fault (recorded), not
		// a campaign cancellation (skipped).
		vctx := cctx
		if opts.VariantDeadline > 0 {
			var vcancel context.CancelFunc
			vctx, vcancel = context.WithTimeout(cctx, opts.VariantDeadline)
			defer vcancel()
		}
		m, attempts, isQuarantined, err = launchWithRetries(vctx, sp, name, kernel, lopts)
		if err != nil {
			return nil, false, attempts, isQuarantined, err
		}
		m.StaticBound = bound
		if key != "" {
			canon, perr := opts.Cache.Put(key, m)
			if perr != nil {
				// A failed cache write degrades to a future miss; the sweep
				// itself keeps its measurement and keeps going.
				cnt.putErrors.Inc()
				sp.Str("cache_put_error", perr.Error())
			}
			if canon != nil {
				m = canon // adopt the store's canonical encoding (bit-identical warm hits)
			}
		}
		return m, false, attempts, false, nil
	}

	measure := func(j job) {
		vt := variantHist.Start()
		defer vt.Stop()
		sp := root.Child("variant").Str("kernel", j.prog.Name).Int("index", int64(j.index))
		defer sp.End()
		cnt.variants.Inc()
		// Every pipeline path populates Parsed at emit time; Lowered only
		// lowers the kernel itself for hand-built programs, so no variant
		// re-parses assembly text here.
		kernel, err := j.prog.Lowered()
		if err != nil {
			sp.Str("error", err.Error())
			record(VariantResult{Index: j.index, Name: j.prog.Name, Err: err})
			return
		}
		// The static bound is a pure function of the kernel and the
		// machine, so it is computed for hits and misses alike (cache
		// entries predating the field backfill identically).
		coreBound := staticBoundCore(kernel, boundArch, opts.Launch)
		unitBound := boundInUnit(coreBound, launchDesc, opts.Launch)
		m, hit, attempts, isQuarantined, err := measureOne(sp, j.prog.Name, kernel, opts.Launch, mainKey, unitBound)
		if err != nil {
			// The campaign itself was canceled (user or fail-fast): the
			// variant was not measured and records no fault of its own.
			if cctx.Err() != nil && errors.Is(err, cctx.Err()) {
				return
			}
			sp.Str("error", err.Error())
			record(VariantResult{
				Index: j.index, Name: j.prog.Name,
				Attempts: attempts, Quarantined: isQuarantined, Err: err,
			})
			return
		}
		// Cache hits are not re-checked: they passed when first measured.
		if opts.CheckBounds && !hit {
			if v := checkBound(m, coreBound, launchDesc, opts.Launch); v != nil {
				cnt.boundViolations.Inc()
				sp.Str("bound_violation", v.Error())
				record(VariantResult{
					Index: j.index, Name: j.prog.Name,
					Attempts: attempts, StaticBound: unitBound, Err: v,
				})
				return
			}
		}
		record(VariantResult{
			Index: j.index, Name: j.prog.Name,
			Measurement: m, CacheHit: hit, Attempts: attempts, Stability: stabilityFor(m, cnt.backfilled),
			StaticBound: unitBound,
		})
		noteTopup(j.index, j.prog.Name, kernel, m)
	}

	drain(cctx, workers, jobs, func(j job) {
		queueDepth.Set(int64(len(jobs)))
		measure(j)
	})
	producerWG.Wait()
	queueDepth.Set(0)

	// Adaptive top-up pass: the repetition budget the main pass saved is
	// granted — split evenly, deterministically, in generation order — to
	// the variants whose achieved RCIW missed target. Each top-up re-runs
	// the variant under a derived plan (MinReps one past the prior stop,
	// MaxReps = prior reps + grant) with its own cache key, so a warm
	// adaptive re-run replays the whole two-pass schedule without a single
	// launch. The base measurement stands if a top-up fails.
	if plan != nil {
		mu.Lock()
		for i := range res.Results {
			if m := res.Results[i].Measurement; m != nil && m.Adaptive != nil {
				if d := plan.MaxReps - m.Adaptive.Reps; d > 0 {
					res.RepsSaved += d
				}
			}
		}
		cands := topups
		pos := make(map[int]int, len(res.Results))
		for i := range res.Results {
			pos[res.Results[i].Index] = i
		}
		extra := 0
		if len(cands) > 0 {
			extra = res.RepsSaved / len(cands)
		}
		cnt.repsSaved.Add(int64(res.RepsSaved))
		mu.Unlock()
		sort.Slice(cands, func(a, b int) bool { return cands[a].index < cands[b].index })
		topUp := func(c topupCand) {
			sp := root.Child("topup").Str("kernel", c.name).Int("index", int64(c.index))
			defer sp.End()
			mu.Lock()
			slot, ok := pos[c.index]
			var bound float64
			if ok {
				bound = res.Results[slot].StaticBound
			}
			mu.Unlock()
			if !ok {
				return
			}
			tplan := *plan
			tplan.MinReps = c.reps + 1
			tplan.MaxReps = c.reps + extra
			topts := opts.Launch
			topts.Adaptive = &tplan
			topKey := func(kernel *isa.Program) (string, error) { return Key(kernel, topts) }
			m, _, attempts, _, err := measureOne(sp, c.name, c.kernel, topts, topKey, bound)
			if err != nil {
				// The extra confidence is forfeited, not the variant: its
				// main-pass measurement stands.
				cnt.topupFailures.Inc()
				sp.Str("error", err.Error())
				return
			}
			gained := 0
			if m.Adaptive != nil && m.Adaptive.Reps > c.reps {
				gained = m.Adaptive.Reps - c.reps
			}
			cnt.repsTopUp.Add(int64(gained))
			sp.Int("reps_gained", int64(gained))
			mu.Lock()
			res.Results[slot].Measurement = m
			res.Results[slot].Stability = stabilityFor(m, cnt.backfilled)
			res.Results[slot].Attempts += attempts
			res.RepsTopUp += gained
			mu.Unlock()
		}
		if extra > 0 && cctx.Err() == nil {
			tjobs := make(chan topupCand, len(cands))
			for _, c := range cands {
				tjobs <- c
			}
			close(tjobs)
			drain(cctx, min(workers, len(cands)), tjobs, topUp)
		}
	}

	// Every worker and the producer have returned: res and genErr are
	// settled and no longer need mu.
	if plan != nil {
		for i := range res.Results {
			if m := res.Results[i].Measurement; m != nil && m.Adaptive != nil && m.Adaptive.RCIW > plan.TargetRCIW {
				res.TargetMisses++
			}
		}
	}
	sort.Slice(res.Results, func(a, b int) bool { return res.Results[a].Index < res.Results[b].Index })
	root.Int("variants", int64(res.Emitted)).
		Int("launches", int64(res.Launches)).
		Int("cache_hits", int64(res.CacheHits)).
		Int("failures", int64(res.Failures)).
		Int("retries", int64(res.Retries)).
		Int("quarantined", int64(res.Quarantined)).
		Int("key_errors", int64(res.KeyErrors))
	if plan != nil {
		root.Int("reps_saved", int64(res.RepsSaved)).
			Int("reps_topup", int64(res.RepsTopUp)).
			Int("reps_executed", int64(res.RepsExecuted)).
			Int("target_misses", int64(res.TargetMisses))
	}

	if err := ctx.Err(); err != nil {
		return finish(opts.Observers, res, err)
	}
	if genErr != nil && !errors.Is(genErr, context.Canceled) {
		return finish(opts.Observers, res, &SetupError{Stage: "generate", Err: genErr})
	}
	if err := res.Err(); err != nil {
		return finish(opts.Observers, res, err)
	}
	if res.Emitted == 0 {
		return finish(opts.Observers, res, ErrNoVariants)
	}
	return finish(opts.Observers, res, nil)
}

// counters are the engine's named event counters, resolved once per run.
// Without a registry every handle is nil and every increment a no-op.
type counters struct {
	variants, launches, hits, misses, keyErrors, putErrors, failures,
	retries, quarantined, boundViolations, backfilled,
	repsSaved, repsTopUp, topupFailures *telemetry.Counter
}

func newCounters(r *telemetry.Registry) counters {
	return counters{
		variants:        r.Counter("campaign.variants"),
		launches:        r.Counter("campaign.launches"),
		hits:            r.Counter("campaign.cache.hits"),
		misses:          r.Counter("campaign.cache.misses"),
		keyErrors:       r.Counter("campaign.cache.key_errors"),
		putErrors:       r.Counter("campaign.cache.put_errors"),
		failures:        r.Counter("campaign.failures"),
		retries:         r.Counter("campaign.retry"),
		quarantined:     r.Counter("variant.quarantined"),
		boundViolations: r.Counter("analysis.bound.violations"),
		backfilled:      r.Counter("campaign.stability.backfilled"),
		repsSaved:       r.Counter("campaign.reps.saved"),
		repsTopUp:       r.Counter("campaign.reps.topup"),
		topupFailures:   r.Counter("campaign.topup.failures"),
	}
}

// update is the observer event for the accounting so far; generating
// reports whether the producer is still emitting.
func (r *Result) update(generating bool) telemetry.CampaignUpdate {
	return telemetry.CampaignUpdate{
		Done:        len(r.Results),
		Emitted:     r.Emitted,
		Generating:  generating,
		CacheHits:   r.CacheHits,
		Failed:      r.Failures,
		Launches:    r.Launches,
		Retries:     r.Retries,
		Quarantined: r.Quarantined,
		KeyErrors:   r.KeyErrors,
	}
}

// finish closes the observers' event stream on every exit path of a run:
// the settled totals, then End with the campaign's error (nil on success),
// so a live view agrees with the returned Result to the bit.
func finish(observers []Observer, res *Result, err error) (*Result, error) {
	upd := res.update(false)
	for _, o := range observers {
		o.Update(upd)
		o.End(err)
	}
	return res, err
}

// drain runs fn over every item received from in on n workers and returns
// once in is closed and drained. After ctx is canceled the remaining items
// are received but not processed.
func drain[T any](ctx context.Context, n int, in <-chan T, fn func(T)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range in {
				if ctx.Err() == nil {
					fn(v)
				}
			}
		}()
	}
	wg.Wait()
}

// stabilityFor returns a measurement's stored stability statistics,
// backfilling them from the summary for cache entries written before the
// launcher recorded the field. The backfill is versioned: entries that
// predate the field also predate the small-sample statistics fix
// (sample stddev, Student-t), so they are recomputed with BOTH formula
// generations and the legacy values are preferred — the contract in force
// when those entries were written — which keeps warm caches bit-stable
// instead of silently flipping RCIWs under their consumers. Each backfill
// is counted (campaign.stability.backfilled) so cache-age drift is
// observable; when the two generations agree exactly, the shared value is
// returned.
func stabilityFor(m *launcher.Measurement, backfilled *telemetry.Counter) stats.Stability {
	if m.Stability.N != 0 {
		return m.Stability
	}
	backfilled.Inc()
	legacy := stats.LegacyStabilityOf(m.Summary)
	if current := stats.StabilityOf(m.Summary); current == legacy {
		return current
	}
	return legacy
}

// RunFile is Run over an XML file on disk. Like Run, the returned Result
// is always non-nil; an unreadable spec file surfaces as a *SetupError
// (Stage "open") whose cause stays reachable through errors.Is, e.g.
// errors.Is(err, fs.ErrNotExist).
func RunFile(ctx context.Context, path string, gen core.GenerateOptions, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return finish(opts.Observers, &Result{}, &SetupError{Stage: "open", Path: path, Err: err})
	}
	defer f.Close()
	return Run(ctx, f, gen, opts)
}
