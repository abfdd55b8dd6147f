// Package faults is a deterministic, seed-driven fault-injection registry:
// the chaos substrate behind the campaign engine's resilience policy.
//
// The paper's central claim for MicroLauncher is measurement in a stable,
// controlled environment (§4); nanoBench and μOpTime extend that claim to
// the runner itself — how a measurement campaign behaves under disturbance
// is part of the measurement contract, not an afterthought. This package
// makes failure paths exercisable on demand and, crucially, reproducible:
//
//   - named injection points thread through the execution stack (worker
//     launch, measurement-cache I/O, launcher repetition boundaries, sim
//     stepping — see the Point* constants);
//   - whether a given (point, key) site faults is a pure function of the
//     injector's seed, never of wall-clock time or goroutine scheduling,
//     so the injected-fault set of a campaign is bit-reproducible from the
//     seed alone regardless of worker count;
//   - faults carry a transient-vs-permanent taxonomy reachable through
//     errors.Is/As, which the campaign's retry policy keys off: transient
//     faults heal after Burst consecutive injections at a site, permanent
//     ones never do.
//
// The error surface composes with the standard errors package:
//
//	errors.Is(err, faults.ErrInjected)   // any injected fault
//	errors.Is(err, faults.ErrTransient)  // transient (retry may succeed)
//	errors.Is(err, faults.ErrPermanent)  // permanent (retry is futile)
//	var fe *faults.Error
//	errors.As(err, &fe)                  // fe.Point, fe.Key, fe.Class
//
// Transient and Permanent wrap real (non-injected) errors into the same
// taxonomy, so custom launchers and stores can classify their own failures
// and have the campaign retry policy treat them uniformly.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"microtools/internal/telemetry"
)

// Named injection points, in execution-stack order. An Injector accepts
// arbitrary point names (plugins may add their own); these constants cover
// the built-in instrumentation.
const (
	// PointCampaignLaunch fires in the campaign worker as a variant's
	// launch begins (key: the variant name).
	PointCampaignLaunch = "campaign.launch"
	// PointCacheGet fires inside Cache.Get (key: the cache key); an
	// injected fault degrades the lookup to a miss.
	PointCacheGet = "cache.get"
	// PointCachePut fires inside Cache.Put before the entry is stored
	// (key: the cache key); the measurement is reported uncacheable.
	PointCachePut = "cache.put"
	// PointCacheCheckpoint fires on the checkpoint append to the backing
	// file (key: the cache key): the entry lands in memory but the write
	// "fails", the torn-checkpoint scenario.
	PointCacheCheckpoint = "cache.checkpoint"
	// PointLauncherRep fires at every outer-repetition boundary of the
	// launch protocol (key: kernel name + "/rep" + index).
	PointLauncherRep = "launcher.rep"
	// PointSimStep fires as the simulator starts stepping a job batch
	// (key: the launch's fault key + the program name).
	PointSimStep = "sim.step"
)

// Points lists the built-in injection points in execution-stack order.
func Points() []string {
	return []string{
		PointCampaignLaunch,
		PointCacheGet,
		PointCachePut,
		PointCacheCheckpoint,
		PointLauncherRep,
		PointSimStep,
	}
}

// Class is a fault's retry semantics.
type Class int

const (
	// ClassTransient faults heal: a retry of the same site succeeds once
	// the site's Burst budget is consumed.
	ClassTransient Class = iota
	// ClassPermanent faults never heal; retrying is futile.
	ClassPermanent
)

func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Sentinel errors for the errors.Is taxonomy. ErrInjected matches every
// injector-produced fault; ErrTransient/ErrPermanent match by class (and
// also match real errors wrapped via Transient/Permanent).
var (
	ErrInjected  = errors.New("faults: injected fault")
	ErrTransient = errors.New("faults: transient fault")
	ErrPermanent = errors.New("faults: permanent fault")
)

// Error is one classified fault: either injected by an Injector (Err wraps
// ErrInjected) or a real error wrapped into the taxonomy by Transient /
// Permanent.
type Error struct {
	// Point is the injection point that produced the fault ("" for
	// wrapped real errors).
	Point string
	// Key identifies the faulting site within the point ("" for wrapped
	// real errors).
	Key string
	// Class is the retry semantics.
	Class Class
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	if e.Point == "" {
		return fmt.Sprintf("%s fault: %v", e.Class, e.Err)
	}
	return fmt.Sprintf("%s fault at %s[%s]: %v", e.Class, e.Point, e.Key, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is matches the class sentinels: a transient *Error is ErrTransient, a
// permanent one ErrPermanent (ErrInjected matches through Unwrap).
func (e *Error) Is(target error) bool {
	switch target {
	case ErrTransient:
		return e.Class == ClassTransient
	case ErrPermanent:
		return e.Class == ClassPermanent
	}
	return false
}

// Transient wraps a real error as a transient fault: errors.Is(..,
// ErrTransient) holds and the campaign retry policy will re-attempt it.
// A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: ClassTransient, Err: err}
}

// Permanent wraps a real error as a permanent fault: errors.Is(..,
// ErrPermanent) holds and retry is skipped. A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Class: ClassPermanent, Err: err}
}

// IsTransient reports whether err is classified transient — the retry
// policy's gate. Unclassified errors are NOT transient: a plain launcher
// error (bad options, a malformed kernel) will not heal on retry.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsPermanent reports whether err is classified permanent.
func IsPermanent(err error) bool { return errors.Is(err, ErrPermanent) }

// Site is one faulting (point, key) pair an injector actually fired at.
type Site struct {
	Point string
	Key   string
	Class Class
	// Count is how many faults the site injected (capped at Burst for
	// transient sites).
	Count int
}

// Injector decides, deterministically from its seed, which (point, key)
// sites fault. The zero rate at every point means no faults; SetRate arms
// individual points (or "*" for all). Whether a site faults depends only
// on (seed, point, key) — never on time, ordering or concurrency — so two
// runs over the same variant set inject the identical fault set.
//
// Transient sites fault on their first Burst checks and then heal: the
// campaign's bounded retry of a faulted variant re-checks the same site
// and succeeds, which is what makes "same seed ⇒ clean-run-identical
// final results" provable. Permanent sites fault on every check.
//
// A nil *Injector is the disabled default: Check returns nil immediately,
// mirroring the nil-*Tracer and nil-*telemetry.Counter conventions.
type Injector struct {
	seed  int64
	burst int
	class Class

	mu       sync.Mutex
	rates    map[string]float64
	hits     map[[2]string]int
	injected *telemetry.Counter
}

// New returns an injector with no armed points: every Check passes until
// SetRate arms a point.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		burst: 1,
		rates: map[string]float64{},
		hits:  map[[2]string]int{},
	}
}

// SetRate arms an injection point with a fault probability in [0, 1].
// The point "*" sets the default rate for every point without an explicit
// one. Returns the injector for chaining.
func (in *Injector) SetRate(point string, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rates[point] = rate
	return in
}

// SetBurst sets how many consecutive checks of a transient faulty site
// fail before it heals (default 1). Returns the injector for chaining.
func (in *Injector) SetBurst(n int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n > 0 {
		in.burst = n
	}
	return in
}

// SetClass selects the class of injected faults (default ClassTransient).
// Returns the injector for chaining.
func (in *Injector) SetClass(c Class) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.class = c
	return in
}

// SetCounter attaches a live counter (conventionally the registry's
// "faults.injected") that every injection increments. Returns the
// injector for chaining.
func (in *Injector) SetCounter(c *telemetry.Counter) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.injected = c
	return in
}

// faulty reports whether the site is in the seed's fault set: a pure
// function of (seed, point, key). Callers hold in.mu.
func (in *Injector) faulty(point, key string) bool {
	rate, ok := in.rates[point]
	if !ok {
		rate = in.rates["*"]
	}
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	var seedBytes [8]byte
	for i := range seedBytes {
		seedBytes[i] = byte(uint64(in.seed) >> (8 * i))
	}
	h.Write(seedBytes[:])
	h.Write([]byte(point))
	h.Write([]byte{0})
	h.Write([]byte(key))
	// 53 mantissa bits of the hash → uniform in [0, 1).
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return u < rate
}

// Check consults the fault plan at an injection point. It returns nil for
// healthy sites; for faulty ones it returns an *Error of the configured
// class. Transient sites return errors on their first Burst checks only —
// the (deterministic) model of a disturbance that passes: a retry of the
// same site succeeds. Permanent sites fail every check.
func (in *Injector) Check(point, key string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	if !in.faulty(point, key) {
		in.mu.Unlock()
		return nil
	}
	site := [2]string{point, key}
	if in.class == ClassTransient && in.hits[site] >= in.burst {
		in.mu.Unlock()
		return nil // healed: the site's burst budget is spent
	}
	in.hits[site]++
	class := in.class
	injected := in.injected
	in.mu.Unlock()
	injected.Inc()
	return &Error{Point: point, Key: key, Class: class, Err: ErrInjected}
}

// Count returns the total number of faults injected so far.
func (in *Injector) Count() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, c := range in.hits {
		n += int64(c)
	}
	return n
}

// Injected returns every site that fired, sorted by (point, key) — the
// stable form the chaos harness compares across runs.
func (in *Injector) Injected() []Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Site, 0, len(in.hits))
	for site, n := range in.hits {
		out = append(out, Site{Point: site[0], Key: site[1], Class: in.class, Count: n})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Point != out[b].Point {
			return out[a].Point < out[b].Point
		}
		return out[a].Key < out[b].Key
	})
	return out
}

// Reset forgets every site's hit history (the fault plan itself — seed,
// rates, burst, class — is kept), so one injector can replay the same
// schedule over a fresh campaign.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits = map[[2]string]int{}
}
