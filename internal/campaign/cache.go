package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"microtools/internal/faults"
	"microtools/internal/isa"
	"microtools/internal/jsonl"
	"microtools/internal/launcher"
	"microtools/internal/machine"
	"microtools/internal/memsim"
)

// keyVersion is folded into every cache key so a future change to the key
// recipe or the Measurement encoding invalidates old entries instead of
// serving stale ones.
const keyVersion = "microtools-campaign-v1"

// Keyer derives content-addressed cache keys for one campaign's launch
// options. The key recipe is SHA-256 over (1) the canonical kernel assembly
// — the decoded program re-printed, so formatting-only differences in the
// input text hash identically; (2) every measurement-relevant launcher
// option (output writers and tracers excluded); and (3) the resolved
// machine model's parameters, so editing a machine description invalidates
// entries measured under the old model. The option and machine parts are
// variant-independent, so a Keyer marshals them once and per-variant key
// derivation streams the kernel rendering through the hash from a pooled
// buffer — no per-key JSON, no per-key assembly string.
type Keyer struct {
	// fixed is the variant-independent tail of the hashed bytes:
	// optJSON \0 machJSON \0.
	fixed []byte
}

// NewKeyer resolves and marshals the variant-independent key parts.
func NewKeyer(opts launcher.Options) (*Keyer, error) {
	scrub := opts
	scrub.Verbose = nil
	scrub.Tracer = nil
	scrub.Faults = nil  // the fault plan perturbs execution, not the key
	scrub.Metrics = nil // live instrumentation observes the run, it is not part of it
	optJSON, err := json.Marshal(scrub)
	if err != nil {
		return nil, fmt.Errorf("campaign: hashing options: %w", err)
	}
	desc, err := machine.ByName(opts.MachineName)
	if err != nil {
		return nil, err
	}
	// The machine model without its Arch pointer (the name identifies the
	// ISA/uarch tables; the measurable parameters are listed explicitly).
	machJSON, err := json.Marshal(struct {
		Name              string
		Cores             int
		Sockets           int
		CoreGHz           float64
		UncoreGHz         float64
		RefGHz            float64
		Hierarchy         memsim.HierarchyConfig
		FrequencyStepsGHz []float64
	}{desc.Name, desc.Cores, desc.Sockets, desc.CoreGHz, desc.UncoreGHz,
		desc.RefGHz, desc.Hierarchy, desc.FrequencyStepsGHz})
	if err != nil {
		return nil, fmt.Errorf("campaign: hashing machine model: %w", err)
	}
	fixed := make([]byte, 0, len(optJSON)+len(machJSON)+2)
	fixed = append(fixed, optJSON...)
	fixed = append(fixed, 0)
	fixed = append(fixed, machJSON...)
	fixed = append(fixed, 0)
	return &Keyer{fixed: fixed}, nil
}

// bufPool recycles the buffers Keyer.Key hashes from and Cache.Put
// encodes its lines into.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Key derives the cache key for one kernel. The digest is identical to the
// package-level Key: SHA-256 over the NUL-separated parts, with the kernel
// rendering appended via AppendPrint instead of materialized as a string,
// and its hex form appended into the same buffer.
func (ky *Keyer) Key(kernel *isa.Program) (string, error) {
	if kernel == nil {
		return "", fmt.Errorf("campaign: nil kernel")
	}
	bp := bufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, keyVersion...)
	buf = append(buf, 0)
	buf = kernel.AppendPrint(buf)
	buf = append(buf, 0)
	buf = append(buf, ky.fixed...)
	sum := sha256.Sum256(buf)
	buf = hex.AppendEncode(buf[:0], sum[:])
	key := string(buf)
	*bp = buf
	bufPool.Put(bp)
	return key, nil
}

// Key derives the content-addressed cache key for measuring a kernel under
// the given options (see Keyer). One-shot form: campaigns reuse a Keyer.
func Key(kernel *isa.Program, opts launcher.Options) (string, error) {
	ky, err := NewKeyer(opts)
	if err != nil {
		return "", err
	}
	return ky.Key(kernel)
}

// cacheEntry is one JSONL line of the on-disk store.
type cacheEntry struct {
	Key         string          `json:"key"`
	Measurement json.RawMessage `json:"measurement"`
}

// Cache is a content-addressed measurement store: Key → Measurement,
// optionally backed by an append-only JSONL file. Completed measurements
// are flushed to disk as they land, so an interrupted campaign's cache is
// a valid checkpoint and re-running the campaign resumes from it, skipping
// every already-measured variant.
//
// Each entry is held as the canonical value its stored encoding decodes
// to — decoded once at load time, or derived by the Put that stored it —
// so a cache hit is bit-identical to the cold measurement (see Put). Get
// and Put hand out values the caller owns; the held values are never
// mutated. Corrupted lines in the backing file (a torn write from a killed
// process, stray garbage, a line over jsonl.MaxLine, an entry with no
// repetitions) are skipped at load time: a corrupt entry degrades to a
// cache miss, never to an error.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*launcher.Measurement
	file    *jsonl.File // nil for a memory-only cache
	// faults, when non-nil, injects deterministic failures at the store's
	// I/O boundaries (see SetFaults).
	faults *faults.Injector
}

// SetFaults arms the store's fault-injection points: cache.get (a lookup
// degrades to a miss), cache.put (the entry is rejected before storing)
// and cache.checkpoint (the entry lands in memory but the backing-file
// append fails — the torn-checkpoint scenario). Only the cache's owner
// arms these points: a campaign's Launch.Faults never reaches the cache.
// The injector stays attached until replaced; a nil injector detaches.
func (c *Cache) SetFaults(in *faults.Injector) {
	c.mu.Lock()
	c.faults = in
	c.mu.Unlock()
}

// NewMemoryCache returns a cache with no backing file (useful for tests
// and single-process warm reruns).
func NewMemoryCache() *Cache {
	return &Cache{entries: map[string]*launcher.Measurement{}}
}

// OpenCache opens (creating if needed) a JSONL-backed cache at path and
// loads every well-formed entry; malformed or overlong lines are skipped.
// The file's rules (appending, the torn last line, a read error failing
// the open) are jsonl.Open's.
func OpenCache(path string) (*Cache, error) {
	c := NewMemoryCache()
	f, err := jsonl.Open(path, func(line []byte, tooLong bool) {
		var e cacheEntry
		if !tooLong && json.Unmarshal(line, &e) == nil && e.Key != "" && len(e.Measurement) > 0 {
			// null and {} decode without error into a zero value; an
			// entry without a single repetition is never a launcher
			// result, so it degrades to a miss like any corrupt line.
			var m launcher.Measurement
			if json.Unmarshal(e.Measurement, &m) == nil && m.Summary.N > 0 {
				c.entries[e.Key] = &m
			}
		}
	})
	if err != nil {
		return nil, err
	}
	c.file = f
	return c, nil
}

// Len reports the number of cached measurements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns a deep copy of the cached measurement for key, which the
// caller owns and may mutate, or (nil, false) on a miss.
func (c *Cache) Get(key string) (*launcher.Measurement, bool) {
	c.mu.Lock()
	m, ok := c.entries[key]
	inj := c.faults
	c.mu.Unlock()
	if err := inj.Check(faults.PointCacheGet, key); err != nil {
		return nil, false // an injected read fault degrades to a miss
	}
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// Put stores a measurement under key, appending it to the backing file
// when one is attached, and returns the canonicalized measurement — the
// value its stored encoding decodes to, which the caller owns. Callers
// should adopt the returned value: it is what every future Get for this
// key yields, so cold and cache-warm campaign results stay bit-identical
// by construction. A measurement that does not survive the encoding
// (e.g. a NaN value), or that holds no repetition (which OpenCache would
// skip on reload), is reported as an error and simply not cached.
func (c *Cache) Put(key string, m *launcher.Measurement) (*launcher.Measurement, error) {
	if m.Summary.N == 0 {
		return nil, fmt.Errorf("campaign: measurement not cacheable: no repetitions")
	}
	c.mu.Lock()
	inj := c.faults
	c.mu.Unlock()
	if err := inj.Check(faults.PointCachePut, key); err != nil {
		return nil, fmt.Errorf("campaign: cache put: %w", err)
	}
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	line, held, out, err := entry((*bp)[:0], key, m)
	if err != nil {
		return nil, err
	}
	*bp = line
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = held
	if err := inj.Check(faults.PointCacheCheckpoint, key); err != nil {
		// The entry is live in memory; only the checkpoint write "failed".
		return out, fmt.Errorf("campaign: cache append: %w", err)
	}
	if err := c.file.Append(line); err != nil {
		return out, fmt.Errorf("campaign: cache append: %w", err)
	}
	return out, nil
}

// entry encodes m's JSONL line under key, appending it to b, and returns
// it with the canonical value the cache holds and the one Put hands back
// (distinct, sharing no memory). The line is appended in one pass
// (launcher.AppendCacheLine); when m already is its own decoded form, as
// a launcher result is unless it holds a NaN or an infinity other than a
// +Inf rciw, the held value is a copy of m and m itself is handed back. Any other measurement goes through
// encoding/json: it fails on a non-finite value, and the canonical value
// is decoded back out of its bytes (invalid UTF-8 replaced, a non-finite
// rciw read back as +Inf).
func entry(b []byte, key string, m *launcher.Measurement) (line []byte, held, out *launcher.Measurement, err error) {
	line, canonical := launcher.AppendCacheLine(b, key, m)
	if canonical {
		return line, m.Clone(), m, nil
	}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: measurement not cacheable: %w", err)
	}
	var canon launcher.Measurement
	if err := json.Unmarshal(raw, &canon); err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: measurement does not round-trip: %w", err)
	}
	if line, err = json.Marshal(cacheEntry{Key: key, Measurement: raw}); err != nil {
		return nil, nil, nil, err
	}
	return append(line, '\n'), &canon, canon.Clone(), nil
}

// Close releases the backing file (a no-op for memory caches).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.file.Close()
	c.file = nil
	return err
}
