package memsim

import "math/rand"

// cache is one set-associative cache instance with LRU replacement.
// Lines are identified by their line address (address with offset bits
// cleared); tag 0 marks an invalid way.
type cache struct {
	cfg      CacheConfig
	sets     int64
	lineMask uint64
	setMask  uint64 // used when sets is a power of two; otherwise modulo
	pow2Sets bool
	shift    uint

	// ways[set*assoc + way] holds the line address (0 = invalid).
	ways []uint64
	// stamp[set*assoc + way] is the LRU timestamp.
	stamp []int64
	dirty []bool
	tick  int64
}

func newCache(cfg CacheConfig) *cache {
	sets := cfg.Size / (cfg.LineSize * int64(cfg.Assoc))
	c := &cache{
		cfg:      cfg,
		sets:     sets,
		lineMask: ^uint64(cfg.LineSize - 1),
		setMask:  uint64(sets - 1),
		pow2Sets: sets&(sets-1) == 0,
		ways:     make([]uint64, sets*int64(cfg.Assoc)),
		stamp:    make([]int64, sets*int64(cfg.Assoc)),
		dirty:    make([]bool, sets*int64(cfg.Assoc)),
	}
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	c.shift = shift
	return c
}

func (c *cache) lineOf(addr uint64) uint64 { return addr & c.lineMask }

func (c *cache) setOf(line uint64) int64 {
	if c.pow2Sets {
		return int64((line >> c.shift) & c.setMask)
	}
	// Non-power-of-two set counts (e.g. 12MB/16-way Nehalem L3) index by
	// modulo, standing in for the hash the real part uses.
	return int64((line >> c.shift) % uint64(c.sets))
}

// lookup probes for the line; on hit it refreshes LRU state (and optionally
// marks the line dirty) and returns true.
func (c *cache) lookup(line uint64, markDirty bool) bool {
	base := c.setOf(line) * int64(c.cfg.Assoc)
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == line {
			c.tick++
			c.stamp[base+w] = c.tick
			if markDirty {
				c.dirty[base+w] = true
			}
			return true
		}
	}
	return false
}

// contains probes without touching LRU state.
func (c *cache) contains(line uint64) bool {
	base := c.setOf(line) * int64(c.cfg.Assoc)
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == line {
			return true
		}
	}
	return false
}

// insert places a line, evicting the LRU way if needed. It returns the
// evicted line and whether it was dirty (victim == 0 means no eviction).
func (c *cache) insert(line uint64, dirty bool) (victim uint64, victimDirty bool) {
	base := c.setOf(line) * int64(c.cfg.Assoc)
	// Already present (e.g. racing prefetch): refresh.
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == line {
			c.tick++
			c.stamp[base+w] = c.tick
			if dirty {
				c.dirty[base+w] = true
			}
			return 0, false
		}
	}
	// Free way?
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == 0 {
			c.fill(base+w, line, dirty)
			return 0, false
		}
	}
	// Evict LRU.
	lru := base
	for w := base + 1; w < base+int64(c.cfg.Assoc); w++ {
		if c.stamp[w] < c.stamp[lru] {
			lru = w
		}
	}
	victim, victimDirty = c.ways[lru], c.dirty[lru]
	c.fill(lru, line, dirty)
	return victim, victimDirty
}

func (c *cache) fill(slot int64, line uint64, dirty bool) {
	c.tick++
	c.ways[slot] = line
	c.stamp[slot] = c.tick
	c.dirty[slot] = dirty
}

// invalidate drops the line if present, returning whether it was dirty.
func (c *cache) invalidate(line uint64) (present, wasDirty bool) {
	base := c.setOf(line) * int64(c.cfg.Assoc)
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == line {
			present, wasDirty = true, c.dirty[base+w]
			c.ways[base+w] = 0
			c.dirty[base+w] = false
			return
		}
	}
	return false, false
}

// flush invalidates everything (cold-cache noise, core migration).
func (c *cache) flush() {
	for i := range c.ways {
		c.ways[i] = 0
		c.dirty[i] = false
		c.stamp[i] = 0
	}
}

// reset returns the cache to its freshly built state: no valid lines and
// the LRU clock at zero.
func (c *cache) reset() {
	clear(c.ways)
	clear(c.stamp)
	clear(c.dirty)
	c.tick = 0
}

// invalidateFraction drops approximately frac of all lines, using the seeded
// rng (interrupt-noise model: an interrupt handler evicts part of the
// cache).
func (c *cache) invalidateFraction(rng *rand.Rand, frac float64) {
	for i := range c.ways {
		if c.ways[i] != 0 && rng.Float64() < frac {
			c.ways[i] = 0
			c.dirty[i] = false
		}
	}
}

// footprint counts valid lines (for tests).
func (c *cache) footprint() int {
	n := 0
	for _, w := range c.ways {
		if w != 0 {
			n++
		}
	}
	return n
}
