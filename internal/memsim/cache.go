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

	// marked[set] records that the set has held a line since the last
	// reset; touched lists the marked sets in marking order. Only a marked
	// set can hold a non-zero ways, stamp or dirty slot, so reset clears
	// just those and costs in proportion to what the launch filled.
	marked  []bool
	touched []int64
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
		marked:   make([]bool, sets),
		touched:  []int64{},
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
	set := c.setOf(line)
	assoc := int64(c.cfg.Assoc)
	base := set * assoc
	for w, l := range c.ways[base : base+assoc] {
		if l == line {
			if line == 0 {
				// Line 0 matches an invalid way, so only its hits can
				// touch a set no insert marked.
				c.mark(set)
			}
			c.tick++
			c.stamp[base+int64(w)] = c.tick
			if markDirty {
				c.dirty[base+int64(w)] = true
			}
			return true
		}
	}
	return false
}

// mark records that set may hold state reset must clear.
func (c *cache) mark(set int64) {
	if !c.marked[set] {
		c.marked[set] = true
		c.touched = append(c.touched, set)
	}
}

// contains probes without touching LRU state.
func (c *cache) contains(line uint64) bool {
	assoc := int64(c.cfg.Assoc)
	base := c.setOf(line) * assoc
	for _, l := range c.ways[base : base+assoc] {
		if l == line {
			return true
		}
	}
	return false
}

// insert places a line, evicting the LRU way if needed. It returns the
// evicted line and whether it was dirty (victim == 0 means no eviction).
// One pass over the set refreshes the line if already present (e.g. a
// racing prefetch), else fills the first free way, else replaces the first
// way with the oldest stamp.
func (c *cache) insert(line uint64, dirty bool) (victim uint64, victimDirty bool) {
	set := c.setOf(line)
	c.mark(set)
	assoc := int64(c.cfg.Assoc)
	base := set * assoc
	ways := c.ways[base : base+assoc]
	stamp := c.stamp[base : base+assoc]
	free, lru := -1, 0
	for w, l := range ways {
		if l == line {
			c.tick++
			stamp[w] = c.tick
			if dirty {
				c.dirty[base+int64(w)] = true
			}
			return 0, false
		}
		if l == 0 {
			if free < 0 {
				free = w
			}
		} else if stamp[w] < stamp[lru] {
			lru = w
		}
	}
	if free >= 0 {
		c.fill(base+int64(free), line, dirty)
		return 0, false
	}
	slot := base + int64(lru)
	victim, victimDirty = c.ways[slot], c.dirty[slot]
	c.fill(slot, line, dirty)
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

// reset returns the cache to its freshly built state: no valid lines and
// the LRU clock at zero. Only the sets marked since the last reset can
// differ from that state, so only they are cleared.
func (c *cache) reset() {
	assoc := int64(c.cfg.Assoc)
	for _, set := range c.touched {
		base := set * assoc
		clear(c.ways[base : base+assoc])
		clear(c.stamp[base : base+assoc])
		clear(c.dirty[base : base+assoc])
		c.marked[set] = false
	}
	c.touched = c.touched[:0]
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
