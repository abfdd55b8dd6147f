package memsim

import (
	"math/rand"
	"slices"
	"testing"
)

// refInsert is the three-pass insert the one-pass cache.insert replaced:
// refresh a present line, else fill the first free way, else evict the
// first way with the oldest stamp.
func refInsert(c *cache, line uint64, dirty bool) (victim uint64, victimDirty bool) {
	base := c.setOf(line) * int64(c.cfg.Assoc)
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
	for w := int64(0); w < int64(c.cfg.Assoc); w++ {
		if c.ways[base+w] == 0 {
			c.fill(base+w, line, dirty)
			return 0, false
		}
	}
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

// refReset clears the whole cache, as reset did before it tracked the
// sets a launch filled.
func refReset(c *cache) {
	clear(c.ways)
	clear(c.stamp)
	clear(c.dirty)
	c.tick = 0
}

// TestCacheMatchesReference drives the cache and a reference copy (three-pass
// insert, whole-array reset) with seeded random traffic mixing every cache
// operation, and requires identical results and identical ways, stamp and
// dirty arrays after each one. Both a power-of-two and a modulo-indexed set
// count are covered, and the line universe includes line 0, which matches an
// invalid way.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{Name: "pow2", Size: 4 << 10, LineSize: 64, Assoc: 8},
		{Name: "mod", Size: 12 * 64 * 12, LineSize: 64, Assoc: 12},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			got, ref := newCache(cfg), newCache(cfg)
			rng := rand.New(rand.NewSource(1))
			// Twice the cache's line count, so sets fill and evict.
			lines := 2 * int(cfg.Size/cfg.LineSize)
			gotNoise, refNoise := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
			for op := 0; op < 50000; op++ {
				line := uint64(rng.Intn(lines)) * uint64(cfg.LineSize)
				dirty := rng.Intn(2) == 0
				switch k := rng.Intn(100); {
				case k < 45:
					gv, gd := got.insert(line, dirty)
					rv, rd := refInsert(ref, line, dirty)
					if gv != rv || gd != rd {
						t.Fatalf("op %d: insert(%#x) = (%#x, %v), reference (%#x, %v)", op, line, gv, gd, rv, rd)
					}
				case k < 85:
					if g, r := got.lookup(line, dirty), ref.lookup(line, dirty); g != r {
						t.Fatalf("op %d: lookup(%#x) = %v, reference %v", op, line, g, r)
					}
				case k < 95:
					gp, gd := got.invalidate(line)
					rp, rd := ref.invalidate(line)
					if gp != rp || gd != rd {
						t.Fatalf("op %d: invalidate(%#x) = (%v, %v), reference (%v, %v)", op, line, gp, gd, rp, rd)
					}
				case k < 97:
					got.invalidateFraction(gotNoise, 0.3)
					ref.invalidateFraction(refNoise, 0.3)
				default:
					got.reset()
					refReset(ref)
				}
				if got.tick != ref.tick || !slices.Equal(got.ways, ref.ways) ||
					!slices.Equal(got.stamp, ref.stamp) || !slices.Equal(got.dirty, ref.dirty) {
					t.Fatalf("op %d: cache state diverged from the reference", op)
				}
			}
		})
	}
}

// TestInflightHitsWaitForFill pins the in-flight checks on the hit paths: an
// L1 hit on a line whose fill is still outstanding, and an L2 hit on a line
// the streamer is still pulling in, both return the fill's ready cycle.
func TestInflightHitsWaitForFill(t *testing.T) {
	const at = 1000
	t.Run("L1", func(t *testing.T) {
		s := newTestSystem(t, 1)
		fill := s.Load(0, 0x40000, 8, at)
		hits := s.Stats().L1Hits
		if got := s.Load(0, 0x40008, 8, at+1); got != fill {
			t.Errorf("L1 hit at %d on an in-flight line ready at %d returned %d", at+1, fill, got)
		}
		if s.Stats().L1Hits != hits+1 {
			t.Fatal("second access did not hit L1")
		}
	})
	t.Run("L2", func(t *testing.T) {
		cfg := testConfig()
		cfg.NextLinePrefetch = true
		s, err := NewSystem(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The second line continues the first, so the streamer pulls the
		// next lines into L2; the demand access to one of them arrives
		// before its fill completes.
		const base = 0x40000
		s.Load(0, base, 8, at)
		s.Load(0, base+64, 8, at+1)
		target := uint64(base + 4*64)
		var pending int64
		for _, f := range s.cores[0].l2fill {
			if f.line == target {
				pending = f.ready
			}
		}
		if pending == 0 {
			t.Fatal("streamer did not prefetch the target line")
		}
		l2Hits := s.Stats().L2Hits
		if got := s.Load(0, target, 8, at+2); got != pending {
			t.Errorf("L2 hit at %d on a streamer fill ready at %d returned %d", at+2, pending, got)
		}
		if s.Stats().L2Hits != l2Hits+1 {
			t.Fatal("demand access did not hit L2")
		}
	})
}
