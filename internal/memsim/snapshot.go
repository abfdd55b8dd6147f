package memsim

import "slices"

// Snapshot is a System's state as Capture recorded it, for Restore to
// write back into a pristine System. It holds only what can differ from a
// freshly built System: the non-zero slots of the cache sets each touched
// list names (with the list itself and the LRU clock), every core's and
// socket's port, queue, in-flight and prefetcher state, the configuration
// (clock ratio included) and the stats. A Snapshot's buffers are reused
// by the next Capture into it, so capturing the same traffic again
// allocates nothing. The zero Snapshot restores nothing.
type Snapshot struct {
	cfg   HierarchyConfig
	stats Stats
	cores []coreSnap
	socks []sockSnap
}

// cacheSnap holds one cache's LRU clock, touched list and the slots of
// the touched sets that differ from a reset cache's zeros. A warm-up
// leaves most ways of a large cache's touched sets empty, so the snapshot
// stays far smaller than the sets it restores.
type cacheSnap struct {
	tick    int64
	touched []int64
	slots   []slotSnap
}

// slotSnap is one slot of a cache's ways, stamp and dirty arrays.
type slotSnap struct {
	i     int64
	line  uint64
	stamp int64
	dirty bool
}

// coreSnap is one core's private state. st is the coreState value with
// its caches cleared and its slices pointing at snapshot-owned copies.
type coreSnap struct {
	st     coreState
	l1, l2 cacheSnap
}

// sockSnap is one socket's shared state.
type sockSnap struct {
	l3Free   int64
	chanFree []int64
	openRow  []uint64
	l3       cacheSnap
}

// Pristine reports whether the system is as NewSystem or Reset left it
// apart from its clock ratio: no access since, so no cache set marked and
// every count zero.
func (s *System) Pristine() bool {
	if s.stats != (Stats{}) {
		return false
	}
	for i := range s.cores {
		if len(s.cores[i].l1.touched) != 0 || len(s.cores[i].l2.touched) != 0 {
			return false
		}
	}
	for i := range s.socks {
		if len(s.socks[i].l3.touched) != 0 {
			return false
		}
	}
	return true
}

// Capture records the system's state into snap, reusing snap's buffers.
func (s *System) Capture(snap *Snapshot) {
	snap.cfg, snap.stats = s.cfg, s.stats
	if len(snap.cores) != len(s.cores) {
		snap.cores = make([]coreSnap, len(s.cores))
	}
	for i := range s.cores {
		snap.cores[i].capture(&s.cores[i])
	}
	if len(snap.socks) != len(s.socks) {
		snap.socks = make([]sockSnap, len(s.socks))
	}
	for i := range s.socks {
		cs, sk := &snap.socks[i], &s.socks[i]
		cs.l3Free = sk.l3Free
		cs.chanFree = append(cs.chanFree[:0], sk.chanFree...)
		cs.openRow = append(cs.openRow[:0], sk.openRow...)
		cs.l3.capture(sk.l3)
	}
}

// Restore writes snap back into s and reports true when s is pristine and
// has the configuration snap was captured under, clock ratio included;
// otherwise it leaves s untouched and reports false. The restored system
// deep-equals the captured one. Only the non-zero slots of the cache sets
// snap's touched lists name are written, so the cost follows the captured
// footprint, not the cache sizes.
func (s *System) Restore(snap *Snapshot) bool {
	if snap.cfg != s.cfg || len(snap.cores) != len(s.cores) || len(snap.socks) != len(s.socks) || !s.Pristine() {
		return false
	}
	s.stats = snap.stats
	for i := range s.cores {
		snap.cores[i].restore(&s.cores[i])
	}
	for i := range s.socks {
		cs, sk := &snap.socks[i], &s.socks[i]
		sk.l3Free = cs.l3Free
		copy(sk.chanFree, cs.chanFree)
		copy(sk.openRow, cs.openRow)
		cs.l3.restore(sk.l3)
	}
	return true
}

func (cs *coreSnap) capture(c *coreState) {
	mshr, bankFree, pfInflight := cs.st.mshr, cs.st.bankFree, cs.st.pfInflight
	cs.st = *c
	cs.st.l1, cs.st.l2 = nil, nil
	cs.st.mshr = append(mshr[:0], c.mshr...)
	cs.st.bankFree = append(bankFree[:0], c.bankFree...)
	cs.st.pfInflight = append(pfInflight[:0], c.pfInflight...)
	cs.l1.capture(c.l1)
	cs.l2.capture(c.l2)
}

func (cs *coreSnap) restore(c *coreState) {
	l1, l2, mshr, bankFree, pfInflight := c.l1, c.l2, c.mshr, c.bankFree, c.pfInflight
	*c = cs.st
	c.l1, c.l2, c.mshr, c.bankFree, c.pfInflight = l1, l2, mshr, bankFree, pfInflight
	copy(mshr, cs.st.mshr)
	copy(bankFree, cs.st.bankFree)
	copy(pfInflight, cs.st.pfInflight)
	cs.l1.restore(l1)
	cs.l2.restore(l2)
}

func (cs *cacheSnap) capture(c *cache) {
	cs.tick = c.tick
	cs.touched = append(cs.touched[:0], c.touched...)
	// Count first, so the buffer is sized once to fit.
	n := 0
	c.eachSlot(func(int64, uint64, int64, bool) { n++ })
	cs.slots = slices.Grow(cs.slots[:0], n)
	c.eachSlot(func(i int64, line uint64, stamp int64, dirty bool) {
		cs.slots = append(cs.slots, slotSnap{i: i, line: line, stamp: stamp, dirty: dirty})
	})
}

// eachSlot calls f with every slot of the touched sets that differs from
// a reset cache's zeros.
func (c *cache) eachSlot(f func(i int64, line uint64, stamp int64, dirty bool)) {
	assoc := int64(c.cfg.Assoc)
	for _, set := range c.touched {
		lo := set * assoc
		ways, stamp, dirty := c.ways[lo:lo+assoc], c.stamp[lo:lo+assoc], c.dirty[lo:lo+assoc]
		for w, line := range ways {
			if line != 0 || stamp[w] != 0 || dirty[w] {
				f(lo+int64(w), line, stamp[w], dirty[w])
			}
		}
	}
}

// restore writes the captured slots into a reset cache and marks the
// captured sets in the captured order.
func (cs *cacheSnap) restore(c *cache) {
	for _, sl := range cs.slots {
		c.ways[sl.i], c.stamp[sl.i], c.dirty[sl.i] = sl.line, sl.stamp, sl.dirty
	}
	for _, set := range cs.touched {
		c.marked[set] = true
	}
	c.touched = append(c.touched[:0], cs.touched...)
	c.tick = cs.tick
}
