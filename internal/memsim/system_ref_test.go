package memsim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refLookup is cache.lookup before the per-set hint: a scan of the whole
// set.
func refLookup(c *cache, line uint64, markDirty bool) bool {
	set := c.setOf(line)
	assoc := int64(c.cfg.Assoc)
	base := set * assoc
	for w, l := range c.ways[base : base+assoc] {
		if l == line {
			if line == 0 {
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

// refLoad and refStore are Load and Store over refAccess; refStore keeps
// no alias buckets.
func refLoad(s *System, core int, addr uint64, size int, issue int64) int64 {
	s.stats.Loads++
	return refAccess(s, core, addr, size, false, issue)
}

func refStore(s *System, core int, addr uint64, size int, issue int64) int64 {
	s.stats.Stores++
	c := &s.cores[core]
	done := refAccess(s, core, addr, size, true, issue)
	rec := &c.stores[c.storeI]
	rec.addr = addr
	rec.cycle = issue
	c.storeI = (c.storeI + 1) % storeWindowSize
	return done
}

// refAccess is access before the alias buckets: every load scans the
// whole store window.
func refAccess(s *System, core int, addr uint64, size int, isWrite bool, issue int64) int64 {
	c := &s.cores[core]
	line := c.l1.lineOf(addr)
	lastLine := c.l1.lineOf(addr + uint64(size) - 1)
	if nb := len(c.bankFree); nb > 1 {
		bank := int(addr>>3) % nb
		if c.bankFree[bank] > issue {
			s.stats.BankConflicts++
			issue = c.bankFree[bank]
		}
		c.bankFree[bank] = issue + 1
	}
	if !isWrite && s.cfg.AliasPenalty > 0 {
		ls, window := uint64(s.cfg.L1.LineSize), s.cfg.AliasWindow
		for i := range c.stores {
			st := &c.stores[i]
			if (addr-st.addr)&4095 >= ls {
				continue
			}
			if st.cycle == 0 && st.addr == 0 {
				continue
			}
			if issue-st.cycle > window {
				continue
			}
			if c.l1.lineOf(st.addr) != line {
				s.stats.AliasStalls++
				if issue < c.replayFree {
					issue = c.replayFree
				}
				issue += int64(s.cfg.AliasPenalty)
				c.replayFree = issue
				break
			}
		}
	}
	if s.cfg.NextLinePrefetch {
		s.train(core, line, issue)
	}
	ready := refAccessLine(s, core, line, isWrite, issue)
	if lastLine != line {
		s.stats.LineSplits++
		r2 := refAccessLine(s, core, lastLine, isWrite, issue+1)
		r2 += int64(s.cfg.SplitPenalty)
		if r2 > ready {
			ready = r2
		}
	}
	return ready
}

// refAccessLine is accessLine before the recent ring and the hint: an L1
// hit scans every MSHR, and the L1 probe is refLookup.
func refAccessLine(s *System, core int, line uint64, isWrite bool, issue int64) int64 {
	c := &s.cores[core]
	l1Lat := int64(s.cfg.L1.Latency)
	if refLookup(c.l1, line, isWrite) {
		s.stats.L1Hits++
		ready := issue + l1Lat
		if c.mshrMax > ready {
			for i := range c.mshr {
				if c.mshr[i].line == line && c.mshr[i].ready > ready {
					ready = c.mshr[i].ready
				}
			}
		}
		return ready
	}
	s.stats.L1Misses++
	for i := range c.mshr {
		m := &c.mshr[i]
		if m.line == line && m.ready > issue {
			s.stats.MSHRMerges++
			return m.ready
		}
	}
	slot := 0
	for i := range c.mshr {
		if c.mshr[i].ready <= issue {
			slot = i
			goto allocated
		}
		if c.mshr[i].ready < c.mshr[slot].ready {
			slot = i
		}
	}
	s.stats.MSHRFullWaits++
	issue = c.mshr[slot].ready
allocated:
	fill := s.fetchFromL2(core, line, issue)
	c.mshr[slot] = inflight{line: line, ready: fill}
	if fill > c.mshrMax {
		c.mshrMax = fill
	}
	s.insertL1(core, line, isWrite)
	return fill
}

// sameCache compares two caches' contents, LRU clock and set marks,
// ignoring the lookup hints (which only the new path keeps).
func sameCache(a, b *cache) bool {
	return a.tick == b.tick && slices.Equal(a.ways, b.ways) && slices.Equal(a.stamp, b.stamp) &&
		slices.Equal(a.dirty, b.dirty) && slices.Equal(a.marked, b.marked) && slices.Equal(a.touched, b.touched)
}

// sameModuloIndexes compares two systems' state, ignoring the indexes the
// reference path does not keep: the recent ring, the alias buckets and
// the lookup hints.
func sameModuloIndexes(a, b *System) bool {
	if a.cfg != b.cfg || a.stats != b.stats || len(a.cores) != len(b.cores) || len(a.socks) != len(b.socks) {
		return false
	}
	for i := range a.cores {
		ca, cb := a.cores[i], b.cores[i]
		if !sameCache(ca.l1, cb.l1) || !sameCache(ca.l2, cb.l2) {
			return false
		}
		for _, c := range []*coreState{&ca, &cb} {
			c.l1, c.l2 = nil, nil
			c.recent, c.recentI, c.storeBuckets = [recentSize]recentAlloc{}, 0, [aliasBuckets]uint8{}
		}
		if !reflect.DeepEqual(ca, cb) {
			return false
		}
	}
	for i := range a.socks {
		sa, sb := a.socks[i], b.socks[i]
		if !sameCache(sa.l3, sb.l3) {
			return false
		}
		sa.l3, sb.l3 = nil, nil
		if !reflect.DeepEqual(sa, sb) {
			return false
		}
	}
	return true
}

// intSource is where the oracle draws its choices: a seeded rand.Rand, or
// a fuzz input's bytes.
type intSource interface{ Intn(n int) int }

// byteSource draws choices from fuzz bytes, two at a time; done reports
// that they ran out.
type byteSource struct {
	data []byte
	done bool
}

func (b *byteSource) Intn(n int) int {
	if len(b.data) < 2 {
		b.done = true
		return 0
	}
	v := int(b.data[0])<<8 | int(b.data[1])
	b.data = b.data[2:]
	return v % n
}

// oracleConfigs are the hierarchies the oracle drives: few MSHRs (so
// allocations wait and slots are reused within the recent ring), the
// streamer on, small L2 and L3 (so lines leave them), and L1 lines of 64
// bytes, 32 (below an alias bucket) and 128 (above one, where every load
// scans).
func oracleConfigs() map[string]HierarchyConfig {
	out := map[string]HierarchyConfig{}
	for _, ls := range []int64{64, 32, 128} {
		cfg := testConfig()
		cfg.L1.MSHRs = 4
		cfg.NextLinePrefetch = true
		cfg.PrefetchOutstanding = 4
		cfg.CoresPerSocket = 1
		cfg.L2.Size, cfg.L3.Size = 16<<10, 64<<10
		cfg.L1.LineSize, cfg.L2.LineSize, cfg.L3.LineSize = ls, ls, ls
		out[map[int64]string{64: "line64", 32: "line32", 128: "line128"}[ls]] = cfg
	}
	return out
}

// runOracle drives a system and a reference copy (refLoad/refStore) with
// the same operations drawn from src, for at most ops operations or until
// src runs dry: loads and stores of 8 and 16 bytes (some split lines,
// some touch line 0, many share page offsets across pages) on two cores,
// at issue cycles that mostly advance but often step back, plus the
// occasional Reset, Capture/Restore, DisturbCore and clock-ratio change.
// Every access must return the same cycle and leave the same stats; the
// state must match the reference's apart from the new indexes (checked
// every 32 operations and at the end), and deep-equal a fresh system
// after Reset and the captured system after Restore.
func runOracle(t *testing.T, cfg HierarchyConfig, src intSource, ops int) (n oracleCounts) {
	t.Helper()
	const cores = 2
	newSys := func() *System {
		s, err := NewSystem(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	got, ref := newSys(), newSys()
	var clock [cores]int64
	var snap, refSnap Snapshot
	for op := 0; op < ops; op++ {
		if bs, ok := src.(*byteSource); ok && bs.done {
			break
		}
		switch k := src.Intn(1000); {
		case k < 990:
			core := src.Intn(cores)
			// Mostly a few hot pages, sometimes a wide range; offsets in
			// the first KiB of a page, 8-byte aligned.
			page := uint64(src.Intn(4))
			if src.Intn(4) == 0 {
				page = uint64(src.Intn(256))
			}
			addr := page<<12 | uint64(src.Intn(128))<<3
			size := 8 << src.Intn(2)
			issue := clock[core] + int64(src.Intn(40)) - 16
			if issue < 0 {
				issue = 0
			}
			clock[core] = max(clock[core], issue)
			var g, r int64
			if src.Intn(3) == 0 {
				g, r = got.Store(core, addr, size, issue), refStore(ref, core, addr, size, issue)
			} else {
				g, r = got.Load(core, addr, size, issue), refLoad(ref, core, addr, size, issue)
			}
			if g != r {
				t.Fatalf("op %d: access of %d bytes at %#x on core %d issued at %d returned %d, reference %d",
					op, size, addr, core, issue, g, r)
			}
		case k < 993:
			n.stats = n.stats.Add(got.Stats())
			n.resets++
			got.Reset()
			ref.Reset()
			clock = [cores]int64{}
			if !reflect.DeepEqual(got, newSys()) {
				t.Fatalf("op %d: reset system differs from a fresh one", op)
			}
		case k < 996:
			// Capture both, restore each into a fresh system at its
			// clock ratio, and carry on with the restored pair.
			got.Capture(&snap)
			ref.Capture(&refSnap)
			g2, r2 := newSys(), newSys()
			ratio := got.Config().CoreClockRatio
			if err := g2.SetCoreClockRatio(ratio); err != nil {
				t.Fatal(err)
			}
			if err := r2.SetCoreClockRatio(ratio); err != nil {
				t.Fatal(err)
			}
			if !g2.Restore(&snap) || !r2.Restore(&refSnap) {
				t.Fatalf("op %d: restore into a fresh system refused", op)
			}
			if !reflect.DeepEqual(g2, got) {
				t.Fatalf("op %d: restored system differs from the captured one", op)
			}
			got, ref = g2, r2
			n.restores++
		case k < 999:
			core, seed := src.Intn(cores), int64(src.Intn(1<<16))
			got.DisturbCore(core, rand.New(rand.NewSource(seed)), 0.3)
			ref.DisturbCore(core, rand.New(rand.NewSource(seed)), 0.3)
		default:
			ratio := []float64{1, 1.5, 2.25}[src.Intn(3)]
			if err := got.SetCoreClockRatio(ratio); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetCoreClockRatio(ratio); err != nil {
				t.Fatal(err)
			}
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("op %d: stats %+v, reference %+v", op, got.Stats(), ref.Stats())
		}
		// The whole state is compared every 32 operations; a divergence
		// in between shows there or in a later cycle.
		if op%32 == 31 && !sameModuloIndexes(got, ref) {
			t.Fatalf("op %d: state diverged from the reference", op)
		}
	}
	if !sameModuloIndexes(got, ref) {
		t.Fatal("state diverged from the reference at the end")
	}
	n.stats = n.stats.Add(got.Stats())
	return n
}

// oracleCounts is what one oracle run exercised: the stats of every
// system it drove, and its resets and restores.
type oracleCounts struct {
	stats            Stats
	resets, restores int
}

func (n *oracleCounts) add(o oracleCounts) {
	n.stats = n.stats.Add(o.stats)
	n.resets += o.resets
	n.restores += o.restores
}

// TestSystemMatchesReference holds the recent ring (the in-flight check
// of an L1 hit), the lookup hint and the alias buckets to the scans they
// replaced, under seeded random traffic on every oracle hierarchy, and
// requires the traffic to exercise what they cut.
func TestSystemMatchesReference(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			var sum oracleCounts
			for seed := int64(1); seed <= 4; seed++ {
				n := runOracle(t, cfg, rand.New(rand.NewSource(seed)), 20000)
				sum.add(n)
			}
			st := sum.stats
			if st.L1Hits == 0 || st.AliasStalls == 0 || st.MSHRFullWaits == 0 || st.MSHRMerges == 0 ||
				st.LineSplits == 0 || sum.resets == 0 || sum.restores == 0 {
				t.Fatalf("traffic left a case untouched: %+v, %d resets, %d restores", st, sum.resets, sum.restores)
			}
		})
	}
}

// FuzzSystemMatchesReference is TestSystemMatchesReference with the
// operations drawn from the fuzz input.
func FuzzSystemMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	seed := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 4096)
		seed.Read(b)
		f.Add(b)
	}
	cfgs := oracleConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"line32", "line64", "line128"} {
			runOracle(t, cfgs[name], &byteSource{data: data}, len(data))
		}
	})
}
