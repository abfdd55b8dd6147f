package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testConfig is a small, fast hierarchy: 4KB L1, 32KB L2, 256KB L3.
func testConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: CacheConfig{Name: "L1", Size: 4 << 10, LineSize: 64, Assoc: 8,
			Latency: 4, ThroughputCycles: 1, MSHRs: 10, Banks: 8},
		L2: CacheConfig{Name: "L2", Size: 32 << 10, LineSize: 64, Assoc: 8,
			Latency: 10, ThroughputCycles: 2},
		L3: CacheConfig{Name: "L3", Size: 256 << 10, LineSize: 64, Assoc: 16,
			Latency: 30, ThroughputCycles: 2},
		Mem:              MemConfig{Latency: 150, Channels: 3, ChannelBytesPerCycle: 4},
		CoresPerSocket:   4,
		CoreClockRatio:   1.0,
		NextLinePrefetch: false,
		AliasPenalty:     5,
		AliasWindow:      30,
		SplitPenalty:     3,
	}
}

func newTestSystem(t *testing.T, cores int) *System {
	t.Helper()
	s, err := NewSystem(testConfig(), cores)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.L1.Size = 3000 // not a power-of-two set count
	if _, err := NewSystem(bad, 1); err == nil {
		t.Error("invalid L1 geometry accepted")
	}
	bad2 := testConfig()
	bad2.CoresPerSocket = 0
	if _, err := NewSystem(bad2, 1); err == nil {
		t.Error("CoresPerSocket=0 accepted")
	}
	bad3 := testConfig()
	bad3.Mem.Channels = 0
	if _, err := NewSystem(bad3, 1); err == nil {
		t.Error("0 channels accepted")
	}
	if _, err := NewSystem(testConfig(), 0); err == nil {
		t.Error("0 cores accepted")
	}
}

// TestHierarchyLatencyOrdering checks the fundamental property behind
// Figs. 3, 11 and 12: first touch costs RAM, second touch costs L1, and a
// footprint exceeding a level falls to the next one.
func TestHierarchyLatencyOrdering(t *testing.T) {
	s := newTestSystem(t, 1)
	cold := s.Load(0, 0x10000, 8, 1000) - 1000
	warm := s.Load(0, 0x10000, 8, 2000) - 2000
	if warm != int64(s.cfg.L1.Latency) {
		t.Errorf("warm L1 load latency = %d, want %d", warm, s.cfg.L1.Latency)
	}
	if cold <= int64(s.cfg.L2.Latency)+int64(s.cfg.L3.Latency) {
		t.Errorf("cold load latency %d suspiciously low", cold)
	}
	st := s.Stats()
	if st.L1Hits != 1 || st.L1Misses != 1 || st.MemAccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// streamOnce walks an array once with 8-byte loads and returns average
// cycles per load (steady-state, second pass).
func streamOnce(s *System, core int, base uint64, size int64) float64 {
	cycle := int64(1)
	// pass 1: warm
	for off := int64(0); off < size; off += 8 {
		r := s.Load(core, base+uint64(off), 8, cycle)
		cycle = r
	}
	// pass 2: measure
	start := cycle
	n := 0
	for off := int64(0); off < size; off += 8 {
		r := s.Load(core, base+uint64(off), 8, cycle)
		cycle = r
		n++
	}
	return float64(cycle-start) / float64(n)
}

// TestWorkingSetPlateaus reproduces the §5.1 protocol: an array half the L1
// size re-streams faster than one twice the L1 size, which in turn beats
// one twice the L2 size, which beats twice the L3 size.
func TestWorkingSetPlateaus(t *testing.T) {
	cfg := testConfig()
	var lat [4]float64
	sizes := []int64{cfg.L1.Size / 2, cfg.L1.Size * 2, cfg.L2.Size * 2, cfg.L3.Size * 2}
	for i, size := range sizes {
		s := newTestSystem(t, 1)
		lat[i] = streamOnce(s, 0, 0x1000000, size)
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Errorf("level %d latency %.2f not greater than level %d latency %.2f",
				i, lat[i], i-1, lat[i-1])
		}
	}
}

// TestMSHRMergeSameLine: consecutive accesses to one line in flight merge
// rather than issuing new fills.
func TestMSHRMergeSameLine(t *testing.T) {
	s := newTestSystem(t, 1)
	r1 := s.Load(0, 0x40000, 4, 100)
	r2 := s.Load(0, 0x40004, 4, 101) // same line, still in flight
	if r2 > r1 {
		t.Errorf("merged access ready %d after fill %d", r2, r1)
	}
	if got := s.Stats().MemAccesses; got != 1 {
		t.Errorf("mem accesses = %d, want 1 (merge)", got)
	}
}

// TestPrefetcherImprovesStreaming: with next-line prefetch, a long
// sequential stream has lower cycles per load.
func TestPrefetcherImprovesStreaming(t *testing.T) {
	cfg := testConfig()
	size := cfg.L3.Size * 4 // RAM-resident
	s1, _ := NewSystem(cfg, 1)
	base := uint64(0x2000000)
	noPf := streamOnce(s1, 0, base, size)
	cfg.NextLinePrefetch = true
	s2, _ := NewSystem(cfg, 1)
	pf := streamOnce(s2, 0, base, size)
	if pf >= noPf {
		t.Errorf("prefetch did not help: %.2f (pf) vs %.2f (no pf)", pf, noPf)
	}
	if s2.Stats().Prefetches == 0 {
		t.Error("no prefetches issued")
	}
}

// TestBandwidthSaturation reproduces the Fig. 14 mechanism: per-core
// streaming latency from RAM grows once aggregate demand exceeds the
// socket's channels.
func TestBandwidthSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerSocket = 8
	perCore := func(n int) float64 {
		s, err := NewSystem(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		size := cfg.L3.Size * 2
		// n forked processes stream independent arrays, each keeping
		// several misses in flight (the unrolled 8-load kernels of §5.2):
		// issue one line every 8 cycles per core and accumulate observed
		// latency.
		bases := make([]uint64, n)
		for c := 0; c < n; c++ {
			bases[c] = uint64(0x4000000 + int64(c)*size*2)
		}
		var total int64
		var count int64
		issue := int64(1)
		for off := int64(0); off < size; off += 64 {
			for c := 0; c < n; c++ {
				r := s.Load(c, bases[c]+uint64(off), 8, issue)
				total += r - issue
				count++
			}
			issue += 8
		}
		return float64(total) / float64(count)
	}
	one := perCore(1)
	eight := perCore(8)
	if eight < one*1.5 {
		t.Errorf("8-core streaming latency %.1f not visibly above 1-core %.1f", eight, one)
	}
}

// TestBankConflictsDependOnAlignment: two interleaved streams whose bases
// collide in the same bank conflict more than offset streams.
func TestBankConflictsDependOnAlignment(t *testing.T) {
	run := func(offB uint64) int64 {
		s := newTestSystem(t, 1)
		baseA := uint64(0x100000)
		baseB := uint64(0x200000) + offB
		cycle := int64(1)
		// Warm both arrays.
		for off := uint64(0); off < 2048; off += 4 {
			cycle = s.Load(0, baseA+off, 4, cycle)
			cycle = s.Load(0, baseB+off, 4, cycle)
		}
		before := s.Stats().BankConflicts
		// Issue pairs at the same cycle (what a dual-issue core does).
		for off := uint64(0); off < 2048; off += 4 {
			t0 := cycle
			s.Load(0, baseA+off, 4, t0)
			r2 := s.Load(0, baseB+off, 4, t0)
			cycle = r2
		}
		return s.Stats().BankConflicts - before
	}
	same := run(0)  // same bank alignment
	diff := run(32) // different bank
	if same <= diff {
		t.Errorf("bank conflicts: same-bank %d <= offset %d", same, diff)
	}
}

// Test4KAliasing: a load 4096 bytes from a recent store pays a penalty.
func Test4KAliasing(t *testing.T) {
	s := newTestSystem(t, 1)
	// Warm both lines.
	s.Load(0, 0x10000, 4, 1)
	s.Load(0, 0x11000, 4, 1000)
	s.Store(0, 0x10000, 4, 2000)
	r := s.Load(0, 0x11000, 4, 2004) // same page offset, different line
	base := int64(2004 + s.cfg.L1.Latency)
	if r < base+int64(s.cfg.AliasPenalty) {
		t.Errorf("aliasing load ready at %d, want >= %d", r, base+int64(s.cfg.AliasPenalty))
	}
	if s.Stats().AliasStalls == 0 {
		t.Error("no alias stall recorded")
	}
}

// TestLineSplitPenalty: an access crossing a line boundary costs more.
func TestLineSplitPenalty(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Load(0, 0x10000, 16, 1)
	s.Load(0, 0x10040, 16, 1) // warm both lines
	aligned := s.Load(0, 0x10000, 16, 1000) - 1000
	split := s.Load(0, 0x10038, 16, 2000) - 2000
	if split <= aligned {
		t.Errorf("split access %d not slower than aligned %d", split, aligned)
	}
	if s.Stats().LineSplits != 1 {
		t.Errorf("line splits = %d, want 1", s.Stats().LineSplits)
	}
}

// TestClockRatioAffectsUncoreOnly: raising the core/uncore ratio (higher
// core frequency) increases RAM latency in core cycles but leaves L1 hits
// unchanged — the Fig. 13 mechanism.
func TestClockRatioAffectsUncoreOnly(t *testing.T) {
	cfg := testConfig()
	cfg.CoreClockRatio = 1.0
	s1, _ := NewSystem(cfg, 1)
	cfg.CoreClockRatio = 2.0
	s2, _ := NewSystem(cfg, 1)

	cold1 := s1.Load(0, 0x50000, 8, 100) - 100
	cold2 := s2.Load(0, 0x50000, 8, 100) - 100
	if cold2 <= cold1 {
		t.Errorf("RAM latency at 2x core clock (%d) not above 1x (%d)", cold2, cold1)
	}
	warm1 := s1.Load(0, 0x50000, 8, 10000) - 10000
	warm2 := s2.Load(0, 0x50000, 8, 10000) - 10000
	if warm1 != warm2 {
		t.Errorf("L1 hit latency changed with clock ratio: %d vs %d", warm1, warm2)
	}
}

func TestDisturbCore(t *testing.T) {
	s := newTestSystem(t, 1)
	for off := uint64(0); off < 2048; off += 64 {
		s.Load(0, 0x60000+off, 8, 1)
	}
	if s.L1Footprint(0) == 0 {
		t.Fatal("no lines cached")
	}
	before := s.L1Footprint(0)
	s.DisturbCore(0, rand.New(rand.NewSource(1)), 0.5)
	if s.L1Footprint(0) >= before {
		t.Error("disturb did not evict anything")
	}
}

func TestSocketSeparation(t *testing.T) {
	cfg := testConfig()
	cfg.CoresPerSocket = 2
	s, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 warms a line into socket 0's L3.
	s.Load(0, 0x70000, 8, 1)
	// Core 1 (same socket) gets an L3 hit; core 2 (other socket) misses
	// to memory.
	before := s.Stats()
	s.Load(1, 0x70000, 8, 100000)
	sameSock := s.Stats().Sub(before).L3Hits
	s.Load(2, 0x70000, 8, 100000)
	if sameSock != 1 {
		t.Errorf("same-socket L3 hits = %d, want 1", sameSock)
	}
	if s.Stats().Sub(before).MemAccesses != 1 {
		t.Errorf("cross-socket access should go to memory: %+v", s.Stats())
	}
}

func TestAddressSpaceAlignment(t *testing.T) {
	a := NewAddressSpace()
	for _, c := range []struct{ align, off int64 }{
		{4096, 0}, {4096, 16}, {4096, 61}, {64, 32}, {1 << 20, 12345},
	} {
		base, err := a.Alloc(10000, c.align, c.off)
		if err != nil {
			t.Fatalf("Alloc(%d,%d): %v", c.align, c.off, err)
		}
		if int64(base%uint64(c.align)) != c.off {
			t.Errorf("base %#x mod %d = %d, want %d", base, c.align, base%uint64(c.align), c.off)
		}
	}
	if _, err := a.Alloc(0, 64, 0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if _, err := a.Alloc(8, 63, 0); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
	if _, err := a.Alloc(8, 64, 64); err == nil {
		t.Error("offset >= align accepted")
	}
}

// Property: allocations never overlap.
func TestPropertyAllocationsDisjoint(t *testing.T) {
	type alloc struct{ base, end uint64 }
	f := func(sizes []uint16, offsets []uint8) bool {
		a := NewAddressSpace()
		var got []alloc
		for i, sz := range sizes {
			size := int64(sz) + 1
			off := int64(0)
			if i < len(offsets) {
				off = int64(offsets[i]) % 64
			}
			base, err := a.Alloc(size, 64, off)
			if err != nil {
				return false
			}
			for _, g := range got {
				if base < g.end && g.base < base+uint64(size) {
					return false
				}
			}
			got = append(got, alloc{base, base + uint64(size)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cache lookup after insert always hits until evicted; inserting
// N distinct lines into one set beyond associativity evicts the LRU.
func TestCacheLRUEviction(t *testing.T) {
	cfg := CacheConfig{Name: "t", Size: 8 * 64, LineSize: 64, Assoc: 8, Latency: 1}
	c := newCache(cfg) // 1 set, 8 ways
	for i := uint64(0); i < 8; i++ {
		c.insert(0x1000+(i<<6), false)
	}
	if !c.lookup(0x1000, false) {
		t.Fatal("first line evicted too early")
	}
	// lookup refreshed 0x1000; inserting a 9th line must evict the LRU,
	// which is now 0x1040.
	victim, _ := c.insert(0x1000+(8<<6), false)
	if victim != 0x1040 {
		t.Errorf("victim = %#x, want 0x1040", victim)
	}
	if c.lookup(0x1040, false) {
		t.Error("evicted line still present")
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Load(0, 0x90000, 8, 1)
	s.Store(0, 0x90100, 8, 50)
	st := s.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v", st)
	}
	s.Reset()
	if s.Stats() != (Stats{}) {
		t.Error("Reset did not clear the stats")
	}
}

// TestStoreWriteAllocate: a store miss brings the line in (write-allocate),
// and the dirty line is written back on eviction.
func TestStoreWriteAllocate(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Store(0, 0xA0000, 8, 1)
	if s.Stats().MemAccesses != 1 {
		t.Errorf("store miss did not fetch line: %+v", s.Stats())
	}
	// Evict it by filling the set: addresses with identical set index.
	setStride := uint64(s.cfg.L1.Size) / uint64(s.cfg.L1.Assoc)
	for i := uint64(1); i <= uint64(s.cfg.L1.Assoc); i++ {
		s.Load(0, 0xA0000+i*setStride, 8, int64(1000*i))
	}
	if s.Stats().Writebacks == 0 {
		t.Error("dirty eviction produced no writeback")
	}
}
