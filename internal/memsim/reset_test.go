package memsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// resetConfig turns on every stateful mechanism testConfig leaves off:
// the streamer with a bounded in-flight window, DRAM row buffers over
// several banks, and two sockets.
func resetConfig() HierarchyConfig {
	cfg := testConfig()
	cfg.NextLinePrefetch = true
	cfg.PrefetchOutstanding = 4
	cfg.Mem.RowBytes = 2048
	cfg.Mem.RowMissCycles = 20
	cfg.Mem.BanksPerChannel = 4
	cfg.CoresPerSocket = 2
	cfg.CoreClockRatio = 1.25
	return cfg
}

// mixedTraffic drives every piece of System state Reset must restore:
// streaming loads (prefetch streams, l2fill, pfInflight), stores (store
// window, dirty lines, writebacks), a large stride (RAM row misses,
// channel queues), a clock-ratio change and an interrupt disturbance, on
// cores of both sockets.
func mixedTraffic(s *System) {
	cycle := int64(1)
	for core := 0; core < s.NumCores(); core++ {
		base := uint64(0x100000 * (core + 1))
		for off := uint64(0); off < 64<<10; off += 16 {
			cycle = s.Load(core, base+off, 16, cycle)
		}
		for off := uint64(0); off < 16<<10; off += 8 {
			s.Store(core, base+0x800000+off, 8, cycle)
			cycle++
		}
		for off := uint64(0); off < 1<<20; off += 4096 + 64 {
			cycle = s.Load(core, base+0x2000000+off, 8, cycle)
		}
	}
	_ = s.SetCoreClockRatio(2.5)
	cycle = s.Load(1, 0x7000000, 8, cycle)
	s.DisturbCore(0, rand.New(rand.NewSource(3)), 0.5)
	s.Load(0, 0x100000, 8, cycle)
}

// TestResetMatchesNewSystem pins Reset structurally: after mixed traffic,
// a reset System must deep-equal a freshly built one, field by field, so a
// field added later that Reset forgets fails here.
func TestResetMatchesNewSystem(t *testing.T) {
	cfg := resetConfig()
	s, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	mixedTraffic(s)
	st := s.Stats()
	if st.Prefetches == 0 || st.RowMisses == 0 || st.Writebacks == 0 || st.AliasStalls == 0 || st.MSHRFullWaits == 0 {
		t.Fatalf("traffic left a mechanism untouched: %+v", st)
	}
	if reflect.DeepEqual(s, fresh) {
		t.Fatal("traffic did not change the system; the test proves nothing")
	}
	s.Reset()
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("reset system differs from a freshly built one")
	}

	// A reset system replays the same traffic identically.
	mixedTraffic(s)
	mixedTraffic(fresh)
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("reset system diverged from a fresh one under identical traffic")
	}
}

func TestResetAllocatesNothing(t *testing.T) {
	s, err := NewSystem(resetConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	mixedTraffic(s)
	if n := testing.AllocsPerRun(10, s.Reset); n != 0 {
		t.Errorf("Reset allocated %.0f objects per call, want 0", n)
	}
}

// ramTraffic streams 64 MiB through one core on each socket: far more than
// the L3 holds, so every L3 set on both sockets fills and evicts, and the
// sweep exercises the RAM path (row buffers, channel queues, writebacks of
// the dirty lines the stores leave behind).
func ramTraffic(s *System) {
	cycle := int64(1)
	for core := 0; core < s.NumCores(); core += s.cfg.CoresPerSocket {
		base := uint64(0x10000000 * (core + 1))
		for off := uint64(0); off < 64<<20; off += 64 {
			if off%512 == 0 {
				s.Store(core, base+off, 8, cycle)
			}
			cycle = s.Load(core, base+off, 8, cycle)
		}
	}
}

// TestResetAfterRAMTraffic covers the touched-set reset at its largest: with
// every L3 set marked on both sockets, Reset must still give a system equal
// to a fresh one that replays the traffic identically. A Reset on a
// never-used system and a second Reset in a row must change nothing.
func TestResetAfterRAMTraffic(t *testing.T) {
	cfg := resetConfig()
	s, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("Reset changed a never-used system")
	}

	ramTraffic(s)
	for i, sk := range s.socks {
		if int64(len(sk.l3.touched)) != sk.l3.sets {
			t.Fatalf("socket %d: traffic touched %d of %d L3 sets", i, len(sk.l3.touched), sk.l3.sets)
		}
	}
	if s.Stats().Writebacks == 0 || s.Stats().RowMisses == 0 {
		t.Fatalf("traffic did not reach RAM: %+v", s.Stats())
	}
	s.Reset()
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("reset system differs from a freshly built one")
	}
	s.Reset()
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("a second Reset changed the system")
	}

	ramTraffic(s)
	ramTraffic(fresh)
	if !reflect.DeepEqual(s, fresh) {
		t.Fatal("reset system diverged from a fresh one under identical traffic")
	}
}
