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

// warmTraffic is a launch warm-up: one load per line over a 16 KiB array
// on a core of each socket, at a non-default clock ratio.
func warmTraffic(s *System) {
	_ = s.SetCoreClockRatio(2.5)
	cycle := int64(0)
	for _, core := range []int{0, 2} {
		base := uint64(0x100000 * (core + 1))
		for off := uint64(0); off < 16<<10; off += 64 {
			cycle = s.Load(core, base+off, 8, cycle)
		}
	}
}

// TestRestoreMatchesCaptured pins Capture/Restore structurally: a pristine
// System at the captured clock ratio that restores a snapshot must
// deep-equal the System it was captured from, field by field, and go on
// identically under the same traffic. Restore refuses a System at another
// clock ratio or one that has seen traffic, and leaves it untouched.
func TestRestoreMatchesCaptured(t *testing.T) {
	for _, tc := range []struct {
		name    string
		traffic func(*System)
	}{{"warm", warmTraffic}, {"mixed", mixedTraffic}, {"ram", ramTraffic}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resetConfig()
			s, err := NewSystem(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			target, err := NewSystem(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			// A target that served other traffic and was Reset is as
			// good as a new one.
			ramTraffic(target)
			target.Reset()

			tc.traffic(s)
			var snap Snapshot
			s.Capture(&snap)
			ratio := s.Config().CoreClockRatio
			if ratio != cfg.CoreClockRatio {
				if target.Restore(&snap) {
					t.Fatal("restored into a system at another clock ratio")
				}
				if err := target.SetCoreClockRatio(ratio); err != nil {
					t.Fatal(err)
				}
			}
			if !target.Pristine() {
				t.Fatal("a reset system at another clock ratio is not pristine")
			}
			if !target.Restore(&snap) {
				t.Fatal("Restore refused a pristine system at the captured clock ratio")
			}
			if !reflect.DeepEqual(target, s) {
				t.Fatal("restored system differs from the captured one")
			}
			if target.Pristine() || target.Restore(&snap) {
				t.Fatal("Restore accepted a system that has state")
			}

			mixedTraffic(s)
			mixedTraffic(target)
			if !reflect.DeepEqual(target, s) {
				t.Fatal("restored system diverged from the captured one under identical traffic")
			}
		})
	}
	var zero Snapshot
	s, err := NewSystem(resetConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Restore(&zero) {
		t.Error("the zero Snapshot restored")
	}
}

// TestCaptureRestoreAllocateNothing: recapturing the same traffic into a
// snapshot reuses its buffers, and restoring into a reset system writes
// into the system's own arrays.
func TestCaptureRestoreAllocateNothing(t *testing.T) {
	s, err := NewSystem(resetConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	warmTraffic(s)
	var snap Snapshot
	s.Capture(&snap)
	if n := testing.AllocsPerRun(10, func() { s.Capture(&snap) }); n != 0 {
		t.Errorf("Capture allocated %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		s.Reset()
		_ = s.SetCoreClockRatio(2.5)
		if !s.Restore(&snap) {
			t.Fatal("Restore refused a reset system")
		}
	}); n != 0 {
		t.Errorf("Reset and Restore allocated %.0f objects per call, want 0", n)
	}
}
