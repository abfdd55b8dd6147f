package sim

import (
	"reflect"
	"testing"

	"microtools/internal/asm"
)

// warmPins and warmArrays are a two-core warm-up of two shared 16 KiB
// arrays, as an OpenMP launch on cores of both sockets runs it.
var (
	warmPins   = []int{0, 6}
	warmArrays = [][]uint64{{0x100000, 0x140000}, {0x100000, 0x140000}}
)

const warmBytes = 16 << 10

// TestWarmHitMatchesMiss pins the warm-up memo: in every scenario the
// machine's last warm-up must leave it deep-equal (memory system and
// clock included) to a fresh machine that simulated the same history,
// and must be a memo hit exactly when the scenario says so. The
// scenarios cover a plain hit, a changed key, a changed clock ratio, a
// warm-up on a machine that already ran, whose clock alone advanced or
// whose memory system was driven directly (each must simulate, and must
// not replace the memo), and a hit after such a warm-up.
func TestWarmHitMatchesMiss(t *testing.T) {
	type step func(t *testing.T, m *Machine)
	warm := func(pins []int, arrays [][]uint64, bytes int64) step {
		return func(t *testing.T, m *Machine) { m.Warm(pins, arrays, bytes) }
	}
	base := warm(warmPins, warmArrays, warmBytes)
	reset := func(t *testing.T, m *Machine) { m.Reset() }
	freq := func(t *testing.T, m *Machine) {
		if err := m.SetCoreFrequency(1.6); err != nil {
			t.Fatal(err)
		}
	}
	run := func(t *testing.T, m *Machine) {
		if _, err := m.RunOne(job(t, 0, 4, 16*300, 0x100000)); err != nil {
			t.Fatal(err)
		}
	}
	// idle advances the clock with no memory traffic, as the launcher's
	// calibration run does.
	idle := func(t *testing.T, m *Machine) {
		p, err := asm.ParseOne("xor %eax, %eax\nret\n", "idle")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunOne(Job{Core: 0, Prog: p, StartCycle: 1000}); err != nil {
			t.Fatal(err)
		}
		if m.Now() == 0 || !m.Sys.Pristine() {
			t.Fatalf("the idle run did not leave the clock advanced over a pristine memory system: now %d, stats %+v", m.Now(), m.Sys.Stats())
		}
	}
	load := func(t *testing.T, m *Machine) { m.Sys.Load(0, 0x100000, 8, 0) }
	for _, tc := range []struct {
		name string
		// prefix runs on the memoizing machine only; history runs on
		// both it and the fresh reference, and ends with the warm-up
		// under test.
		prefix, history []step
		hit             bool
	}{
		{"first", nil, []step{base}, false},
		{"hit", []step{base, reset}, []step{base}, true},
		{"hit-at-frequency", []step{freq, base, reset}, []step{freq, base}, true},
		{"other-bytes", []step{base, reset}, []step{warm(warmPins, warmArrays, warmBytes/2)}, false},
		{"other-base", []step{base, reset}, []step{warm(warmPins, [][]uint64{{0x100000, 0x140040}, {0x100000, 0x140000}}, warmBytes)}, false},
		{"other-pins", []step{base, reset}, []step{warm([]int{0, 1}, warmArrays, warmBytes)}, false},
		{"fewer-pins", []step{base, reset}, []step{warm(warmPins[:1], warmArrays[:1], warmBytes)}, false},
		{"other-frequency", []step{base, reset}, []step{freq, base}, false},
		{"after-run", []step{base, reset}, []step{run, base}, false},
		{"after-direct-load", []step{base, reset}, []step{load, base}, false},
		{"after-idle-run", []step{base, reset}, []step{idle, base}, false},
		{"hit-after-dirty-warm", []step{base, reset, run, base, load, base, reset}, []step{base}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(t, "nehalem-dual/8")
			ref := testMachine(t, "nehalem-dual/8")
			for _, s := range tc.prefix {
				s(t, m)
			}
			before := m.Counts()
			for _, s := range tc.history {
				s(t, m)
				s(t, ref)
			}
			after := m.Counts()
			if hits, misses := after.WarmHits-before.WarmHits, after.WarmMisses-before.WarmMisses; hits+misses != 1 || (hits == 1) != tc.hit {
				t.Errorf("%d memo hits and %d misses, want one warm-up with hit=%v", hits, misses, tc.hit)
			}
			// The counts differ by design: the memoizing machine's prefix
			// ran on it alone, and a hit counts apart from a miss.
			m.counts, ref.counts = Counts{}, Counts{}
			if !reflect.DeepEqual(withoutRetained(m), withoutRetained(ref)) {
				t.Fatal("warmed machine differs from a fresh one with the same history")
			}

			// Both go on to measure identically.
			a, err := m.Run([]Job{job(t, 0, 4, 16*400, 0x100000), job(t, 6, 4, 16*400, 0x140000)})
			if err != nil {
				t.Fatal(err)
			}
			b, err := ref.Run([]Job{job(t, 0, 4, 16*400, 0x100000), job(t, 6, 4, 16*400, 0x140000)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) || m.Sys.Stats() != ref.Sys.Stats() || m.Now() != ref.Now() {
				t.Errorf("warmed machine diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// TestWarmHitAllocatesNothing: once a machine has memoized a warm-up,
// Reset plus a warm-up restored from the memo allocates nothing.
func TestWarmHitAllocatesNothing(t *testing.T) {
	m := testMachine(t, "nehalem-dual/8")
	m.Warm(warmPins, warmArrays, warmBytes)
	if n := testing.AllocsPerRun(10, func() {
		m.Reset()
		m.Warm(warmPins, warmArrays, warmBytes)
	}); n != 0 {
		t.Errorf("Reset and a memo-hit Warm allocated %.0f objects per call, want 0", n)
	}
}
