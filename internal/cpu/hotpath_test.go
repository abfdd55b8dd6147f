package cpu

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
)

// refPickPort is the preference-order loop pickPort ran for every mask,
// kept here as the reference for its single-port fast path and its
// per-mask port lists.
func refPickPort(portFree *[isa.NumPorts]int64, mask isa.PortMask, earliest int64) (int64, bool) {
	best := isa.Port(255)
	var bestFree int64
	for _, p := range portPreference {
		if !mask.Has(p) {
			continue
		}
		if best == 255 || portFree[p] < bestFree {
			best = p
			bestFree = portFree[p]
		}
	}
	if best == 255 {
		return 0, false
	}
	start := earliest
	if bestFree > start {
		start = bestFree
	}
	portFree[best] = start + 1
	return start, true
}

// TestPickPortMatchesPreferenceOrder checks every port mask, alone and
// with bits above the ports set, against the preference loop, over port
// states with ties, distinct values and ports busy past the earliest
// cycle: same start, same error, same port state. It also holds every
// mask's port list to the preference order filtered by the mask.
func TestPickPortMatchesPreferenceOrder(t *testing.T) {
	states := [][isa.NumPorts]int64{
		{},
		{5, 5, 5, 5, 5, 5},
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{3, 3, 1, 1, 7, 7},
		{2, 9, 2, 9, 2, 9},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		var s [isa.NumPorts]int64
		for p := range s {
			s[p] = int64(rng.Intn(3))
		}
		states = append(states, s)
	}
	for m := isa.PortMask(0); m < 1<<isa.NumPorts; m++ {
		var want []isa.Port
		for _, p := range portPreference {
			if m.Has(p) {
				want = append(want, p)
			}
		}
		if !slices.Equal(portLists[m], want) {
			t.Fatalf("mask %06b: port list %v, want %v", m, portLists[m], want)
		}
	}
	var masks []isa.PortMask
	for m := isa.PortMask(0); m < 1<<isa.NumPorts; m++ {
		masks = append(masks, m, m|1<<isa.NumPorts, m|1<<15)
	}
	for _, mask := range masks {
		for _, st := range states {
			for _, earliest := range []int64{0, 2, 10} {
				c := &Core{portFree: st}
				ref := st
				got, err := c.pickPort(mask, earliest)
				want, ok := refPickPort(&ref, mask, earliest)
				if (err == nil) != ok {
					t.Fatalf("mask %06b: error %v, reference ok=%v", mask, err, ok)
				}
				if got != want || c.portFree != ref {
					t.Fatalf("mask %06b state %v earliest %d: start %d ports %v, reference start %d ports %v",
						mask, st, earliest, got, c.portFree, want, ref)
				}
			}
		}
	}
	if _, err := (&Core{}).pickPort(0, 0); err == nil {
		t.Error("empty port mask did not error")
	}
}

// TestROBSlotMatchesModuloRing runs robSlot for over twice the ROB size and
// checks the returned dispatch cycle and the ring state against the modulo
// arithmetic the compare-wrap replaced.
func TestROBSlotMatchesModuloRing(t *testing.T) {
	n := isa.Nehalem().ROBSize
	c := &Core{rob: make([]int64, n)}
	ref := make([]int64, n)
	head, count := 0, 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3*n+7; i++ {
		dispatch, completion := int64(i), int64(i+rng.Intn(4*n))
		want := dispatch
		if count == n {
			if ref[head] > want {
				want = ref[head]
			}
			head = (head + 1) % n
			count--
		}
		ref[(head+count)%n] = completion
		count++
		if got := c.robSlot(dispatch, completion); got != want {
			t.Fatalf("µop %d: dispatch %d, want %d", i, got, want)
		}
		if c.robHead != head || c.robCount != count {
			t.Fatalf("µop %d: head/count %d/%d, want %d/%d", i, c.robHead, c.robCount, head, count)
		}
	}
	for i := range ref {
		if c.rob[i] != ref[i] {
			t.Fatalf("rob[%d] = %d, want %d", i, c.rob[i], ref[i])
		}
	}
}

// ringCheckMem checks, at every load and store, that the core's load and
// store buffer indices equal the µop count modulo the buffer size.
type ringCheckMem struct {
	t             *testing.T
	c             *Core
	loads, stores int
}

func (m *ringCheckMem) Load(_ int, _ uint64, _ int, issue int64) int64 {
	if want := m.loads % len(m.c.loadBuf); m.c.loadIdx != want {
		m.t.Fatalf("load %d: loadIdx %d, want %d", m.loads, m.c.loadIdx, want)
	}
	m.loads++
	return issue + 4
}

func (m *ringCheckMem) Store(_ int, _ uint64, _ int, issue int64) int64 {
	if want := m.stores % len(m.c.storeBuf); m.c.storeIdx != want {
		m.t.Fatalf("store %d: storeIdx %d, want %d", m.stores, m.c.storeIdx, want)
	}
	m.stores++
	return issue + 1
}

// TestLoadStoreBufferIndicesWrap runs a load+store loop for more than twice
// the load and store buffer sizes, so both indices wrap several times.
func TestLoadStoreBufferIndicesWrap(t *testing.T) {
	p, err := asm.ParseOne(`
.L0:
movaps (%rsi), %xmm0
movaps %xmm0, 16(%rsi)
add $32, %rsi
sub $4, %rdi
jge .L0
ret`, "k")
	if err != nil {
		t.Fatal(err)
	}
	arch := isa.Nehalem()
	mem := &ringCheckMem{t: t}
	c := NewCore(0, arch, mem)
	mem.c = c
	iters := 3*max(arch.LoadBuffers, arch.StoreBuffers) + 5
	var rf isa.RegFile
	rf.Set(isa.RDI, uint64(4*iters)-1)
	rf.Set(isa.RSI, 0x100000)
	if err := c.Reset(p, &rf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if mem.loads != iters || mem.stores != iters {
		t.Fatalf("ran %d loads and %d stores, want %d each", mem.loads, mem.stores, iters)
	}
}
