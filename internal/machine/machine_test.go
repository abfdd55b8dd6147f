package machine

import (
	"testing"
	"testing/quick"
)

func TestTable1Inventory(t *testing.T) {
	// The paper's Table 1: three machines, with the documented shapes.
	dual := NehalemDualSocket()
	if dual.Cores != 12 || dual.Sockets != 2 || dual.CoreGHz != 2.67 {
		t.Errorf("dual-socket Nehalem = %+v", dual)
	}
	if dual.Arch.TwoLoadPorts {
		t.Error("Nehalem must have a single load port")
	}
	quad := NehalemQuadSocket()
	if quad.Cores != 32 || quad.Sockets != 4 {
		t.Errorf("quad-socket Nehalem = %+v", quad)
	}
	snb := SandyBridge()
	if snb.Cores != 4 || snb.Sockets != 1 || !snb.Arch.TwoLoadPorts {
		t.Errorf("Sandy Bridge = %+v", snb)
	}
	for _, m := range []*Machine{dual, quad, snb} {
		if err := m.Hierarchy.Validate(); err != nil {
			t.Errorf("%s: invalid hierarchy: %v", m.Name, err)
		}
		if m.Cores != m.Sockets*m.Hierarchy.CoresPerSocket {
			t.Errorf("%s: cores %d != sockets %d x per-socket %d",
				m.Name, m.Cores, m.Sockets, m.Hierarchy.CoresPerSocket)
		}
		if len(m.FrequencyStepsGHz) == 0 {
			t.Errorf("%s: no DVFS points", m.Name)
		}
		if _, err := m.NewSystem(); err != nil {
			t.Errorf("%s: NewSystem: %v", m.Name, err)
		}
	}
}

func TestScaledPreservesRatiosAndLatencies(t *testing.T) {
	base := NehalemDualSocket()
	s, err := base.Scaled(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Hierarchy.L1.Size*8 != base.Hierarchy.L1.Size ||
		s.Hierarchy.L2.Size*8 != base.Hierarchy.L2.Size ||
		s.Hierarchy.L3.Size*8 != base.Hierarchy.L3.Size {
		t.Error("scaling did not divide capacities uniformly")
	}
	if s.Hierarchy.L1.Latency != base.Hierarchy.L1.Latency ||
		s.Hierarchy.Mem.Latency != base.Hierarchy.Mem.Latency ||
		s.Hierarchy.Mem.ChannelBytesPerCycle != base.Hierarchy.Mem.ChannelBytesPerCycle {
		t.Error("scaling changed latency/bandwidth")
	}
	if s.Name != "nehalem-dual/8" {
		t.Errorf("scaled name = %q", s.Name)
	}
	// Base unchanged (no aliasing).
	if base.Hierarchy.L1.Size != 32<<10 {
		t.Error("Scaled mutated the base machine")
	}
	if _, err := base.Scaled(3); err == nil {
		t.Error("non-power-of-two factor accepted")
	}
	if _, err := base.Scaled(1 << 20); err == nil {
		t.Error("over-scaling accepted (L1 below one set)")
	}
	if one, err := base.Scaled(1); err != nil || one.Name != base.Name {
		t.Errorf("identity scaling: %v %v", one, err)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("nehalem-dual"); err != nil {
		t.Error(err)
	}
	m, err := ByName("sandybridge/16")
	if err != nil {
		t.Fatal(err)
	}
	if m.Hierarchy.L1.Size != (32<<10)/16 {
		t.Errorf("scaled L1 = %d", m.Hierarchy.L1.Size)
	}
	if _, err := ByName("itanium"); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := ByName("sandybridge/x"); err == nil {
		t.Error("bad factor accepted")
	}
	names := Names()
	if len(names) != 3 {
		t.Errorf("names = %v", names)
	}
}

// Property: for every valid power-of-two scale, the scaled hierarchy stays
// valid and hierarchy ordering (L1 < L2 < L3) is preserved.
func TestPropertyScaling(t *testing.T) {
	f := func(exp uint8) bool {
		factor := 1 << (exp % 6) // 1..32
		for _, name := range Names() {
			base, _ := ByName(name)
			s, err := base.Scaled(factor)
			if err != nil {
				return false
			}
			if s.Hierarchy.Validate() != nil {
				return false
			}
			h := s.Hierarchy
			if !(h.L1.Size < h.L2.Size && h.L2.Size < h.L3.Size) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
