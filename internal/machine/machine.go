// Package machine assembles the paper's Table 1 target machines — the
// dual-socket Nehalem (Xeon X5650), the quad-socket Nehalem (Xeon X7550)
// and the Sandy Bridge (Xeon E31240) — from the core pipeline model
// (internal/isa.Arch) and the memory hierarchy model (internal/memsim).
//
// Parameters follow the public specifications of the parts (cache
// geometries, channel counts, DDR3 bandwidths, documented latencies). Each
// machine also offers Scaled(f) variants that divide cache capacities by f
// while preserving the hierarchy's ratios, so experiment sweeps cross the
// same residency boundaries with far smaller footprints — the §5.1 "half
// the cache / twice the cache" protocol is invariant to this scaling.
package machine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"microtools/internal/isa"
	"microtools/internal/memsim"
)

// Machine is one simulated target platform.
type Machine struct {
	Name string
	// Label is the human-readable description used in reports (Table 1).
	Label string
	Arch  *isa.Arch
	// Cores is the total core count; Sockets the socket count.
	Cores   int
	Sockets int
	// CoreGHz is the nominal core frequency, UncoreGHz the L3/memory
	// domain frequency, RefGHz the TSC reference frequency (constant-rate
	// TSC ticks at the nominal frequency regardless of DVFS — §5.1's
	// "the rdtsc counter which is independent on the frequency").
	CoreGHz   float64
	UncoreGHz float64
	RefGHz    float64
	Hierarchy memsim.HierarchyConfig
	// FrequencyStepsGHz are the DVFS operating points available for the
	// Fig. 13 frequency sweep.
	FrequencyStepsGHz []float64
}

// NehalemDualSocket models the dual-socket Xeon X5650 (2.67 GHz, 2×6
// cores, 3 DDR3 channels per socket) used for Figs. 2-5 and 11-14.
func NehalemDualSocket() *Machine {
	return &Machine{
		Name:      "nehalem-dual",
		Label:     "Dual-Socket Nehalem, Intel Xeon X5650 - 2.67 GHz",
		Arch:      isa.Nehalem(),
		Cores:     12,
		Sockets:   2,
		CoreGHz:   2.67,
		UncoreGHz: 2.13,
		RefGHz:    2.67,
		Hierarchy: memsim.HierarchyConfig{
			L1: memsim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8,
				Latency: 4, ThroughputCycles: 1, MSHRs: 10, Banks: 1},
			L2: memsim.CacheConfig{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8,
				Latency: 10, ThroughputCycles: 2},
			L3: memsim.CacheConfig{Name: "L3", Size: 12 << 20, LineSize: 64, Assoc: 16,
				Latency: 30, ThroughputCycles: 2},
			Mem:              memsim.MemConfig{Latency: 130, Channels: 3, ChannelBytesPerCycle: 5.0, RowBytes: 16 << 10, RowMissCycles: 22, BanksPerChannel: 8},
			CoresPerSocket:   6,
			CoreClockRatio:   2.67 / 2.13,
			NextLinePrefetch: true,
			// ~10 outstanding line fills over the ~190-cycle memory round
			// trip give one core ~1 line per 19 cycles from RAM, so ~3
			// cores saturate a socket's 3 channels — Fig. 14's knee.
			PrefetchOutstanding: 10,
			AliasPenalty:        5,
			AliasWindow:         40,
			SplitPenalty:        3,
		},
		FrequencyStepsGHz: []float64{1.60, 1.86, 2.13, 2.40, 2.67},
	}
}

// NehalemQuadSocket models the quad-socket Xeon X7550 (2.0 GHz, 4×8 cores)
// used for the 32-core alignment studies (Figs. 15-16).
func NehalemQuadSocket() *Machine {
	return &Machine{
		Name:      "nehalem-quad",
		Label:     "Quad-Socket Nehalem, Intel Xeon X7550",
		Arch:      isa.Nehalem(),
		Cores:     32,
		Sockets:   4,
		CoreGHz:   2.0,
		UncoreGHz: 1.87,
		RefGHz:    2.0,
		Hierarchy: memsim.HierarchyConfig{
			L1: memsim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8,
				Latency: 4, ThroughputCycles: 1, MSHRs: 10, Banks: 1},
			L2: memsim.CacheConfig{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8,
				Latency: 10, ThroughputCycles: 2},
			L3: memsim.CacheConfig{Name: "L3", Size: 16 << 20, LineSize: 64, Assoc: 16,
				Latency: 35, ThroughputCycles: 2},
			Mem:                 memsim.MemConfig{Latency: 160, Channels: 4, ChannelBytesPerCycle: 4.0, RowBytes: 16 << 10, RowMissCycles: 24, BanksPerChannel: 8},
			CoresPerSocket:      8,
			CoreClockRatio:      2.0 / 1.87,
			NextLinePrefetch:    true,
			PrefetchOutstanding: 10,
			AliasPenalty:        5,
			AliasWindow:         40,
			SplitPenalty:        3,
		},
		FrequencyStepsGHz: []float64{1.20, 1.60, 2.00},
	}
}

// SandyBridge models the Xeon E31240 (3.3 GHz, 4 cores, 2 DDR3 channels)
// used for the OpenMP studies (Figs. 17-18, Table 2).
func SandyBridge() *Machine {
	return &Machine{
		Name:      "sandybridge",
		Label:     "Sandy Bridge, Intel Xeon E31240 - 3.30 GHz",
		Arch:      isa.SandyBridge(),
		Cores:     4,
		Sockets:   1,
		CoreGHz:   3.3,
		UncoreGHz: 3.3,
		RefGHz:    3.3,
		Hierarchy: memsim.HierarchyConfig{
			L1: memsim.CacheConfig{Name: "L1", Size: 32 << 10, LineSize: 64, Assoc: 8,
				Latency: 4, ThroughputCycles: 1, MSHRs: 10, Banks: 8},
			L2: memsim.CacheConfig{Name: "L2", Size: 256 << 10, LineSize: 64, Assoc: 8,
				Latency: 12, ThroughputCycles: 2},
			L3: memsim.CacheConfig{Name: "L3", Size: 8 << 20, LineSize: 64, Assoc: 16,
				Latency: 28, ThroughputCycles: 2},
			Mem:                 memsim.MemConfig{Latency: 170, Channels: 2, ChannelBytesPerCycle: 3.2, RowBytes: 16 << 10, RowMissCycles: 20, BanksPerChannel: 8},
			CoresPerSocket:      4,
			CoreClockRatio:      1.0,
			NextLinePrefetch:    true,
			PrefetchOutstanding: 12,
			AliasPenalty:        5,
			AliasWindow:         40,
			SplitPenalty:        3,
		},
		FrequencyStepsGHz: []float64{1.60, 2.00, 2.40, 2.80, 3.30},
	}
}

// Scaled returns a copy with cache capacities divided by factor (a power of
// two), preserving line size, associativity and all latencies/bandwidths.
// The hierarchy ratios — and therefore every residency-boundary experiment —
// are unchanged, while simulated footprints shrink by the same factor.
func (m *Machine) Scaled(factor int) (*Machine, error) {
	if factor < 1 || factor&(factor-1) != 0 {
		return nil, fmt.Errorf("machine: scale factor %d must be a positive power of two", factor)
	}
	s := *m
	s.Hierarchy = m.Hierarchy
	scale := func(c memsim.CacheConfig) (memsim.CacheConfig, error) {
		c.Size /= int64(factor)
		if c.Size < c.LineSize*int64(c.Assoc) {
			return c, fmt.Errorf("machine: %s too small after /%d scaling", c.Name, factor)
		}
		return c, nil
	}
	var err error
	if s.Hierarchy.L1, err = scale(m.Hierarchy.L1); err != nil {
		return nil, err
	}
	if s.Hierarchy.L2, err = scale(m.Hierarchy.L2); err != nil {
		return nil, err
	}
	if s.Hierarchy.L3, err = scale(m.Hierarchy.L3); err != nil {
		return nil, err
	}
	if factor > 1 {
		s.Name = fmt.Sprintf("%s/%d", m.Name, factor)
		s.Label = fmt.Sprintf("%s (caches scaled 1/%d)", m.Label, factor)
	}
	return &s, nil
}

// NewSystem instantiates the machine's memory system.
func (m *Machine) NewSystem() (*memsim.System, error) {
	return memsim.NewSystem(m.Hierarchy, m.Cores)
}

var builders = map[string]func() *Machine{
	"nehalem-dual": NehalemDualSocket,
	"nehalem-quad": NehalemQuadSocket,
	"sandybridge":  SandyBridge,
}

// Names lists the base machine names.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a machine name, optionally with a "/factor" scaling
// suffix (e.g. "nehalem-dual/8").
func ByName(name string) (*Machine, error) {
	base, factorStr, scaled := strings.Cut(name, "/")
	b, ok := builders[base]
	if !ok {
		return nil, fmt.Errorf("machine: unknown machine %q (known: %s)", base, strings.Join(Names(), ", "))
	}
	m := b()
	if !scaled {
		return m, nil
	}
	f, err := strconv.Atoi(factorStr)
	if err != nil {
		return nil, fmt.Errorf("machine: bad scale factor %q", factorStr)
	}
	return m.Scaled(f)
}
