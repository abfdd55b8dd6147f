package obs

import (
	"fmt"

	"microtools/internal/memsim"
)

// Counters is a simulated-PMU snapshot: the memory-system event counts
// plus the per-core pipeline counters, captured as a delta over the
// measured region only (warm-up and calibration traffic excluded — the
// simulated analogue of reading hardware counters immediately around the
// benchmarked code, as nanoBench does).
type Counters struct {
	// Mem aggregates the memory-hierarchy events (L1/L2/L3 hits and
	// misses, MSHR merges, alias stalls, prefetches, row misses, memory
	// accesses) over the measured region.
	Mem memsim.Stats `json:"mem"`
	// RetiredInsts is the dynamic instruction count across all measured
	// kernel invocations (all cores).
	RetiredInsts int64 `json:"retired_insts"`
	// Branches is the retired branch count.
	Branches int64 `json:"branches"`
	// BranchMispredicts counts conditional branches resolved against the
	// predictor's direction.
	BranchMispredicts int64 `json:"branch_mispredicts"`
	// FrontendStallCycles accumulates cycles the frontend was refilling:
	// ROB-full backpressure, mispredict redirects and taken-branch fetch
	// bubbles.
	FrontendStallCycles int64 `json:"frontend_stall_cycles"`
	// InterruptStallCycles accumulates cycles stolen by simulated timer
	// interrupts (§4.7 noise); zero whenever interrupts are disabled.
	InterruptStallCycles int64 `json:"interrupt_stall_cycles"`
	// CoreCycles is the summed core-cycle cost of the measured kernel
	// invocations (the CPI denominator's partner).
	CoreCycles int64 `json:"core_cycles"`
}

// ratio is the NaN-free division used by every derived metric: 0 when the
// denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// CPI is cycles per retired instruction.
func (c Counters) CPI() float64 {
	return ratio(float64(c.CoreCycles), float64(c.RetiredInsts))
}

// IPC is retired instructions per cycle.
func (c Counters) IPC() float64 {
	return ratio(float64(c.RetiredInsts), float64(c.CoreCycles))
}

// L1HitRate is L1 hits over L1 lookups.
func (c Counters) L1HitRate() float64 {
	return ratio(float64(c.Mem.L1Hits), float64(c.Mem.L1Hits+c.Mem.L1Misses))
}

// mpki is misses per kilo-instruction.
func (c Counters) mpki(misses int64) float64 {
	return ratio(1000*float64(misses), float64(c.RetiredInsts))
}

// L1MPKI is L1 misses per kilo-instruction.
func (c Counters) L1MPKI() float64 { return c.mpki(c.Mem.L1Misses) }

// L2MPKI is L2 misses per kilo-instruction.
func (c Counters) L2MPKI() float64 { return c.mpki(c.Mem.L2Misses) }

// L3MPKI is L3 misses per kilo-instruction.
func (c Counters) L3MPKI() float64 { return c.mpki(c.Mem.L3Misses) }

// MispredictRate is mispredicted branches over retired branches.
func (c Counters) MispredictRate() float64 {
	return ratio(float64(c.BranchMispredicts), float64(c.Branches))
}

// CheckInvariants verifies the structural identities the memory hierarchy
// guarantees for any counter snapshot captured as a measured-region delta
// (every identity below is maintained within a single access, so deltas
// taken between accesses inherit them):
//
//	L1 hits + L1 misses = loads + stores + line splits
//	L2 demand lookups   = L1 misses − MSHR merges
//	L3 lookups          = L2 misses + prefetches
//	memory accesses     = L3 misses
//	bytes from memory   = memory accesses × line size
//
// lineSize is the hierarchy's cache-line size in bytes. Pipeline counters
// are checked for basic sanity (mispredicts bounded by branches, branches
// bounded by retired instructions, nothing negative).
func (c Counters) CheckInvariants(lineSize int64) error {
	m := c.Mem
	if got, want := m.L1Hits+m.L1Misses, m.Loads+m.Stores+m.LineSplits; got != want {
		return fmt.Errorf("obs: L1 lookups %d != accesses %d (loads %d + stores %d + splits %d)",
			got, want, m.Loads, m.Stores, m.LineSplits)
	}
	if got, want := m.L2Hits+m.L2Misses, m.L1Misses-m.MSHRMerges; got != want {
		return fmt.Errorf("obs: L2 lookups %d != L1 misses %d - MSHR merges %d",
			got, m.L1Misses, m.MSHRMerges)
	}
	if got, want := m.L3Hits+m.L3Misses, m.L2Misses+m.Prefetches; got != want {
		return fmt.Errorf("obs: L3 lookups %d != L2 misses %d + prefetches %d",
			got, m.L2Misses, m.Prefetches)
	}
	if m.MemAccesses != m.L3Misses {
		return fmt.Errorf("obs: memory accesses %d != L3 misses %d", m.MemAccesses, m.L3Misses)
	}
	if lineSize > 0 && m.BytesFromMemory != m.MemAccesses*lineSize {
		return fmt.Errorf("obs: bytes from memory %d != accesses %d x line %d",
			m.BytesFromMemory, m.MemAccesses, lineSize)
	}
	for _, v := range []struct {
		name string
		v    int64
	}{
		{"loads", m.Loads}, {"stores", m.Stores},
		{"l1_hits", m.L1Hits}, {"l1_misses", m.L1Misses},
		{"l2_hits", m.L2Hits}, {"l2_misses", m.L2Misses},
		{"l3_hits", m.L3Hits}, {"l3_misses", m.L3Misses},
		{"mshr_merges", m.MSHRMerges}, {"prefetches", m.Prefetches},
		{"row_misses", m.RowMisses}, {"retired_insts", c.RetiredInsts},
		{"branches", c.Branches}, {"branch_mispredicts", c.BranchMispredicts},
		{"frontend_stall_cycles", c.FrontendStallCycles},
		{"interrupt_stall_cycles", c.InterruptStallCycles},
		{"core_cycles", c.CoreCycles},
	} {
		if v.v < 0 {
			return fmt.Errorf("obs: negative counter %s = %d", v.name, v.v)
		}
	}
	if c.BranchMispredicts > c.Branches {
		return fmt.Errorf("obs: mispredicts %d exceed branches %d", c.BranchMispredicts, c.Branches)
	}
	if c.Branches > c.RetiredInsts {
		return fmt.Errorf("obs: branches %d exceed retired instructions %d", c.Branches, c.RetiredInsts)
	}
	return nil
}
