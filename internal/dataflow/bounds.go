package dataflow

import (
	"fmt"
	"math"
	"math/bits"

	"microtools/internal/isa"
)

// Bounds is the performance-bound slice of Report: everything the campaign
// oracle and the static screens consume, without the explanatory structures
// (edges, critical path, port-class lists) the full Analyze materializes.
// Every field is computed by the same code paths as its Report counterpart,
// so KernelBounds and Analyze agree bit for bit.
type Bounds struct {
	// LatencyBound, ThroughputBound, FrontendBound and CyclesLowerBound
	// mirror the Report fields of the same names.
	LatencyBound     float64
	ThroughputBound  float64
	FrontendBound    float64
	CyclesLowerBound float64
	// LoopStart / LoopEnd and CounterStep mirror the Report fields of the
	// same names.
	LoopStart, LoopEnd int
	CounterStep        int64
	// Uops / UnfusedUops mirror the Report µop counters.
	Uops        int
	UnfusedUops int
}

// derivedBoundsTag namespaces this package's entries in the DecodedProgram
// derived-result memo (high 32 bits = consumer, low 32 = issue width).
const derivedBoundsTag = uint64(1) << 32

// KernelBounds computes the static performance bounds of p on arch — the
// Bounds subset of Analyze's Report — memoized per (decode signature, issue
// width) on the program's canonical DecodedProgram, the same way Decoded
// memoizes the µop decode. Repeated bound queries for one kernel (cache
// hits, retries, screening plus measuring) cost one lookup instead of one
// analysis; a cold query skips the liveness fixpoint, the dependence-edge
// list and every reporting structure, which makes it an order of magnitude
// lighter than Analyze.
func KernelBounds(p *isa.Program, arch *isa.Arch) (Bounds, error) {
	if p == nil || len(p.Insts) == 0 {
		return Bounds{}, fmt.Errorf("dataflow: empty program")
	}
	dp, err := p.Decoded(arch)
	if err != nil {
		return Bounds{}, fmt.Errorf("dataflow: %w", err)
	}
	v := dp.Derived(derivedBoundsTag|uint64(uint32(arch.IssueWidth)), func() any {
		b := computeBounds(p, dp, arch)
		return &b
	})
	return *(v.(*Bounds)), nil
}

// computeBounds is the lean bound computation behind KernelBounds.
func computeBounds(p *isa.Program, dp *isa.DecodedProgram, arch *isa.Arch) Bounds {
	a := newAnalysis(p, dp, arch)
	b := Bounds{LoopStart: a.start, LoopEnd: a.end}
	for i := a.start; i <= a.end; i++ {
		for _, u := range dp.Uops[i] {
			b.Uops++
			if !u.Fused {
				b.UnfusedUops++
			}
		}
	}
	b.LatencyBound = a.latencyBound()
	// pressure() leaves both bounds zero for a µop-free body; keep that.
	if b.Uops > 0 {
		b.ThroughputBound = a.throughputBound()
		b.FrontendBound = float64(b.UnfusedUops) / float64(arch.IssueWidth)
	}
	b.CounterStep = a.counterStep()
	b.CyclesLowerBound = math.Max(b.LatencyBound,
		math.Max(b.ThroughputBound, b.FrontendBound))
	return b
}

// carriedDist is runCarriedPass without the event log: it propagates only
// the distances — enough for the cycle-mean bound, not for critical-path
// reconstruction — so one loop-body pass allocates nothing.
func (a *analysis) carriedDist(s isa.Reg, dist *[isa.NumRegs]float64) {
	for r := range dist {
		dist[r] = negInf
	}
	dist[s] = 0
	for i := a.start; i <= a.end; i++ {
		if a.writes[i] == 0 {
			continue
		}
		best := negInf
		for rs := a.reads[i]; rs != 0; rs &= rs - 1 {
			if d := dist[bits.TrailingZeros64(uint64(rs))]; d > best {
				best = d
			}
		}
		// A definition independent of s (best still -Inf) kills the chain.
		d := negInf
		if best != negInf {
			d = best + a.defLat(i)
		}
		for ws := a.writes[i]; ws != 0; ws &= ws - 1 {
			dist[bits.TrailingZeros64(uint64(ws))] = d
		}
	}
}

// latencyBound is latency()'s maximum cycle mean without the LoopCarried
// accounting or path reconstruction: the same carried sources, the same
// per-source distance passes and the same max-plus matrix powers, on flat
// buffers.
func (a *analysis) latencyBound() float64 {
	if !a.hasLoop {
		return 0
	}
	var readBefore, written bitset
	var carriedBuf [isa.NumRegs]isa.Reg
	carried := carriedBuf[:0]
	for i := a.start; i <= a.end; i++ {
		readBefore |= a.reads[i].without(written)
		written |= a.writes[i]
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if readBefore.has(r) && written.has(r) {
			carried = append(carried, r)
		}
	}
	n := len(carried)
	if n == 0 {
		return 0
	}
	// Three n×n matrices; a loop carries a handful of resources, so they
	// fit on the stack.
	var buf [3 * 8 * 8]float64
	mats := buf[:]
	if 3*n*n > len(buf) {
		mats = make([]float64, 3*n*n)
	}
	w, pow, next := mats[:n*n:n*n], mats[n*n:2*n*n:2*n*n], mats[2*n*n:3*n*n]
	var dist [isa.NumRegs]float64
	for u, s := range carried { // w[u*n+v]: carried[u] -> final write of carried[v]
		a.carriedDist(s, &dist)
		for v, t := range carried {
			w[u*n+v] = dist[t]
		}
	}
	copy(pow, w)
	best := 0.0
	for k := 1; k <= n; k++ {
		if k > 1 {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					m := negInf
					for x := 0; x < n; x++ {
						if pow[u*n+x] == negInf || w[x*n+v] == negInf {
							continue
						}
						if d := pow[u*n+x] + w[x*n+v]; d > m {
							m = d
						}
					}
					next[u*n+v] = m
				}
			}
			pow, next = next, pow
		}
		for u := 0; u < n; u++ {
			if pow[u*n+u] == negInf {
				continue
			}
			if mean := pow[u*n+u] / float64(k); mean > best {
				best = mean
			}
		}
	}
	return best
}

// throughputBound is pressure()'s port-class maximum without building the
// class list: the most loaded union of the body's port masks. Duplicate
// unions repeat a value the max already holds, so the dedup set is dropped
// too.
func (a *analysis) throughputBound() float64 {
	var maskBuf [8]isa.PortMask
	var countBuf [8]int
	masks := maskBuf[:0]
	counts := countBuf[:0]
	for i := a.start; i <= a.end; i++ {
		for _, u := range a.dp.Uops[i] {
			found := false
			for mi, m := range masks {
				if m == u.Ports {
					counts[mi]++
					found = true
					break
				}
			}
			if !found {
				masks = append(masks, u.Ports)
				counts = append(counts, 1)
			}
		}
	}
	if len(masks) == 0 {
		return 0
	}
	best := 0.0
	for sub := 1; sub < 1<<len(masks); sub++ {
		var class isa.PortMask
		for mi := range masks {
			if sub&(1<<mi) != 0 {
				class |= masks[mi]
			}
		}
		uops := 0
		for mi, m := range masks {
			if m&^class == 0 {
				uops += counts[mi]
			}
		}
		if p := float64(uops) / float64(class.Count()); p > best {
			best = p
		}
	}
	return best
}
