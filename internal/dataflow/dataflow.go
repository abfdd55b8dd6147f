// Package dataflow is MicroTools' static performance model: an SSA-lite
// analysis layer over verified kernels that derives, per microarchitecture,
// what the timing simulator should at minimum cost to run them.
//
// For one program and one isa.Arch it computes
//
//   - reaching definitions and liveness for registers and flags (a backward
//     bitset fixpoint over the control-flow graph),
//   - the RAW/WAR/WAW dependence DAG of the innermost loop body, including
//     the loop-carried edges across the back edge, and
//   - three per-iteration lower bounds on execution time: a critical-path
//     latency bound (the maximum cycle mean of the loop-carried dependence
//     graph, weighted with Arch.Decode µop latencies), a port-pressure
//     throughput bound (µops bound to a port class divided by the class
//     width, maximised over every union of the port masks present), and a
//     frontend bound (unfused µops over the issue width).
//
// The bounds are sound with respect to internal/cpu's scheduling model: each
// µop occupies exactly one port-cycle, at most IssueWidth unfused µops issue
// per cycle, and a value produced by an instruction is never ready earlier
// than its latest-ready source plus the compute µop's latency. The maximum
// of the three is Report.CyclesLowerBound, which internal/campaign asserts
// against measured cycles per iteration (the oracle invariant) and
// core.ScreenTopK ranks variants by (together with a memory-throughput term
// at the working set's residency level) before spending any launches.
package dataflow

import (
	"fmt"
	"math"
	"sort"

	"microtools/internal/isa"
)

// DepKind classifies a dependence edge.
type DepKind string

const (
	// RAW is a true (read-after-write) dependence; only these carry
	// latency weight.
	RAW DepKind = "RAW"
	// WAR is an anti dependence (write-after-read).
	WAR DepKind = "WAR"
	// WAW is an output dependence (write-after-write).
	WAW DepKind = "WAW"
)

// Edge is one dependence in the loop-body DAG. From and To are instruction
// indices into the program; a Carried edge crosses the loop back edge (From
// is in the previous iteration).
type Edge struct {
	Kind     DepKind `json:"kind"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Resource string  `json:"resource"`
	Carried  bool    `json:"carried,omitempty"`
	// Weight is the producer's µop latency in cycles (RAW edges only).
	Weight float64 `json:"weight,omitempty"`
}

// PathStep is one producer on the critical recurrence: instruction Index
// defines Resource, Latency cycles after its latest-ready input.
type PathStep struct {
	Index    int     `json:"index"`
	Inst     string  `json:"inst"`
	Resource string  `json:"resource"`
	Latency  float64 `json:"latency"`
}

// Recurrence is one loop-carried dependence cycle through a register (or
// the flags), with its cycle mean in cycles per iteration.
type Recurrence struct {
	Resource string `json:"resource"`
	// Length is the tightest bound this recurrence alone imposes: the
	// maximum over all dependence cycles through Resource of total
	// latency divided by the number of iterations the cycle spans.
	Length float64 `json:"length"`
}

// DeadWrite is a register write whose value no later instruction can read.
type DeadWrite struct {
	Index    int    `json:"index"`
	Inst     string `json:"inst"`
	Resource string `json:"resource"`
	// HasMem marks a memory-accessing instruction: the access itself is
	// usually the point of the kernel (a load-bandwidth probe), so the
	// dead destination is incidental and verify's V009 exempts it.
	HasMem bool `json:"has_mem,omitempty"`
}

// PortClass is the pressure of one port class: the µops per iteration that
// can only execute inside the class, divided by the class width.
type PortClass struct {
	Ports    string  `json:"ports"`
	Uops     int     `json:"uops"`
	Width    int     `json:"width"`
	Pressure float64 `json:"pressure"`
}

// Report is the static performance model of one kernel on one Arch. All
// bounds are cycles per loop-body execution; CounterStep relates a body
// execution to the launcher's counted iterations.
type Report struct {
	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
	// LoopStart/LoopEnd delimit the analysed innermost loop body
	// (inclusive instruction indices); both are -1 for straight-line
	// programs, in which case the whole program is the "body" and no
	// dependence is carried.
	LoopStart int `json:"loop_start"`
	LoopEnd   int `json:"loop_end"`
	// CounterStep is how much the iteration counter (%eax, which the
	// launcher reads back) advances per body execution, or 0 when the
	// body's updates are not recognisably constant.
	CounterStep int64 `json:"counter_step"`
	// Uops / UnfusedUops count the body's µops in the unfused and fused
	// domain respectively.
	Uops        int `json:"uops"`
	UnfusedUops int `json:"unfused_uops"`

	// LatencyBound is the maximum cycle mean of the loop-carried
	// dependence graph: no schedule can retire iterations faster than the
	// slowest recurrence advances.
	LatencyBound float64 `json:"latency_bound"`
	// ThroughputBound is the port-pressure bound: the most loaded port
	// class must serve its µops one per port-cycle.
	ThroughputBound float64 `json:"throughput_bound"`
	// FrontendBound is unfused µops over the issue width.
	FrontendBound float64 `json:"frontend_bound"`
	// CyclesLowerBound is the maximum of the three bounds.
	CyclesLowerBound float64 `json:"cycles_lower_bound"`

	// CriticalPath lists the producers around the binding recurrence, in
	// dependence order (empty when LatencyBound is 0).
	CriticalPath []PathStep `json:"critical_path,omitempty"`
	// LoopCarried lists every register (and the flags) whose value flows
	// across the back edge into a dependence cycle, tightest first.
	LoopCarried []Recurrence `json:"loop_carried,omitempty"`
	// DeadWrites lists register writes that can never be read, in program
	// order (flags writes are excluded: nearly every ALU op writes flags
	// nobody tests).
	DeadWrites []DeadWrite `json:"dead_writes,omitempty"`
	// SelfMoves lists register-to-register moves whose source and
	// destination coincide.
	SelfMoves []int `json:"self_moves,omitempty"`
	// selfMoveInsts renders each SelfMoves instruction for WriteTable.
	selfMoveInsts []string
	// PortPressure lists the port classes, most pressured first.
	PortPressure []PortClass `json:"port_pressure,omitempty"`
	// Edges is the loop-body dependence DAG.
	Edges []Edge `json:"edges,omitempty"`
}

var negInf = math.Inf(-1)

// exitLive is the liveness seed at RET: the launcher protocol reads the
// iteration count back from %eax, and the callee-owned stack registers stay
// meaningful to the caller. Everything else dies at the return.
var exitLive = bitset(1<<isa.RAX | 1<<isa.RSP | 1<<isa.RBP)

// bitset covers the isa.NumRegs (34) resource slots; RFLAGS is an ordinary
// slot, so flags need no special casing anywhere in the analysis.
type bitset uint64

func (b bitset) has(r isa.Reg) bool      { return b&(1<<r) != 0 }
func (b *bitset) add(r isa.Reg)          { *b |= 1 << r }
func (b *bitset) union(o bitset) bool    { old := *b; *b |= o; return *b != old }
func (b bitset) without(o bitset) bitset { return b &^ o }

// Analyze builds the static performance model of p on arch. The program
// must decode on arch (it is validated through isa's decoder); analysis
// itself cannot fail after that.
func Analyze(p *isa.Program, arch *isa.Arch) (*Report, error) {
	if p == nil || len(p.Insts) == 0 {
		return nil, fmt.Errorf("dataflow: empty program")
	}
	dp, err := p.Decoded(arch)
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	a := newAnalysis(p, dp, arch)
	rep := &Report{
		Kernel:    p.Name,
		Arch:      arch.Name,
		LoopStart: a.start,
		LoopEnd:   a.end,
	}
	rep.DeadWrites, rep.SelfMoves = a.liveness(false)
	for _, i := range rep.SelfMoves {
		rep.selfMoveInsts = append(rep.selfMoveInsts, p.Insts[i].String())
	}
	a.dependences(rep)
	a.latency(rep)
	a.pressure(rep)
	rep.CounterStep = a.counterStep()
	rep.CyclesLowerBound = math.Max(rep.LatencyBound,
		math.Max(rep.ThroughputBound, rep.FrontendBound))
	return rep, nil
}

// Liveness is the microarchitecture-independent slice of Report behind the
// verifier's V009/V010 rules.
type Liveness struct {
	// DeadWrites mirrors Report.DeadWrites without the writes whose
	// instruction touches memory: no rule reports those (the access is the
	// workload), so they are neither listed nor rendered.
	DeadWrites []DeadWrite
	// SelfMoves mirrors Report.SelfMoves.
	SelfMoves []int
}

// KernelLiveness runs only the liveness fixpoint of Analyze over p's scan on
// arch, which it shares with KernelBounds and Analyze through the decode's
// memo. It skips the dependence DAG and every bound, so it is what the
// verifier runs per variant; its entries are Analyze's, less the
// memory-accessing dead writes.
func KernelLiveness(p *isa.Program, arch *isa.Arch) (Liveness, error) {
	if p == nil || len(p.Insts) == 0 {
		return Liveness{}, fmt.Errorf("dataflow: empty program")
	}
	dp, err := p.Decoded(arch)
	if err != nil {
		return Liveness{}, fmt.Errorf("dataflow: %w", err)
	}
	a := newAnalysis(p, dp, arch)
	var l Liveness
	l.DeadWrites, l.SelfMoves = a.liveness(true)
	return l, nil
}

// analysis carries one run's view of a program: its decode, the arch the
// bounds are weighted for, and the program's memoized scan.
type analysis struct {
	prog *isa.Program
	dp   *isa.DecodedProgram
	arch *isa.Arch
	*scanned
}

// scanned is a program's scan: its innermost loop and each instruction's
// read and write sets. It depends on the decode alone, so every analysis
// of one DecodedProgram shares one scan, memoized on the decode; it is
// read-only once published.
type scanned struct {
	start, end int // analysed body, inclusive
	hasLoop    bool

	reads  []bitset // per instruction (whole program)
	writes []bitset
}

// derivedScanTag namespaces the memoized scan in the DecodedProgram
// derived-result memo (see derivedBoundsTag).
const derivedScanTag = uint64(2) << 32

// newAnalysis returns the analysis of p over its decode dp on arch, with
// the scan memoized on dp.
func newAnalysis(p *isa.Program, dp *isa.DecodedProgram, arch *isa.Arch) analysis {
	sc := dp.Derived(derivedScanTag, func() any { return scan(p, dp) })
	return analysis{prog: p, dp: dp, arch: arch, scanned: sc.(*scanned)}
}

// scan finds the innermost loop and precomputes each instruction's read and
// write sets. The innermost loop is the first backward conditional branch
// and its target: generated kernels have exactly one loop, and in nested
// kernels (matmul) the first backward branch closes the hot inner loop.
func scan(p *isa.Program, dp *isa.DecodedProgram) *scanned {
	n := len(p.Insts)
	sets := make([]bitset, 2*n)
	s := &scanned{start: 0, end: n - 1, reads: sets[:n:n], writes: sets[n:]}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op.IsCondBranch() && in.Target >= 0 && in.Target <= i {
			s.start, s.end, s.hasLoop = in.Target, i, true
			break
		}
	}
	for i := range p.Insts {
		info := &dp.Info[i]
		var rd, wr bitset
		for _, r := range info.AddrRegs {
			if r != isa.NoReg {
				rd.add(r)
			}
		}
		for _, r := range info.SrcRegs[:info.NSrc] {
			rd.add(r)
		}
		if info.ReadsFlags {
			rd.add(isa.RFLAGS)
		}
		if info.DstReg != isa.NoReg {
			wr.add(info.DstReg)
		}
		if info.WritesFlags {
			wr.add(isa.RFLAGS)
		}
		s.reads[i], s.writes[i] = rd, wr
	}
	return s
}

// defLat returns the latency a RAW consumer of instruction i's result must
// wait after the producer's latest-ready source: the compute µop's latency,
// or 0 for a pure load (the memory hierarchy adds its own latency on top,
// which keeps the static bound a lower bound without modelling caches).
func (a *analysis) defLat(i int) float64 {
	lat := 0
	for _, u := range a.dp.Uops(i) {
		if u.Role == isa.RoleCompute && u.Lat > lat {
			lat = u.Lat
		}
	}
	return float64(lat)
}

// succs appends the control-flow successors of instruction i to buf.
func (a *analysis) succs(i int, buf []int) []int {
	in := &a.prog.Insts[i]
	if in.Op == isa.RET {
		return buf
	}
	if in.Op.IsBranch() && in.Target >= 0 {
		buf = append(buf, in.Target)
		if !in.Op.IsCondBranch() {
			return buf
		}
	}
	if i+1 < len(a.prog.Insts) {
		buf = append(buf, i+1)
	}
	return buf
}

// liveness runs the backward dataflow fixpoint over the whole program and
// returns Report.DeadWrites and Report.SelfMoves; lean drops the dead
// writes of memory-accessing instructions (see Liveness).
func (a *analysis) liveness(lean bool) (dead []DeadWrite, selfMoves []int) {
	n := len(a.prog.Insts)
	// Generated kernels are a few dozen instructions: their live sets fit
	// on the stack.
	var buf [64]bitset
	live := buf[:]
	if 2*n > len(buf) {
		live = make([]bitset, 2*n)
	}
	liveIn, liveOut := live[:n:n], live[n:2*n]
	var sbuf [2]int
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			var out bitset
			if a.prog.Insts[i].Op == isa.RET {
				out = exitLive
			}
			for _, s := range a.succs(i, sbuf[:0]) {
				out |= liveIn[s]
			}
			in := a.reads[i] | out.without(a.writes[i])
			if out != liveOut[i] || in != liveIn[i] {
				liveOut[i], liveIn[i] = out, in
				changed = true
			}
		}
	}
	for i := range a.prog.Insts {
		in := &a.prog.Insts[i]
		info := &a.dp.Info[i]
		if d := info.DstReg; d != isa.NoReg && !liveOut[i].has(d) && !(lean && info.HasMem) {
			dead = append(dead, DeadWrite{Index: i, Inst: in.String(), Resource: d.String(), HasMem: info.HasMem})
		}
		if in.Op.IsMove() && in.NOps == 2 &&
			in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand &&
			in.A.Reg == in.B.Reg {
			selfMoves = append(selfMoves, i)
		}
	}
	return dead, selfMoves
}

// dependences builds the loop-body dependence DAG, including the carried
// edges, and fills Report.Edges and Report.Uops counters.
func (a *analysis) dependences(rep *Report) {
	var lastDef [isa.NumRegs]int
	var lastReads [isa.NumRegs][]int
	var firstDef [isa.NumRegs]int
	var upwardUses [isa.NumRegs][]int
	for r := range lastDef {
		lastDef[r], firstDef[r] = -1, -1
	}
	addEdge := func(e Edge) { rep.Edges = append(rep.Edges, e) }
	forEach := func(b bitset, f func(r isa.Reg)) {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if b.has(r) {
				f(r)
			}
		}
	}
	for i := a.start; i <= a.end; i++ {
		forEach(a.reads[i], func(r isa.Reg) {
			if d := lastDef[r]; d >= 0 {
				addEdge(Edge{Kind: RAW, From: d, To: i, Resource: r.String(), Weight: a.defLat(d)})
			} else {
				upwardUses[r] = append(upwardUses[r], i)
			}
			lastReads[r] = append(lastReads[r], i)
		})
		forEach(a.writes[i], func(r isa.Reg) {
			if d := lastDef[r]; d >= 0 {
				addEdge(Edge{Kind: WAW, From: d, To: i, Resource: r.String()})
			}
			for _, u := range lastReads[r] {
				if u != i {
					addEdge(Edge{Kind: WAR, From: u, To: i, Resource: r.String()})
				}
			}
			if firstDef[r] < 0 {
				firstDef[r] = i
			}
			lastDef[r] = i
			lastReads[r] = lastReads[r][:0]
		})
		for _, u := range a.dp.Uops(i) {
			rep.Uops++
			if !u.Fused {
				rep.UnfusedUops++
			}
		}
	}
	if !a.hasLoop {
		return
	}
	// Carried edges: the back edge makes the body's final access of each
	// resource precede the next iteration's first access.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		d := lastDef[r]
		if d < 0 {
			continue
		}
		for _, u := range upwardUses[r] {
			addEdge(Edge{Kind: RAW, From: d, To: u, Resource: r.String(), Carried: true, Weight: a.defLat(d)})
		}
		if f := firstDef[r]; f >= 0 {
			if len(lastReads[r]) > 0 {
				// Reads after the final write wait on nothing next
				// iteration writes before them, so the WAR partner is
				// the first write.
				for _, u := range lastReads[r] {
					addEdge(Edge{Kind: WAR, From: u, To: f, Resource: r.String(), Carried: true})
				}
			}
			addEdge(Edge{Kind: WAW, From: d, To: f, Resource: r.String(), Carried: true})
		}
	}
}

// defEvent records one definition during a symbolic latency pass, with a
// backpointer to the definition that fed it (-1 = the carried seed).
type defEvent struct {
	instr int
	prev  int
}

// carriedPass propagates distance-from-s through one loop body execution:
// after the pass, dist[t] is the longest RAW latency path from the carried
// value of s to the body's final write of t (negInf when t's final write
// does not depend on s). events/cur support path reconstruction.
type carriedPass struct {
	dist   [isa.NumRegs]float64
	cur    [isa.NumRegs]int
	events []defEvent
}

func (a *analysis) runCarriedPass(s isa.Reg) *carriedPass {
	p := &carriedPass{}
	for r := range p.dist {
		p.dist[r] = negInf
		p.cur[r] = -1
	}
	p.dist[s] = 0
	p.events = append(p.events, defEvent{instr: -1, prev: -1})
	p.cur[s] = 0
	for i := a.start; i <= a.end; i++ {
		if a.writes[i] == 0 {
			continue
		}
		best, bestR := negInf, isa.NoReg
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if a.reads[i].has(r) && p.dist[r] > best {
				best, bestR = p.dist[r], r
			}
		}
		if best == negInf {
			// This definition is independent of s: it kills the chain.
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if a.writes[i].has(r) {
					p.dist[r], p.cur[r] = negInf, -1
				}
			}
			continue
		}
		d := best + a.defLat(i)
		ev := len(p.events)
		p.events = append(p.events, defEvent{instr: i, prev: p.cur[bestR]})
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if a.writes[i].has(r) {
				p.dist[r], p.cur[r] = d, ev
			}
		}
	}
	return p
}

// latency computes the maximum cycle mean of the loop-carried dependence
// graph (Report.LatencyBound), the per-resource recurrence lengths
// (Report.LoopCarried) and the binding critical path.
func (a *analysis) latency(rep *Report) {
	if !a.hasLoop {
		return
	}
	// Sources: resources whose value crosses the back edge into this
	// iteration (read before written) and which the body also writes —
	// only those can close a dependence cycle.
	var readBefore, written bitset
	var carried []isa.Reg
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
		return
	}
	passes := make([]*carriedPass, n)
	w := make([][]float64, n) // w[u][v]: carried s=carried[u] -> final write of carried[v]
	for u, s := range carried {
		passes[u] = a.runCarriedPass(s)
		w[u] = make([]float64, n)
		for v, t := range carried {
			w[u][v] = passes[u].dist[t]
		}
	}
	// Maximum cycle mean via max-plus matrix powers: cycles of length k
	// in the resource graph span exactly k iterations, so the bound is
	// max over k <= n and u of pow_k[u][u]/k. choice[k][u][v] records the
	// penultimate hop for path reconstruction.
	pow := make([][]float64, n)
	for u := range pow {
		pow[u] = append([]float64(nil), w[u]...)
	}
	choice := make([][][]int, n+1)
	bestMean, bestK, bestU := 0.0, 0, -1
	for k := 1; k <= n; k++ {
		if k > 1 {
			next := make([][]float64, n)
			ch := make([][]int, n)
			for u := 0; u < n; u++ {
				next[u] = make([]float64, n)
				ch[u] = make([]int, n)
				for v := 0; v < n; v++ {
					next[u][v] = negInf
					ch[u][v] = -1
					for m := 0; m < n; m++ {
						if pow[u][m] == negInf || w[m][v] == negInf {
							continue
						}
						if d := pow[u][m] + w[m][v]; d > next[u][v] {
							next[u][v], ch[u][v] = d, m
						}
					}
				}
			}
			pow = next
			choice[k] = ch
		}
		for u := 0; u < n; u++ {
			if pow[u][u] == negInf {
				continue
			}
			mean := pow[u][u] / float64(k)
			if mean > bestMean {
				bestMean, bestK, bestU = mean, k, u
			}
			// Per-resource tightest cycle mean for Report.LoopCarried.
			found := false
			for ri := range rep.LoopCarried {
				if rep.LoopCarried[ri].Resource == carried[u].String() {
					found = true
					if mean > rep.LoopCarried[ri].Length {
						rep.LoopCarried[ri].Length = mean
					}
				}
			}
			if !found {
				rep.LoopCarried = append(rep.LoopCarried, Recurrence{
					Resource: carried[u].String(), Length: mean,
				})
			}
		}
	}
	sort.SliceStable(rep.LoopCarried, func(i, j int) bool {
		return rep.LoopCarried[i].Length > rep.LoopCarried[j].Length
	})
	rep.LatencyBound = bestMean
	if bestU < 0 {
		return
	}
	// Reconstruct the binding resource cycle u -> ... -> u (bestK hops),
	// then expand each hop into its instruction-level producer chain.
	hops := make([]int, 0, bestK+1)
	hops = append(hops, bestU)
	v := bestU
	for k := bestK; k > 1; k-- {
		m := choice[k][bestU][v]
		hops = append(hops, m)
		v = m
	}
	hops = append(hops, bestU)
	// hops is [end, ..., start]; walk it source-to-sink.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	for h := 0; h+1 < len(hops); h++ {
		src, dst := hops[h], hops[h+1]
		pass := passes[src]
		ev := pass.cur[carried[dst]]
		var steps []PathStep
		for ev > 0 {
			e := pass.events[ev]
			steps = append(steps, PathStep{
				Index:    e.instr,
				Inst:     a.prog.Insts[e.instr].String(),
				Resource: writtenName(a.writes[e.instr], carried[dst], len(steps) == 0),
				Latency:  a.defLat(e.instr),
			})
			ev = e.prev
		}
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		rep.CriticalPath = append(rep.CriticalPath, steps...)
	}
}

// writtenName picks the display resource for a critical-path step: the hop's
// carried sink when this is the final write, otherwise the lowest register
// the instruction defines.
func writtenName(writes bitset, sink isa.Reg, isFinal bool) string {
	if isFinal && writes.has(sink) {
		return sink.String()
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if writes.has(r) && r != isa.RFLAGS {
			return r.String()
		}
	}
	if writes.has(isa.RFLAGS) {
		return isa.RFLAGS.String()
	}
	return "?"
}

// pressure computes the port-class throughput bound and the frontend bound.
// A class is any union of the distinct port masks present in the body: every
// µop whose mask is contained in the class can only execute there, so the
// class's ports must spend at least uops/width cycles per iteration.
func (a *analysis) pressure(rep *Report) {
	var masks []isa.PortMask
	var counts []int
	for i := a.start; i <= a.end; i++ {
		for _, u := range a.dp.Uops(i) {
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
		return
	}
	seen := map[isa.PortMask]bool{}
	var classes []PortClass
	for sub := 1; sub < 1<<len(masks); sub++ {
		var class isa.PortMask
		for mi := range masks {
			if sub&(1<<mi) != 0 {
				class |= masks[mi]
			}
		}
		if seen[class] {
			continue
		}
		seen[class] = true
		uops := 0
		for mi, m := range masks {
			if m&^class == 0 {
				uops += counts[mi]
			}
		}
		width := class.Count()
		classes = append(classes, PortClass{
			Ports:    portsName(class),
			Uops:     uops,
			Width:    width,
			Pressure: float64(uops) / float64(width),
		})
	}
	sort.SliceStable(classes, func(i, j int) bool {
		if classes[i].Pressure != classes[j].Pressure {
			return classes[i].Pressure > classes[j].Pressure
		}
		return classes[i].Width < classes[j].Width
	})
	if len(classes) > 8 {
		classes = classes[:8]
	}
	rep.PortPressure = classes
	rep.ThroughputBound = classes[0].Pressure
	rep.FrontendBound = float64(rep.UnfusedUops) / float64(a.arch.IssueWidth)
}

// portsName renders a port mask as "P0+P1+P5".
func portsName(m isa.PortMask) string {
	out := ""
	for p := isa.Port(0); p < isa.NumPorts; p++ {
		if m.Has(p) {
			if out != "" {
				out += "+"
			}
			out += fmt.Sprintf("P%d", int(p))
		}
	}
	return out
}

// counterStep sums the constant increments the body applies to the
// launcher's iteration counter (%eax / RAX). Any unrecognised write to the
// counter makes the relation unknown (0).
func (a *analysis) counterStep() int64 {
	var step int64
	for i := a.start; i <= a.end; i++ {
		in := &a.prog.Insts[i]
		if a.dp.Info[i].DstReg != isa.RAX {
			continue
		}
		switch {
		case in.Op == isa.ADD && in.NOps == 2 && in.A.Kind == isa.ImmOperand:
			step += in.A.Imm
		case in.Op == isa.SUB && in.NOps == 2 && in.A.Kind == isa.ImmOperand:
			step -= in.A.Imm
		case in.Op == isa.INC:
			step++
		case in.Op == isa.DEC:
			step--
		default:
			return 0
		}
	}
	return step
}
