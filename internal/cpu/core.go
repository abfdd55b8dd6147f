// Package cpu is the core timing model of the MicroTools reproduction: a
// trace-driven out-of-order pipeline that executes decoded isa.Programs
// functionally (integer state, control flow, address generation) while
// scheduling their µops against frontend width, ROB capacity, execution
// ports, load/store buffers and the memory hierarchy.
//
// The scheduling discipline is greedy per dynamic µop (the approach of
// steady-state pipeline analyzers): each µop dispatches at the earliest
// cycle permitted by the frontend, ROB space, source-operand readiness and
// port availability. This reproduces the phenomena the paper's experiments
// probe — port pressure (one load port on Nehalem, two on Sandy Bridge),
// dependence chains (XMM register rotation), loop-overhead amortization
// under unrolling, and memory-bound behaviour via internal/memsim.
package cpu

import (
	"fmt"
	"math/bits"

	"microtools/internal/isa"
)

// MemSystem is the memory hierarchy interface the core issues accesses to
// (implemented by memsim.System).
type MemSystem interface {
	Load(core int, addr uint64, size int, issue int64) int64
	Store(core int, addr uint64, size int, issue int64) int64
}

// Mix counts dynamic instructions by class (the input to the §7 power
// model and to verbose reporting).
type Mix struct {
	Loads, Stores, SSEArith, IntALU, Branches int64
}

// Add accumulates another mix.
func (m *Mix) Add(o Mix) {
	m.Loads += o.Loads
	m.Stores += o.Stores
	m.SSEArith += o.SSEArith
	m.IntALU += o.IntALU
	m.Branches += o.Branches
}

// Result summarizes one finished kernel invocation.
type Result struct {
	// Cycles is the total core-cycle cost of the invocation.
	Cycles int64
	// Insts is the number of dynamic instructions executed.
	Insts int64
	// Mix is the dynamic instruction class breakdown.
	Mix Mix
	// Mispredicts counts conditional branches resolved against the
	// predictor's direction.
	Mispredicts int64
	// FrontendStalls accumulates cycles the frontend spent refilling:
	// ROB-full backpressure, mispredict redirects and taken-branch fetch
	// bubbles (the simulated-PMU frontend-stall counter).
	FrontendStalls int64
	// IRQStalls accumulates cycles stolen by injected interrupts (§4.7
	// noise); zero on quiet runs.
	IRQStalls int64
	// Truncated reports that execution stopped at the instruction budget
	// rather than at RET.
	Truncated bool
}

// Add folds another invocation's counters into r: every count is summed
// and Truncated is set when either side stopped at its budget. It is the
// one aggregation of the pipeline counters, used for a parallel region's
// team and for a launch's measured repetitions alike.
func (r *Result) Add(o Result) {
	r.Cycles += o.Cycles
	r.Insts += o.Insts
	r.Mix.Add(o.Mix)
	r.Mispredicts += o.Mispredicts
	r.FrontendStalls += o.FrontendStalls
	r.IRQStalls += o.IRQStalls
	r.Truncated = r.Truncated || o.Truncated
}

// Core is one simulated out-of-order core. It is resumable: Step advances
// until a cycle limit so a multi-core machine can interleave cores in
// bounded quanta.
type Core struct {
	id   int
	arch *isa.Arch
	mem  MemSystem

	prog    *isa.Program
	decoded *isa.DecodedProgram
	regs    isa.RegFile

	pc   int
	done bool

	// Frontend state.
	frontCycle int64
	frontSlots int

	// Dataflow readiness.
	regReady  [isa.NumRegs]int64
	flagReady int64

	// Backend resources.
	portFree [isa.NumPorts]int64
	rob      []int64
	robHead  int
	robCount int
	loadBuf  []int64
	loadIdx  int
	storeBuf []int64
	storeIdx int

	// Branch predictor: 2-bit saturating counter per static branch
	// (taken if >= 2), so a loop's exit costs one mispredict without a
	// second one at re-entry.
	predCtr []uint8
	// slotsSinceTaken counts issue slots since the last taken branch;
	// loops within Arch.LSDSize stream without the fetch bubble.
	slotsSinceTaken int

	maxCompletion int64
	dynInsts      int64
	mix           Mix
	maxInsts      int64
	truncated     bool

	// Simulated-PMU pipeline counters (exported through Result).
	mispredicts    int64
	frontendStalls int64
	irqStalls      int64

	startCycle int64
}

// NewCore creates a core bound to a memory system.
func NewCore(id int, arch *isa.Arch, mem MemSystem) *Core {
	return &Core{id: id, arch: arch, mem: mem}
}

// ID returns the core's index in the machine.
func (c *Core) ID() int { return c.id }

// Reset loads a program and initial register state, starting the pipeline
// at startCycle. maxInsts bounds dynamic instructions (0 = unlimited).
//
// Validation and µop decode go through the program's decode cache
// (isa.Program.Decoded), so repeat launches of the same kernel — the
// launcher's repetition loops, a campaign's retries — pay them exactly once.
// Reset itself is allocation-free once the core's buffers fit the program.
func (c *Core) Reset(prog *isa.Program, regs *isa.RegFile, startCycle int64, maxInsts int64) error {
	dp, err := prog.Decoded(c.arch)
	if err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	c.prog = prog
	c.decoded = dp
	c.regs = *regs
	c.pc = 0
	c.done = false
	c.frontCycle = startCycle
	c.frontSlots = 0
	for i := range c.regReady {
		c.regReady[i] = startCycle
	}
	c.flagReady = startCycle
	for i := range c.portFree {
		c.portFree[i] = startCycle
	}
	if c.rob == nil || len(c.rob) != c.arch.ROBSize {
		c.rob = make([]int64, c.arch.ROBSize)
	}
	c.robHead, c.robCount = 0, 0
	if c.loadBuf == nil || len(c.loadBuf) != c.arch.LoadBuffers {
		c.loadBuf = make([]int64, c.arch.LoadBuffers)
	}
	if c.storeBuf == nil || len(c.storeBuf) != c.arch.StoreBuffers {
		c.storeBuf = make([]int64, c.arch.StoreBuffers)
	}
	for i := range c.loadBuf {
		c.loadBuf[i] = startCycle
	}
	for i := range c.storeBuf {
		c.storeBuf[i] = startCycle
	}
	c.loadIdx, c.storeIdx = 0, 0
	if cap(c.predCtr) < len(prog.Insts) {
		c.predCtr = make([]uint8, len(prog.Insts))
	}
	c.predCtr = c.predCtr[:len(prog.Insts)]
	for i := range c.predCtr {
		c.predCtr[i] = dp.Info[i].PredInit
	}
	c.slotsSinceTaken = 0
	c.maxCompletion = startCycle
	c.dynInsts = 0
	c.mix = Mix{}
	c.maxInsts = maxInsts
	c.truncated = false
	c.mispredicts = 0
	c.frontendStalls = 0
	c.irqStalls = 0
	c.startCycle = startCycle
	return nil
}

// Done reports whether the program has finished (RET or budget).
func (c *Core) Done() bool { return c.done }

// Cycle returns the pipeline frontier (the frontend's current cycle).
func (c *Core) Cycle() int64 { return c.frontCycle }

// Reg returns an architectural register value (e.g. %eax after the run, per
// the §4.4 launcher protocol).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs.Get(r) }

// Result returns the invocation summary; valid once Done.
func (c *Core) Result() Result {
	return Result{
		Cycles:         c.maxCompletion - c.startCycle,
		Insts:          c.dynInsts,
		Mix:            c.mix,
		Mispredicts:    c.mispredicts,
		FrontendStalls: c.frontendStalls,
		IRQStalls:      c.irqStalls,
		Truncated:      c.truncated,
	}
}

// Stall pushes the frontend forward (interrupt / noise injection).
func (c *Core) Stall(cycles int64) {
	if cycles > 0 {
		c.frontCycle += cycles
		c.frontSlots = 0
		c.irqStalls += cycles
	}
}

// Step advances execution until the pipeline frontier reaches limit or the
// program finishes. Run a whole program with Step(math.MaxInt64).
func (c *Core) Step(limit int64) (bool, error) {
	if c.prog == nil {
		return false, fmt.Errorf("cpu: core %d has no program", c.id)
	}
	for !c.done && c.frontCycle < limit {
		if err := c.stepInst(); err != nil {
			return false, err
		}
	}
	return c.done, nil
}

// issueSlot reserves one frontend issue slot and returns its cycle.
func (c *Core) issueSlot(fused bool) int64 {
	if fused {
		return c.frontCycle
	}
	if c.frontSlots >= c.arch.IssueWidth {
		c.frontCycle++
		c.frontSlots = 0
	}
	c.frontSlots++
	c.slotsSinceTaken++
	return c.frontCycle
}

// robSlot reserves ROB space, returning the earliest dispatch cycle.
func (c *Core) robSlot(dispatch int64, completion int64) int64 {
	if c.robCount == len(c.rob) {
		// Wait for the oldest entry to retire.
		oldest := c.rob[c.robHead]
		if oldest > dispatch {
			dispatch = oldest
		}
		c.robHead = wrapInc(c.robHead, len(c.rob))
		c.robCount--
	}
	// robHead < len and robCount < len here, so one subtraction wraps.
	tail := c.robHead + c.robCount
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	c.rob[tail] = completion
	c.robCount++
	return dispatch
}

// wrapInc advances ring index i (< n) by one, wrapping with a compare
// rather than a divide.
func wrapInc(i, n int) int {
	i++
	if i == n {
		return 0
	}
	return i
}

// portPreference orders port candidates for multi-port µops: generic ALU
// traffic prefers P5 and P0 before P1 (the FP-add home port), so
// accumulation chains are not delayed by integer loop overhead — the
// behaviour an age-ordered hardware scheduler converges to.
var portPreference = [...]isa.Port{isa.P5, isa.P0, isa.P1, isa.P2, isa.P3, isa.P4}

// portLists[m] holds mask m's ports in portPreference order (bits above
// NumPorts ignored), built once so a multi-port pick walks only its own
// ports.
var portLists = func() (lists [1 << isa.NumPorts][]isa.Port) {
	for m := range lists {
		for _, p := range portPreference {
			if isa.PortMask(m).Has(p) {
				lists[m] = append(lists[m], p)
			}
		}
	}
	return lists
}()

// pickPort chooses the earliest-free allowed port (preference order breaks
// ties), reserving it from start. A single-port mask (loads, store address
// and data, branches) has one candidate and skips the port list.
func (c *Core) pickPort(mask isa.PortMask, earliest int64) (int64, error) {
	var best isa.Port
	var bestFree int64
	if p := bits.TrailingZeros16(uint16(mask)); mask&(mask-1) == 0 && p < int(isa.NumPorts) {
		best = isa.Port(p)
		bestFree = c.portFree[p]
	} else {
		ports := portLists[mask&(1<<isa.NumPorts-1)]
		if len(ports) == 0 {
			return 0, fmt.Errorf("cpu: µop with empty port mask")
		}
		best, bestFree = ports[0], c.portFree[ports[0]]
		for _, p := range ports[1:] {
			if c.portFree[p] < bestFree {
				best, bestFree = p, c.portFree[p]
			}
		}
	}
	start := earliest
	if bestFree > start {
		start = bestFree
	}
	c.portFree[best] = start + 1
	return start, nil
}

func (c *Core) note(completion int64) {
	if completion > c.maxCompletion {
		c.maxCompletion = completion
	}
}

// addrReady returns the cycle the address-generation sources are available.
func (c *Core) addrReady(info *isa.InstInfo) int64 {
	ready := int64(0)
	for _, r := range info.AddrRegs {
		if r != isa.NoReg && c.regReady[r] > ready {
			ready = c.regReady[r]
		}
	}
	return ready
}

// srcReady returns the cycle all source operands are available: address
// registers, data-source registers and (for flag readers) the flags.
func (c *Core) srcReady(info *isa.InstInfo) int64 {
	ready := c.addrReady(info)
	for _, r := range info.SrcRegs[:info.NSrc] {
		if c.regReady[r] > ready {
			ready = c.regReady[r]
		}
	}
	if info.ReadsFlags && c.flagReady > ready {
		ready = c.flagReady
	}
	return ready
}

// stepInst schedules and functionally executes one dynamic instruction. The
// static facts about the instruction (memory operand, sources, class) come
// precomputed from the decode cache; this loop only does per-dynamic work.
func (c *Core) stepInst() error {
	inst := &c.prog.Insts[c.pc]
	info := &c.decoded.Info[c.pc]
	uops := c.decoded.UopsOf(info)

	var addr uint64
	var width int
	if info.HasMem {
		addr = info.Mem.EffectiveAddress(&c.regs)
		width = info.MemWidth
	}

	var loadReady int64 // when loaded data is available
	var lastCompletion int64

	for ui := range uops {
		u := &uops[ui]
		slot := c.issueSlot(u.Fused)
		var ready int64
		switch u.Role {
		case isa.RoleLoad, isa.RoleStoreAddr:
			ready = c.addrReady(info)
		case isa.RoleStoreData:
			// Needs the stored register value.
			if r := info.StoreDataReg; r != isa.NoReg && c.regReady[r] > ready {
				ready = c.regReady[r]
			}
		case isa.RoleCompute:
			ready = c.srcReady(info)
			if u.Fused && loadReady > ready {
				// Micro-fused load+op: compute waits for the load.
				ready = loadReady
			}
		case isa.RoleBranch:
			ready = c.srcReady(info)
		}
		if slot > ready {
			ready = slot
		}
		start, err := c.pickPort(u.Ports, ready)
		if err != nil {
			return err
		}
		completion := start + int64(u.Lat)
		switch u.Role {
		case isa.RoleLoad:
			// Load buffer occupancy.
			if lb := c.loadBuf[c.loadIdx]; lb > start {
				start = lb
			}
			completion = c.mem.Load(c.id, addr, width, start)
			c.loadBuf[c.loadIdx] = completion
			c.loadIdx = wrapInc(c.loadIdx, len(c.loadBuf))
			loadReady = completion
		case isa.RoleStoreData:
			// Store buffer: the store retires into L1 asynchronously;
			// occupancy throttles store streams at memory bandwidth.
			if sb := c.storeBuf[c.storeIdx]; sb > start {
				start = sb
				completion = start + int64(u.Lat)
			}
			drain := c.mem.Store(c.id, addr, width, start)
			c.storeBuf[c.storeIdx] = drain
			c.storeIdx = wrapInc(c.storeIdx, len(c.storeBuf))
		}
		dispatch := c.robSlot(slot, completion)
		if dispatch > c.frontCycle {
			// ROB full: the frontend stalls.
			c.frontendStalls += dispatch - c.frontCycle
			c.frontCycle = dispatch
			c.frontSlots = 0
		}
		c.note(completion)
		if completion > lastCompletion {
			lastCompletion = completion
		}
	}

	// Writeback: destination readiness.
	if info.DstReg != isa.NoReg {
		when := lastCompletion
		if info.Load && loadReady > 0 && len(uops) == 1 {
			when = loadReady
		}
		c.regReady[info.DstReg] = when
	}
	if info.WritesFlags {
		c.flagReady = lastCompletion
	}

	// Functional execution and branch resolution.
	next, taken, err := isa.Exec(inst, c.pc, &c.regs)
	if err != nil {
		return err
	}
	c.dynInsts++
	switch {
	case info.Load:
		c.mix.Loads++
	case info.Store:
		c.mix.Stores++
	}
	switch info.Class {
	case isa.ClassBranch:
		c.mix.Branches++
	case isa.ClassSSE:
		c.mix.SSEArith++
	case isa.ClassALU:
		c.mix.IntALU++
	}
	if info.CondBranch {
		predicted := c.predCtr[c.pc] >= 2
		if taken != predicted {
			// Mispredict: refill after resolution.
			c.mispredicts++
			resolve := lastCompletion + int64(c.arch.BranchMissPenalty)
			if resolve > c.frontCycle {
				c.frontendStalls += resolve - c.frontCycle
				c.frontCycle = resolve
				c.frontSlots = 0
			}
			c.note(resolve)
		}
		if taken {
			if c.predCtr[c.pc] < 3 {
				c.predCtr[c.pc]++
			}
		} else if c.predCtr[c.pc] > 0 {
			c.predCtr[c.pc]--
		}
	}
	if taken && info.Branch {
		// Loops small enough for the loop-stream detector replay
		// seamlessly: the frontend keeps issuing across the back edge.
		// Larger bodies end the issue group and pay the fetch redirect.
		if c.slotsSinceTaken > c.arch.LSDSize {
			c.frontCycle += 1 + int64(c.arch.TakenBranchBubble)
			c.frontendStalls += 1 + int64(c.arch.TakenBranchBubble)
			c.frontSlots = 0
		}
		c.slotsSinceTaken = 0
	}
	if next < 0 {
		c.done = true
		return nil
	}
	c.pc = next
	if c.maxInsts > 0 && c.dynInsts >= c.maxInsts {
		c.done = true
		c.truncated = true
	}
	return nil
}
