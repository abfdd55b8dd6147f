package isa

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DecodedProgram is the immutable product of validating and µop-decoding a
// Program once for one microarchitectural decode signature. The simulator's
// hot path (cpu.Core.Reset, once per launcher repetition) consumes it
// instead of re-validating and re-decoding the program, which makes repeat
// launches of the same kernel allocation-free.
//
// Its tables take two allocations: Info, and one flat µop array, exactly
// as long as the µops need, that each instruction's InstInfo spans
// (UopOff, NUops) and Uops slices.
//
// Instances are shared across cores and goroutines: every field must be
// treated as read-only.
type DecodedProgram struct {
	// Prog is the program this decode was produced from.
	Prog *Program
	// Info holds each instruction's static scheduling facts, its µop span
	// and its initial branch prediction, indexed like Prog.Insts.
	Info []InstInfo
	// uops is every instruction's µop decomposition, in program order.
	uops []Uop

	// derived memoizes analysis results computed from this decode (see
	// Derived); like the decode cache it is first-wins.
	derived memo[uint64, any]
}

// Uops returns instruction i's µop decomposition. The slice aliases the
// decode's flat array and must not be modified.
func (d *DecodedProgram) Uops(i int) []Uop { return d.UopsOf(&d.Info[i]) }

// UopsOf is Uops for a caller that already holds the instruction's
// InstInfo (an element of d.Info).
func (d *DecodedProgram) UopsOf(info *InstInfo) []Uop {
	end := info.UopOff + uint32(info.NUops)
	return d.uops[info.UopOff:end:end]
}

// memoCap bounds both memos: a program's decodes and a decode's derived
// results. Real sweeps touch one or two microarchitectures and derive a
// scan plus one bounds result per decode (the issue width rarely varies
// for one decode signature); the bound only guards against a pathological
// caller feeding an endless stream of distinct keys.
const memoCap = 4

// memoList is one published state of a memo: its first n entries, oldest
// first. It is immutable once published.
type memoList[K comparable, V any] struct {
	n    int
	keys [memoCap]K
	vals [memoCap]V
}

// memo is a small copy-on-write map, read lock-free on the hot path, with
// writers serialized by mu; each write publishes one new list. The first
// list is the memo's own first field, written once before it is published,
// so a memo that only ever holds one entry (nearly every program and
// decode) allocates nothing. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	list  atomic.Pointer[memoList[K, V]]
	first memoList[K, V]
}

func (m *memo[K, V]) get(k K) (v V, ok bool) {
	if l := m.list.Load(); l != nil {
		for i := 0; i < l.n; i++ {
			if l.keys[i] == k {
				return l.vals[i], true
			}
		}
	}
	return v, false
}

// put publishes v under k and returns the canonical value: if another
// goroutine published k first, the first value wins so every caller shares
// it. A full memo evicts its oldest entry.
func (m *memo[K, V]) put(k K, v V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := &m.first
	if old := m.list.Load(); old != nil {
		next = new(memoList[K, V])
		for i := 0; i < old.n; i++ {
			if old.keys[i] == k {
				return old.vals[i]
			}
		}
		*next = *old
	}
	if next.n == memoCap {
		copy(next.keys[:], next.keys[1:])
		copy(next.vals[:], next.vals[1:])
		next.n--
	}
	next.keys[next.n], next.vals[next.n] = k, v
	next.n++
	m.list.Store(next)
	return v
}

// Derived returns the value memoized under key, calling compute and
// publishing its result on the first request. If two goroutines race on the
// same key the first published value wins and every caller shares it, so
// compute must be pure and its result treated as immutable. Keys are
// namespaced by consumer: the high 32 bits identify the computing result,
// the low 32 its parameter (internal/dataflow keys its scan by nothing and
// its bounds by issue width — the one scheduling parameter outside the
// decode signature).
func (d *DecodedProgram) Derived(key uint64, compute func() any) any {
	if v, ok := d.derived.get(key); ok {
		return v
	}
	return d.derived.put(key, compute())
}

// InstClass buckets an instruction for the dynamic-mix counters.
type InstClass uint8

const (
	// ClassOther covers RET, NOP and SSE moves — instructions outside the
	// mix counters.
	ClassOther InstClass = iota
	// ClassBranch is any branch.
	ClassBranch
	// ClassSSE is SSE arithmetic (not moves).
	ClassSSE
	// ClassALU is non-SSE integer work.
	ClassALU
)

// InstInfo caches the static per-instruction facts the core's scheduler
// needs every dynamic execution: memory-operand shape, source and
// destination registers, flag traffic and classification. It answers, once
// per decode, the questions stepInst used to re-derive from the Inst on
// every dynamic instruction.
type InstInfo struct {
	// Mem is the memory operand; valid only when HasMem.
	Mem MemRef
	// AddrRegs are the address-generation sources (base, index); NoReg
	// entries are padding.
	AddrRegs [2]Reg
	// SrcRegs[:NSrc] are the non-address register sources (including a
	// read-modify destination, excluding a pure move's destination).
	SrcRegs [3]Reg
	// NUops is how many µops the instruction decodes to (see
	// DecodedProgram.Uops).
	NUops uint8
	// PredInit is the initial 2-bit branch predictor counter (backward
	// branches start predicted-taken, every other instruction
	// predicted-not-taken); cores copy it into their private predictor
	// state on Reset.
	PredInit uint8
	NSrc     int
	// DstReg is the register destination, or NoReg.
	DstReg Reg
	// StoreDataReg is the register whose value a store writes, or NoReg.
	StoreDataReg Reg
	// UopOff is where the instruction's µops start in the decode's flat
	// µop array. NUops, PredInit and UopOff fill alignment padding, so
	// InstInfo is 64 bytes.
	UopOff uint32
	// MemWidth is the access width in bytes; valid only when HasMem.
	MemWidth int
	HasMem   bool
	// Load/Store classify the memory access (at most one is set).
	Load  bool
	Store bool

	ReadsFlags  bool
	WritesFlags bool
	Branch      bool
	CondBranch  bool
	Class       InstClass
}

// infoOf derives the static scheduling facts of one instruction.
func infoOf(in *Inst) InstInfo {
	info := InstInfo{
		AddrRegs:     [2]Reg{NoReg, NoReg},
		DstReg:       NoReg,
		StoreDataReg: NoReg,
		ReadsFlags:   in.Op.ReadsFlags(),
		WritesFlags:  in.Op.WritesFlags(),
		Branch:       in.Op.IsBranch(),
		CondBranch:   in.Op.IsCondBranch(),
	}
	if mem, st, ok := in.MemOperand(); ok {
		info.Mem = mem
		info.HasMem = true
		info.Store = st
		info.Load = !st
		info.MemWidth = in.Op.MemWidth()
		info.AddrRegs[0] = mem.Base
		info.AddrRegs[1] = mem.Index
	}
	for i := 0; i < in.NOps; i++ {
		o := in.Operand(i)
		if o.Kind != RegOperand {
			continue
		}
		// The destination register of a pure move is write-only; for
		// read-modify ops (add, mulsd, ...) it is also a source.
		if i == in.NOps-1 && in.Op.IsMove() {
			continue
		}
		info.SrcRegs[info.NSrc] = o.Reg
		info.NSrc++
	}
	if in.NOps > 0 {
		if d := in.Dst(); d.Kind == RegOperand {
			info.DstReg = d.Reg
		}
	}
	if in.A.Kind == RegOperand {
		info.StoreDataReg = in.A.Reg
	}
	switch {
	case info.Branch:
		info.Class = ClassBranch
	case in.Op.IsSSE() && !in.Op.IsMove():
		info.Class = ClassSSE
	case !in.Op.IsSSE() && in.Op != RET && in.Op != NOP:
		info.Class = ClassALU
	}
	return info
}

// decodeKey is the value identity of an Arch's decode behaviour: two Arch
// instances with equal keys decode every instruction identically, so their
// DecodedPrograms are interchangeable. Keying by value rather than by *Arch
// lets fresh machine.ByName descriptors (a new Arch per launch) share one
// cached decode per program — the campaign retry path relies on this.
type decodeKey struct {
	twoLoadPorts bool
	fpAddLat     int
	fpMulLatSS   int
	fpMulLatSD   int
	iMulLat      int
}

func (a *Arch) decodeKey() decodeKey {
	return decodeKey{
		twoLoadPorts: a.TwoLoadPorts,
		fpAddLat:     a.FPAddLat,
		fpMulLatSS:   a.FPMulLatSS,
		fpMulLatSD:   a.FPMulLatSD,
		iMulLat:      a.IMulLat,
	}
}

// Decoded returns the program's µop decode for arch, decoding it exactly
// once per decode signature and caching the result on the program. A
// program is validated first unless Validate already passed on it (Lower
// and the asm parser validate every program they build). It is safe for
// concurrent use. The program must not be mutated after it is validated or
// decoded; MicroCreator and the asm parser finalize programs (Resolve)
// before they reach the simulator, and Clone returns a program with an
// empty cache.
func (p *Program) Decoded(a *Arch) (*DecodedProgram, error) {
	k := a.decodeKey()
	if dp, ok := p.dcache.get(k); ok {
		return dp, nil
	}
	if !p.valid.Load() {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	// One pass fills both tables. The flat array is sized by Decode's own
	// µop count rule, so it is exactly full and never regrows.
	n := 0
	for i := range p.Insts {
		n += uopCount(&p.Insts[i])
	}
	dp := &DecodedProgram{
		Prog: p,
		Info: make([]InstInfo, len(p.Insts)),
		uops: make([]Uop, 0, n),
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		off := len(dp.uops)
		var err error
		dp.uops, err = a.Decode(in, dp.uops)
		if err != nil {
			return nil, fmt.Errorf("isa: decode %s at %d: %w", in.Op, i, err)
		}
		info := &dp.Info[i]
		*info = infoOf(in)
		info.UopOff, info.NUops = uint32(off), uint8(len(dp.uops)-off)
		// Static prediction: backward taken (loops), forward not-taken.
		info.PredInit = 1
		if info.Branch && in.Target >= 0 && in.Target <= i {
			info.PredInit = 2
		}
	}
	return p.dcache.put(k, dp), nil
}
