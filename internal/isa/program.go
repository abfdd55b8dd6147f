package isa

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Inst is one decoded instruction. Operands are stored in AT&T order
// (sources first, destination last) in A, B, C; NOps gives how many are
// valid. For branches, Target holds the resolved index of the destination
// instruction within the program (-1 if unresolved).
type Inst struct {
	Op      Op
	A, B, C Operand
	NOps    int
	Target  int
}

// Operand returns the i-th operand.
func (in *Inst) Operand(i int) Operand {
	switch i {
	case 0:
		return in.A
	case 1:
		return in.B
	case 2:
		return in.C
	}
	return Operand{}
}

// Dst returns the destination operand (the last one), or a NoOperand if the
// instruction has none.
func (in *Inst) Dst() Operand {
	if in.NOps == 0 {
		return Operand{}
	}
	return in.Operand(in.NOps - 1)
}

// MemOperand returns the memory operand of the instruction and whether the
// memory access is a store (memory is the destination). The subset has at
// most one memory operand per instruction, as real x86 SSE does.
func (in *Inst) MemOperand() (mem MemRef, isStore, ok bool) {
	for i := 0; i < in.NOps; i++ {
		op := in.Operand(i)
		if op.Kind == MemOperand {
			if in.Op == LEA {
				// LEA only computes the address; no access.
				return MemRef{}, false, false
			}
			return op.Mem, i == in.NOps-1, true
		}
	}
	return MemRef{}, false, false
}

// IsLoad reports whether the instruction reads memory.
func (in *Inst) IsLoad() bool {
	_, st, ok := in.MemOperand()
	return ok && !st
}

// IsStore reports whether the instruction writes memory.
func (in *Inst) IsStore() bool {
	_, st, ok := in.MemOperand()
	return ok && st
}

func (in *Inst) String() string {
	var ops []string
	for i := 0; i < in.NOps; i++ {
		ops = append(ops, in.Operand(i).String())
	}
	if len(ops) == 0 {
		return in.Op.String()
	}
	return in.Op.String() + " " + strings.Join(ops, ", ")
}

// Label is one named position in a program: Index is the instruction the
// label precedes (len(Insts) for a label after the last instruction).
type Label struct {
	Name  string
	Index int
}

// Program is a decoded kernel: a named entry point plus a linear instruction
// stream with resolved branch targets. This is what MicroLauncher executes
// ("At execution time, the launcher compiles the kernel code ... loaded at
// run-time", §4.1 — here, compiled into this form by internal/asm).
type Program struct {
	Name  string
	Insts []Inst
	// Labels lists the program's labels in definition order; a branch's
	// label operand indexes it.
	Labels []Label

	// valid records a successful Validate, so Decoded validates a program
	// that Lower or the asm parser already checked only once.
	valid atomic.Bool
	// dcache memoizes the per-microarchitecture µop decode (see Decoded).
	// Lazily filled, safe for concurrent use; Clone starts empty.
	dcache memo[decodeKey, *DecodedProgram]
}

// LabelIndex returns the instruction index the label name precedes.
func (p *Program) LabelIndex(name string) (int, bool) {
	for _, l := range p.Labels {
		if l.Name == name {
			return l.Index, true
		}
	}
	return 0, false
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	return &Program{
		Name:   p.Name,
		Insts:  append([]Inst(nil), p.Insts...),
		Labels: append([]Label(nil), p.Labels...),
	}
}

// Resolve fills in branch Target indices from label operands. It returns an
// error for a branch without a single label operand, or one whose operand
// names no label of the program.
func (p *Program) Resolve() error {
	for i := range p.Insts {
		in := &p.Insts[i]
		in.Target = -1
		if !in.Op.IsBranch() {
			continue
		}
		if in.NOps != 1 || in.A.Kind != LabelOperand {
			return fmt.Errorf("isa: %s at %d: branch needs a single label operand", in.Op, i)
		}
		if in.A.Label < 0 || int(in.A.Label) >= len(p.Labels) {
			return fmt.Errorf("isa: %s at %d: undefined label #%d", in.Op, i, in.A.Label)
		}
		in.Target = p.Labels[in.A.Label].Index
	}
	return nil
}

// Validate checks structural invariants the rest of the system relies on:
// resolved branches, a RET-terminated stream, supported operand shapes, and
// no functional loads into general-purpose registers (the timing model
// tracks integer state in registers only; MicroCreator never emits such
// loads and the paper's kernels keep loop state in registers). A program that
// passes is marked valid, and Decoded does not check it again.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	sawRet := false
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op == RET {
			sawRet = true
		}
		if in.Op.IsBranch() && in.Target < 0 {
			return fmt.Errorf("isa: program %q: unresolved branch at %d (%s)", p.Name, i, in)
		}
		if in.Op.IsBranch() && (in.Target < 0 || in.Target >= len(p.Insts)) {
			return fmt.Errorf("isa: program %q: branch target out of range at %d", p.Name, i)
		}
		if in.Op == MOV && in.NOps == 2 && in.A.IsMem() && in.B.IsReg() && in.B.Reg.IsGPR() {
			return fmt.Errorf("isa: program %q at %d: GPR load from memory is outside the subset (%s)", p.Name, i, in)
		}
		mem, _, hasMem := in.MemOperand()
		if hasMem {
			if mem.Base == NoReg && mem.Index == NoReg {
				return fmt.Errorf("isa: program %q at %d: absolute memory operand unsupported (%s)", p.Name, i, in)
			}
			if mem.Index != NoReg {
				switch mem.Scale {
				case 1, 2, 4, 8:
				default:
					return fmt.Errorf("isa: program %q at %d: bad scale %d", p.Name, i, mem.Scale)
				}
			}
		}
	}
	if !sawRet {
		return fmt.Errorf("isa: program %q has no ret", p.Name)
	}
	p.valid.Store(true)
	return nil
}

// Stats summarizes the static instruction mix of a program; used by tests
// and by the launcher's verbose mode.
type Stats struct {
	Total, Loads, Stores, SSEArith, IntALU, Branches int
}

// StaticStats counts the static instruction mix.
func (p *Program) StaticStats() Stats {
	var s Stats
	for i := range p.Insts {
		in := &p.Insts[i]
		s.Total++
		switch {
		case in.IsLoad():
			s.Loads++
		case in.IsStore():
			s.Stores++
		}
		switch {
		case in.Op.IsBranch():
			s.Branches++
		case in.Op.IsSSE() && !in.Op.IsMove():
			s.SSEArith++
		case !in.Op.IsSSE() && in.Op != RET && in.Op != NOP:
			s.IntALU++
		}
	}
	return s
}
