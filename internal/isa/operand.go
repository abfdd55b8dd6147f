package isa

import (
	"fmt"
	"strings"
)

// OperandKind tags the variant held by an Operand.
type OperandKind uint8

const (
	NoOperand OperandKind = iota
	RegOperand
	ImmOperand
	MemOperand
	LabelOperand
)

// MemRef is an x86 memory reference disp(base, index, scale).
type MemRef struct {
	Base  Reg
	Index Reg
	Scale int64 // 1, 2, 4 or 8; 0 means no index
	Disp  int64
}

// EffectiveAddress computes the address of the reference given a register
// file view.
func (m MemRef) EffectiveAddress(regs *RegFile) uint64 {
	addr := uint64(int64(0))
	if m.Base != NoReg {
		addr = regs.Get(m.Base)
	}
	if m.Index != NoReg && m.Scale != 0 {
		addr += regs.Get(m.Index) * uint64(m.Scale)
	}
	return addr + uint64(m.Disp)
}

func (m MemRef) String() string {
	var b strings.Builder
	if m.Disp != 0 {
		fmt.Fprintf(&b, "%d", m.Disp)
	}
	b.WriteByte('(')
	if m.Base != NoReg {
		b.WriteString(m.Base.String())
	}
	if m.Index != NoReg {
		fmt.Fprintf(&b, ",%s,%d", m.Index, m.Scale)
	}
	b.WriteByte(')')
	return b.String()
}

// Operand is a tagged union of the operand forms in the subset. It holds no
// pointer, so an instruction array is never scanned by the garbage
// collector.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	// Label is a LabelOperand's index into its program's Labels: the label
	// the branch names. The instruction it resolves to is Inst.Target.
	Label int32
	Imm   int64
	Mem   MemRef
}

// NewReg returns a register operand.
func NewReg(r Reg) Operand { return Operand{Kind: RegOperand, Reg: r} }

// NewImm returns an immediate operand.
func NewImm(v int64) Operand { return Operand{Kind: ImmOperand, Imm: v} }

// NewMem returns a memory operand.
func NewMem(m MemRef) Operand { return Operand{Kind: MemOperand, Mem: m} }

// NewLabel returns a label operand naming the program's Labels[i] (a branch
// target).
func NewLabel(i int) Operand { return Operand{Kind: LabelOperand, Label: int32(i)} }

// IsMem reports whether the operand is a memory reference.
func (o Operand) IsMem() bool { return o.Kind == MemOperand }

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return o.Kind == RegOperand }

func (o Operand) String() string {
	switch o.Kind {
	case NoOperand:
		return ""
	case RegOperand:
		return o.Reg.String()
	case ImmOperand:
		return fmt.Sprintf("$%d", o.Imm)
	case MemOperand:
		return o.Mem.String()
	case LabelOperand:
		return fmt.Sprintf("label(%d)", o.Label)
	}
	return fmt.Sprintf("operand(%d)", int(o.Kind))
}

// RegFile holds the 64-bit architectural register values used for functional
// execution (control flow and address generation). XMM registers carry no
// values; only integer state affects addresses and branches.
type RegFile struct {
	vals [NumRegs]uint64
	// Flags state from the last flag-writing instruction, kept as the
	// signed comparison residue dst-src (for CMP/SUB) or the plain result
	// (ADD/INC/DEC/logic ops): enough to evaluate the conditional jumps in
	// the subset.
	flagResult int64
	flagValid  bool
}

// Get returns the value of r (0 for NoReg).
func (rf *RegFile) Get(r Reg) uint64 {
	if r >= NumRegs {
		return 0
	}
	return rf.vals[r]
}

// Set assigns the value of r.
func (rf *RegFile) Set(r Reg, v uint64) {
	if r < NumRegs {
		rf.vals[r] = v
	}
}

// SetFlags records the signed residue used to evaluate conditional branches.
func (rf *RegFile) SetFlags(result int64) {
	rf.flagResult = result
	rf.flagValid = true
}

// CondTaken evaluates whether the conditional branch op would be taken given
// the current flags.
func (rf *RegFile) CondTaken(op Op) (bool, error) {
	if !rf.flagValid {
		return false, fmt.Errorf("isa: conditional branch %s with no prior flag-setting instruction", op)
	}
	switch op {
	case JE:
		return rf.flagResult == 0, nil
	case JNE:
		return rf.flagResult != 0, nil
	case JL:
		return rf.flagResult < 0, nil
	case JLE:
		return rf.flagResult <= 0, nil
	case JG:
		return rf.flagResult > 0, nil
	case JGE:
		return rf.flagResult >= 0, nil
	}
	return false, fmt.Errorf("isa: %s is not a conditional branch", op)
}
