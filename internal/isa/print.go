package isa

import (
	"fmt"
	"strconv"
)

// Print renders a decoded program back to AT&T assembly text that
// internal/asm re-parses to an identical program — the inverse of the
// assembly front end, used for dumping kernels out of the launcher and for
// round-trip testing.
func (p *Program) Print() string {
	return string(p.AppendPrint(make([]byte, 0, 64+32*len(p.Insts))))
}

// AppendPrint appends the Print rendering of the program to dst and returns
// the extended slice. It is the allocation-free form of Print: the campaign
// engine streams the canonical rendering through its cache-key hash from a
// pooled buffer, so the bytes produced here are part of the on-disk cache
// contract and must never change for an unchanged program.
func (p *Program) AppendPrint(dst []byte) []byte {
	// Labels by target index; multiple labels per index are emitted in
	// sorted name order for determinism, indices outside [0, len(Insts)]
	// are dropped. The fixed-size backing array covers generated kernels
	// (one loop label) without allocating.
	var stack [4]Label
	labels := stack[:0]
	for _, l := range p.Labels {
		if l.Index < 0 || l.Index > len(p.Insts) {
			continue
		}
		labels = append(labels, l)
	}
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && (labels[j].Index < labels[j-1].Index ||
			(labels[j].Index == labels[j-1].Index && labels[j].Name < labels[j-1].Name)); j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	dst = append(dst, "    .text\n    .globl "...)
	dst = append(dst, p.Name...)
	dst = append(dst, '\n')
	dst = append(dst, p.Name...)
	dst = append(dst, ":\n"...)
	li := 0
	for i := range p.Insts {
		for li < len(labels) && labels[li].Index == i {
			dst = append(dst, labels[li].Name...)
			dst = append(dst, ":\n"...)
			li++
		}
		dst = append(dst, "    "...)
		dst = p.appendInst(dst, &p.Insts[i])
		dst = append(dst, '\n')
	}
	for ; li < len(labels); li++ {
		dst = append(dst, labels[li].Name...)
		dst = append(dst, ":\n"...)
	}
	return dst
}

// appendInst renders one of the program's instructions, spelling a label
// operand with the name of the program label it indexes.
func (p *Program) appendInst(dst []byte, in *Inst) []byte {
	if in.NOps == 1 && in.A.Kind == LabelOperand && in.A.Label >= 0 && int(in.A.Label) < len(p.Labels) {
		dst = append(dst, in.Op.String()...)
		dst = append(dst, ' ')
		return append(dst, p.Labels[in.A.Label].Name...)
	}
	return in.appendString(dst)
}

// appendString is Inst.String in append form; the two must render
// identically (String is defined in terms of the same operand renderings).
func (in *Inst) appendString(dst []byte) []byte {
	dst = append(dst, in.Op.String()...)
	for i := 0; i < in.NOps; i++ {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = in.Operand(i).appendString(dst)
	}
	return dst
}

// appendString is Operand.String in append form.
func (o Operand) appendString(dst []byte) []byte {
	switch o.Kind {
	case NoOperand:
		return dst
	case RegOperand:
		return o.Reg.appendString(dst)
	case ImmOperand:
		dst = append(dst, '$')
		return strconv.AppendInt(dst, o.Imm, 10)
	case MemOperand:
		return o.Mem.appendString(dst)
	case LabelOperand:
		return fmt.Appendf(dst, "label(%d)", o.Label)
	}
	return fmt.Appendf(dst, "operand(%d)", int(o.Kind))
}

// appendString is MemRef.String in append form.
func (m MemRef) appendString(dst []byte) []byte {
	if m.Disp != 0 {
		dst = strconv.AppendInt(dst, m.Disp, 10)
	}
	dst = append(dst, '(')
	if m.Base != NoReg {
		dst = m.Base.appendString(dst)
	}
	if m.Index != NoReg {
		dst = append(dst, ',')
		dst = m.Index.appendString(dst)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, m.Scale, 10)
	}
	return append(dst, ')')
}

// appendString is Reg.String in append form.
func (r Reg) appendString(dst []byte) []byte {
	switch {
	case r.IsGPR():
		dst = append(dst, '%')
		return append(dst, gprNames[r]...)
	case r.IsXMM():
		dst = append(dst, "%xmm"...)
		return strconv.AppendInt(dst, int64(r-XMM0), 10)
	case r == RIP:
		return append(dst, "%rip"...)
	case r == RFLAGS:
		return append(dst, "%rflags"...)
	case r == NoReg:
		return append(dst, "%none"...)
	}
	return fmt.Appendf(dst, "%%reg(%d)", int(r))
}
