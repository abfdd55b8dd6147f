package verify

import (
	"strings"

	"microtools/internal/asm"
	"microtools/internal/isa"
)

// Asm parses emitted assembly text and verifies every function it defines.
// Parse failures become diagnostics rather than errors: an undefined or
// unresolved branch label is a V006 loop-structure finding, anything else a
// V000 parse finding.
func Asm(src, name string, opt Options) Diagnostics {
	_, ds := AsmProgram(src, name, opt)
	return ds
}

// AsmProgram is Asm, additionally returning the decoded program (nil when
// parsing failed or the source defines several functions) so callers can
// reuse the decode work — the launcher accepts the same decoded form.
func AsmProgram(src, name string, opt Options) (*isa.Program, Diagnostics) {
	progs, err := asm.ParseString(src, name)
	if err != nil {
		rule := RuleParse
		msg := err.Error()
		if strings.Contains(msg, "undefined label") || strings.Contains(msg, "unresolved branch") ||
			strings.Contains(msg, "no ret") {
			rule = RuleLoop
		}
		if opt.suppressed(rule) {
			return nil, nil
		}
		return nil, Diagnostics{{Rule: rule, Severity: SeverityError, Kernel: name, Instr: -1, Message: msg}}
	}
	var ds Diagnostics
	for _, p := range progs {
		ds = append(ds, Program(p, p.Name, opt)...)
	}
	if len(progs) == 1 {
		return progs[0], ds
	}
	return nil, ds
}

// Program runs the asm-level rules over a decoded program: operand-form
// legality (V001), memory bases defined before use (V002), alignment of
// packed accesses and their strides (V004), loop structure — resolved
// branch targets, a flag-setting induction update inside every loop, and a
// RET terminator (V006) — plus, on structurally sound programs, the
// dataflow-backed rules: dead register writes (V009), redundant self moves
// (V010) and the optional loop-carried recurrence report (V011).
func Program(p *isa.Program, name string, opt Options) Diagnostics {
	if name == "" {
		name = p.Name
	}
	var ds Diagnostics
	add := collector(name, opt, &ds)
	if len(p.Insts) == 0 {
		add(RuleParse, SeverityError, -1, "program is empty")
		return ds
	}
	// Fixed-size register sets, not maps: this function runs once per
	// generated variant and per-variant map allocations dominate otherwise.
	var written [isa.NumRegs]bool
	written[isa.RSP], written[isa.RBP] = true, true
	for _, r := range isa.ArgRegs {
		written[r] = true
	}
	// alignedBases collects base registers of alignment-requiring accesses
	// (without index registers) for the stride check below; 0 = unused.
	var alignedBases [isa.NumRegs]int64
	hasRet := false
	var sigBuf [4]byte
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op == isa.RET {
			hasRet = true
		}
		sig, known := asmSignature(in, sigBuf[:])
		checkForm(in.Op, string(sig), known, i, add)
		for j := 0; j < in.NOps; j++ {
			o := in.Operand(j)
			if o.Kind != isa.MemOperand {
				continue
			}
			for _, r := range [2]isa.Reg{o.Mem.Base, o.Mem.Index} {
				if r != isa.NoReg && r.IsGPR() && !written[r] {
					add(RuleUseBeforeDef, SeverityError, i,
						"memory operand %s uses %s before any write", o.Mem, r)
					written[r] = true // report once
				}
			}
		}
		if in.Op.RequiresAlignment() {
			if mem, _, ok := in.MemOperand(); ok {
				w := int64(in.Op.MemWidth())
				if mod(mem.Disp, w) != 0 {
					add(RuleAlignment, SeverityError, i,
						"%s accesses displacement %d, not %d-byte aligned", in.Op, mem.Disp, w)
				}
				if mem.Index == isa.NoReg && mem.Base != isa.NoReg {
					alignedBases[mem.Base] = w
				}
			}
		}
		if in.Op.IsBranch() {
			checkBranch(p, i, add)
		}
		if in.NOps > 0 {
			if d := in.Dst(); d.Kind == isa.RegOperand && d.Reg < isa.NumRegs {
				written[d.Reg] = true
			}
		}
	}
	if !hasRet {
		add(RuleLoop, SeverityError, -1, "program has no ret")
	}
	// Stride alignment: an induction update on the base of an aligned
	// access must step by a multiple of the access width, or the second
	// iteration faults on real hardware.
	for i := range p.Insts {
		in := &p.Insts[i]
		if (in.Op != isa.ADD && in.Op != isa.SUB) || in.NOps != 2 ||
			in.A.Kind != isa.ImmOperand || in.B.Kind != isa.RegOperand {
			continue
		}
		if w := alignedBases[in.B.Reg]; w != 0 && mod(in.A.Imm, w) != 0 {
			add(RuleAlignment, SeverityError, i,
				"induction update %s $%d, %s misaligns the %d-byte aligned accesses through it",
				in.Op, in.A.Imm, in.B.Reg, w)
		}
	}
	// The dataflow-backed rules need a decodable program; a structurally
	// broken one is already explained by the findings above.
	if !ds.HasErrors() {
		dataflowRules(p, opt, add)
	}
	return ds
}

// checkBranch is rule V006 for one branch instruction: the target must be
// resolved and in range, and a conditional branch needs a flag producer —
// both immediately upstream (the flags it tests) and inside the loop body it
// closes (the induction update that eventually terminates the loop).
func checkBranch(p *isa.Program, i int, add addFunc) {
	in := &p.Insts[i]
	if in.Target < 0 || in.Target >= len(p.Insts) {
		add(RuleLoop, SeverityError, i, "%s has an unresolved or out-of-range target", in.Op)
		return
	}
	if !in.Op.IsCondBranch() {
		return
	}
	flagIdx := -1
	for j := i - 1; j >= 0; j-- {
		if p.Insts[j].Op.WritesFlags() {
			flagIdx = j
			break
		}
		if p.Insts[j].Op.IsBranch() {
			break
		}
	}
	if flagIdx < 0 {
		add(RuleLoop, SeverityError, i,
			"conditional %s has no preceding flag-setting instruction", in.Op)
	}
	if in.Target <= i {
		updated := false
		for j := in.Target; j <= i; j++ {
			if p.Insts[j].Op.WritesFlags() {
				updated = true
				break
			}
		}
		if !updated {
			add(RuleLoop, SeverityError, i,
				"loop over instructions %d..%d has no induction update (no flag-writing instruction)",
				in.Target, i)
		}
	}
}

// asmSignature writes a decoded instruction's form signature into buf and
// reports whether every operand class is known (an unknown one is '?').
// The caller's buffer keeps the per-instruction signature off the heap.
func asmSignature(in *isa.Inst, buf []byte) (sig []byte, known bool) {
	sig, known = buf[:0], true
	for j := 0; j < in.NOps; j++ {
		c := byte('?')
		switch o := in.Operand(j); o.Kind {
		case isa.ImmOperand:
			c = 'i'
		case isa.MemOperand:
			c = 'm'
		case isa.LabelOperand:
			c = 'l'
		case isa.RegOperand:
			switch {
			case o.Reg.IsXMM():
				c = 'x'
			case o.Reg.IsGPR():
				c = 'r'
			}
		}
		known = known && c != '?'
		sig = append(sig, c)
	}
	return sig, known
}
