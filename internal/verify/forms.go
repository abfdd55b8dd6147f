package verify

import (
	"strings"

	"microtools/internal/isa"
)

// Operand classes, one byte per operand in AT&T order:
//
//	i  immediate
//	r  general-purpose register
//	x  XMM register
//	m  memory reference
//	l  label (branch target, asm level only)
//
// A signature string concatenates the classes, so "mx" is load-into-XMM and
// "ir" is immediate-into-GPR.

// opForms returns the legal operand signatures for op, derived from the
// executable subset in internal/isa (exec.go evaluates exactly these forms;
// isa.Program.Validate rejects some of the rest only at launch time). A nil
// return means the opcode is unknown to the table. The check runs once per
// instruction of every generated variant, so it reads a table built once.
func opForms(op isa.Op) []string { return opFormsTable[op] }

// opFormsTable holds computeOpForms for every Op value; it is read-only
// after init, so concurrent verifiers share it without a lock.
var opFormsTable = func() (t [256][]string) {
	for i := range t {
		t[i] = computeOpForms(isa.Op(i))
	}
	return t
}()

func computeOpForms(op isa.Op) []string {
	switch {
	case op == isa.XORPS:
		return []string{"xx", "mx"}
	case op.IsSSE() && op.IsMove():
		return []string{"mx", "xm", "xx"}
	case op.IsSSE():
		// SSE arithmetic reads memory or a register, accumulates into XMM.
		return []string{"mx", "xx"}
	case op.IsBranch():
		return []string{"l"}
	}
	switch op {
	case isa.MOV:
		// mem->GPR is deliberately absent: the timing model tracks integer
		// state in registers only (see isa.Program.Validate).
		return []string{"ir", "rr", "rm", "im"}
	case isa.LEA:
		return []string{"mr"}
	case isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.SHL, isa.CMP, isa.TEST:
		return []string{"ir", "rr"}
	case isa.IMUL:
		return []string{"ir", "rr", "irr"}
	case isa.INC, isa.DEC:
		return []string{"r"}
	case isa.NOP, isa.RET:
		return []string{""}
	}
	return nil
}

// classNames spells a signature out for messages ("mem,xmm").
func classNames(sig string) string {
	if sig == "" {
		return "no operands"
	}
	names := make([]string, len(sig))
	for i := 0; i < len(sig); i++ {
		switch sig[i] {
		case 'i':
			names[i] = "imm"
		case 'r':
			names[i] = "gpr"
		case 'x':
			names[i] = "xmm"
		case 'm':
			names[i] = "mem"
		case 'l':
			names[i] = "label"
		default:
			names[i] = "?"
		}
	}
	return strings.Join(names, ",")
}

// legalForms renders the allowed signatures for messages.
func legalForms(forms []string) string {
	out := make([]string, len(forms))
	for i, f := range forms {
		out[i] = classNames(f)
	}
	return strings.Join(out, " | ")
}

// checkForm reports a V001 diagnostic when sig is not among the legal forms
// of op.
func checkForm(op isa.Op, sig string, known bool, i int, add addFunc) {
	forms := opForms(op)
	if forms == nil {
		add(RuleOperandForm, SeverityError, i, "opcode %s has no legal operand forms in the subset", op)
		return
	}
	if !known {
		add(RuleOperandForm, SeverityError, i, "%s has an operand of unknown class", op)
		return
	}
	for _, f := range forms {
		if f == sig {
			return
		}
	}
	add(RuleOperandForm, SeverityError, i, "%s does not accept operand form (%s); legal: %s",
		op, classNames(sig), legalForms(forms))
}
