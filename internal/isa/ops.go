package isa

import (
	"fmt"
	"strings"
)

// Op is an opcode in the MicroTools x86-64 subset.
type Op uint8

const (
	NOP Op = iota

	// SSE data movement (the instructions the paper studies in §5.1).
	MOVSS  // scalar single, 4 bytes
	MOVSD  // scalar double, 8 bytes
	MOVAPS // packed single aligned, 16 bytes
	MOVAPD // packed double aligned, 16 bytes
	MOVUPS // packed single unaligned, 16 bytes
	MOVUPD // packed double unaligned, 16 bytes

	// SSE arithmetic (matmul kernel, arithmetic-hiding studies §3.5).
	ADDSS
	ADDSD
	ADDPS
	ADDPD
	MULSS
	MULSD
	MULPS
	MULPD
	XORPS // idiomatic XMM zeroing

	// Integer / control.
	MOV // GPR move (reg/imm/mem)
	LEA // address computation
	ADD // also "addq"
	SUB // also "subq"
	INC
	DEC
	IMUL
	SHL
	XOR
	AND
	CMP // also "cmpl"
	TEST

	// Branches.
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE

	RET

	numOps
)

// opNames holds the AT&T mnemonic of every opcode, indexed by Op.
var opNames = [numOps]string{
	NOP:   "nop",
	MOVSS: "movss", MOVSD: "movsd",
	MOVAPS: "movaps", MOVAPD: "movapd", MOVUPS: "movups", MOVUPD: "movupd",
	ADDSS: "addss", ADDSD: "addsd", ADDPS: "addps", ADDPD: "addpd",
	MULSS: "mulss", MULSD: "mulsd", MULPS: "mulps", MULPD: "mulpd",
	XORPS: "xorps",
	MOV:   "mov", LEA: "lea", ADD: "add", SUB: "sub", INC: "inc", DEC: "dec",
	IMUL: "imul", SHL: "shl", XOR: "xor", AND: "and", CMP: "cmp", TEST: "test",
	JMP: "jmp", JE: "je", JNE: "jne", JL: "jl", JLE: "jle", JG: "jg", JGE: "jge",
	RET: "ret",
}

// opStrings is String's table over every Op value: the mnemonic of each
// opcode, "op(N)" for the values past the subset. Cache keys print an op per
// instruction, so String is one index, never a format.
var opStrings = func() (t [256]string) {
	for i := range t {
		if i < int(numOps) {
			t[i] = opNames[i]
		} else {
			t[i] = fmt.Sprintf("op(%d)", i)
		}
	}
	return t
}()

// String returns the AT&T mnemonic (without size suffix).
func (op Op) String() string { return opStrings[op] }

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps+1)
	for op, n := range opNames {
		m[n] = Op(op)
	}
	m["sal"] = SHL // the arithmetic left shift is the logical one
	return m
}()

// ParseOp parses a mnemonic, tolerating the AT&T size suffixes that GCC and
// the paper's listings use (addq, subq, cmpl, movq, sall, ...).
func ParseOp(mnemonic string) (Op, error) {
	n := strings.ToLower(strings.TrimSpace(mnemonic))
	if op, ok := opByName[n]; ok {
		return op, nil
	}
	// Strip a size suffix (b/w/l/q) and retry for integer mnemonics. SSE
	// mnemonics never carry suffixes, and all of them end in letters that
	// are also valid suffixes (movss ends in 's'... 's' is not a suffix,
	// but e.g. "movsd" must not become "movs"+d), so only retry when the
	// stripped form is a known integer op.
	if len(n) > 1 {
		switch n[len(n)-1] {
		case 'b', 'w', 'l', 'q':
			if op, ok := opByName[n[:len(n)-1]]; ok && !op.IsSSE() {
				return op, nil
			}
		}
	}
	return NOP, fmt.Errorf("isa: unknown mnemonic %q", mnemonic)
}

// IsSSE reports whether op operates on XMM registers.
func (op Op) IsSSE() bool {
	return op >= MOVSS && op <= XORPS
}

// IsBranch reports whether op is a control transfer (conditional or not).
func (op Op) IsBranch() bool { return op >= JMP && op <= JGE }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return op > JMP && op <= JGE }

// IsMove reports whether op is a pure data move (SSE or GPR).
func (op Op) IsMove() bool {
	switch op {
	case MOVSS, MOVSD, MOVAPS, MOVAPD, MOVUPS, MOVUPD, MOV:
		return true
	}
	return false
}

// MemWidth returns the number of bytes a memory operand of op touches.
func (op Op) MemWidth() int {
	switch op {
	case MOVSS, ADDSS, MULSS:
		return 4
	case MOVSD, ADDSD, MULSD:
		return 8
	case MOVAPS, MOVAPD, MOVUPS, MOVUPD,
		ADDPS, ADDPD, MULPS, MULPD, XORPS:
		return 16
	case MOV, ADD, SUB, CMP, LEA, IMUL, AND, XOR, TEST, INC, DEC, SHL:
		return 8
	}
	return 0
}

// RequiresAlignment reports whether a memory operand of op must be aligned
// to its width (the aligned packed moves fault on unaligned addresses;
// MicroLauncher's allocator honours this, and the alignment studies of
// §5.2.2 sweep only legal offsets for such kernels).
func (op Op) RequiresAlignment() bool {
	switch op {
	case MOVAPS, MOVAPD, ADDPS, ADDPD, MULPS, MULPD:
		return true
	}
	return false
}

// WritesFlags reports whether op updates RFLAGS.
func (op Op) WritesFlags() bool {
	switch op {
	case ADD, SUB, INC, DEC, IMUL, SHL, XOR, AND, CMP, TEST:
		return true
	}
	return false
}

// ReadsFlags reports whether op consumes RFLAGS.
func (op Op) ReadsFlags() bool { return op.IsCondBranch() }
