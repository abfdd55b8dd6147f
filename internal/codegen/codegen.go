// Package codegen renders fully-lowered ir.Kernels to the two output
// formats MicroCreator supports (§3): AT&T x86-64 assembly (Fig. 8) and C
// source (a wrapper function carrying the kernel as GNU inline assembly).
//
// A kernel is fully lowered when every instruction has a concrete opcode,
// every register is either physically allocated or a resolved rotating
// register, and the induction updates and branch are materialized — i.e.
// after the pass pipeline of internal/passes has run.
//
// The pipeline is IR-first: Lower builds the decoded isa.Program straight
// from the kernel (bit-identical to parsing the rendered assembly back),
// and text is rendered on demand through the Append functions, so a
// campaign sweep never materializes per-variant assembly strings at all.
package codegen

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"microtools/internal/ir"
	"microtools/internal/isa"
)

// Program is one generated benchmark program. The kernel IR is the source
// of truth; the text renderings are produced on demand by the Assembly and
// CSource methods instead of being materialized per variant.
type Program struct {
	// Name is the variant's function/symbol name.
	Name string
	// Kernel is the lowered IR the program renders from.
	Kernel *ir.Kernel
	// EmitAssembly / EmitC record which output formats the generation
	// request asked for (WritePrograms honours them).
	EmitAssembly bool
	EmitC        bool
	// Parsed is the decoded form of the kernel, populated by the
	// pipeline's emit pass (via Lower) so launchers and the campaign
	// engine never re-parse text (nil only for hand-built programs;
	// Lowered fills it on demand).
	Parsed *isa.Program
}

// Assembly renders the program's assembly text on demand.
func (p *Program) Assembly() (string, error) {
	if p.Kernel == nil {
		return "", fmt.Errorf("codegen: program %q has no kernel to render", p.Name)
	}
	return Assembly(p.Kernel)
}

// CSource renders the program's C text on demand.
func (p *Program) CSource() (string, error) {
	if p.Kernel == nil {
		return "", fmt.Errorf("codegen: program %q has no kernel to render", p.Name)
	}
	return CSource(p.Kernel)
}

// Lowered returns the program's decoded form: Parsed when the pipeline
// populated it, otherwise lowering the kernel on demand (and caching the
// result on the program).
func (p *Program) Lowered() (*isa.Program, error) {
	if p.Parsed != nil {
		return p.Parsed, nil
	}
	if p.Kernel == nil {
		return nil, fmt.Errorf("codegen: program %q has neither a parsed form nor a kernel", p.Name)
	}
	parsed, err := Lower(p.Kernel)
	if err != nil {
		return nil, err
	}
	p.Parsed = parsed
	return parsed, nil
}

// appendOperand renders one IR operand in AT&T syntax.
func appendOperand(dst []byte, o ir.Operand) ([]byte, error) {
	switch o.Kind {
	case ir.RegOperand:
		r, err := o.Reg.Resolved()
		if err != nil {
			return dst, err
		}
		if o.Reg.Pinned32 {
			return append(dst, r.Name32()...), nil
		}
		return append(dst, r.String()...), nil
	case ir.MemOperand:
		r, err := o.Reg.Resolved()
		if err != nil {
			return dst, err
		}
		if o.Offset != 0 {
			dst = strconv.AppendInt(dst, o.Offset, 10)
		}
		dst = append(dst, '(')
		dst = append(dst, r.String()...)
		return append(dst, ')'), nil
	case ir.ImmOperand:
		if len(o.ImmChoices) > 0 {
			return dst, fmt.Errorf("codegen: unexpanded immediate choices %v", o.ImmChoices)
		}
		dst = append(dst, '$')
		return strconv.AppendInt(dst, o.Imm, 10), nil
	}
	return dst, fmt.Errorf("codegen: unknown operand kind %d", o.Kind)
}

// appendInstruction renders one IR instruction line (without the trailing
// newline).
func appendInstruction(dst []byte, in ir.Instruction) ([]byte, error) {
	if in.Op == "" {
		return dst, fmt.Errorf("codegen: abstract instruction (%s) reached code generation", in)
	}
	dst = append(dst, "    "...)
	dst = append(dst, in.Op...)
	for i, o := range in.Operands {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		var err error
		dst, err = appendOperand(dst, o)
		if err != nil {
			return dst, fmt.Errorf("codegen: %s: %w", in.Op, err)
		}
	}
	return dst, nil
}

// Assembly renders the kernel as a self-contained assembly function
// honouring the MicroLauncher linking protocol of §4.4: the trip count
// arrives in %rdi, array pointers follow in the SysV argument registers,
// and the iteration count is returned in %eax.
func Assembly(k *ir.Kernel) (string, error) {
	b, err := AppendAssembly(nil, k)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendAssembly is Assembly in append form: it renders into dst (usually a
// pooled buffer) and returns the extended slice, so callers that render
// many variants — or render only to hash or write the bytes — reuse one
// allocation instead of materializing a string per variant.
func AppendAssembly(dst []byte, k *ir.Kernel) ([]byte, error) {
	name := k.Name
	if name == "" {
		name = k.BaseName
	}
	dst = append(dst, "# Generated by MicroCreator: "...)
	dst = append(dst, name...)
	dst = append(dst, '\n')
	if k.Description != "" {
		dst = append(dst, "# "...)
		dst = append(dst, k.Description...)
		dst = append(dst, '\n')
	}
	if tags := k.TagString(); tags != "" {
		dst = append(dst, "# variant: "...)
		dst = append(dst, tags...)
		dst = append(dst, '\n')
	}
	dst = append(dst, "    .text\n"...)
	if k.CodeAlign > 0 {
		dst = append(dst, "    .align "...)
		dst = strconv.AppendInt(dst, int64(k.CodeAlign), 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, "    .globl "...)
	dst = append(dst, name...)
	dst = append(dst, '\n')
	dst = append(dst, "    .type "...)
	dst = append(dst, name...)
	dst = append(dst, ", @function\n"...)
	dst = append(dst, name...)
	dst = append(dst, ":\n"...)
	// Prologue: zero the registers the Fig. 9 protocol requires.
	for _, r := range k.ZeroAtEntry {
		reg, err := r.Resolved()
		if err != nil {
			return dst, fmt.Errorf("codegen: prologue: %w", err)
		}
		rn := reg.String()
		if r.Pinned32 {
			rn = reg.Name32()
		}
		dst = append(dst, "    xor "...)
		dst = append(dst, rn...)
		dst = append(dst, ", "...)
		dst = append(dst, rn...)
		dst = append(dst, '\n')
	}
	if k.Branch.Label == "" {
		return dst, fmt.Errorf("codegen: kernel %q has no branch label", name)
	}
	dst = append(dst, k.Branch.Label...)
	dst = append(dst, ":\n"...)
	for _, in := range k.Body {
		var err error
		dst, err = appendInstruction(dst, in)
		if err != nil {
			return dst, err
		}
		dst = append(dst, '\n')
	}
	dst = append(dst, "    "...)
	dst = append(dst, k.Branch.Test...)
	dst = append(dst, ' ')
	dst = append(dst, k.Branch.Label...)
	dst = append(dst, '\n')
	dst = append(dst, "    ret\n"...)
	dst = append(dst, "    .size "...)
	dst = append(dst, name...)
	dst = append(dst, ", .-"...)
	dst = append(dst, name...)
	dst = append(dst, '\n')
	return dst, nil
}

// Lower builds the decoded isa.Program directly from the kernel IR — the
// same program, bit for bit, that internal/asm produces from the rendered
// Assembly text, without the text round trip. The equivalence holds by
// construction: the function name becomes the program name (the parser's
// .globl handling), prologue zeroing lowers to the same xor instructions,
// the branch label indexes the first body instruction, and operands map
// exactly as parseOperand maps their renderings (32-bit register aliases
// included, since isa.ParseReg folds them onto the 64-bit register).
// Kernels whose metadata would not survive the text round trip (a label
// the parser would treat as a directive or a second function, a
// multi-line description) are refused so callers fall back to rendering.
func Lower(k *ir.Kernel) (*isa.Program, error) {
	name := k.Name
	if name == "" {
		name = k.BaseName
	}
	if name == "" {
		return nil, fmt.Errorf("codegen: kernel without a name")
	}
	if k.Branch.Label == "" {
		return nil, fmt.Errorf("codegen: kernel %q has no branch label", name)
	}
	// The name must stay clear of directive/operand syntax (it appears in
	// .globl, .type and .size operands); the branch label only has to parse
	// back as a label, so the conventional leading '.' (".L6") is fine —
	// the parser's label case wins over its directive case — but a leading
	// '%' or '$' would misparse as a register or immediate in the branch
	// instruction's operand position.
	for _, s := range [...]string{name, k.Branch.Label} {
		if strings.ContainsAny(s, " \t\n\r#:,") || s[0] == '$' || s[0] == '%' {
			return nil, fmt.Errorf("codegen: kernel %q: symbol %q would not survive the assembly round trip", name, s)
		}
	}
	if name[0] == '.' {
		return nil, fmt.Errorf("codegen: kernel %q: symbol %q would not survive the assembly round trip", name, name)
	}
	if k.Branch.Label == name || strings.ContainsAny(k.Description, "\n\r") {
		return nil, fmt.Errorf("codegen: kernel %q: metadata would not survive the assembly round trip", name)
	}
	p := &isa.Program{
		Name:   name,
		Insts:  make([]isa.Inst, 0, len(k.ZeroAtEntry)+len(k.Body)+2),
		Labels: make(map[string]int, 2),
	}
	for _, r := range k.ZeroAtEntry {
		reg, err := r.Resolved()
		if err != nil {
			return nil, fmt.Errorf("codegen: prologue: %w", err)
		}
		p.Insts = append(p.Insts, isa.Inst{
			Op: isa.XOR, A: isa.NewReg(reg), B: isa.NewReg(reg), NOps: 2,
		})
	}
	p.Labels[k.Branch.Label] = len(p.Insts)
	for i := range k.Body {
		inst, err := lowerInstruction(&k.Body[i])
		if err != nil {
			return nil, err
		}
		p.Insts = append(p.Insts, inst)
	}
	testOp, err := k.Branch.Opcode()
	if err != nil {
		return nil, fmt.Errorf("codegen: branch: %w", err)
	}
	p.Insts = append(p.Insts, isa.Inst{Op: testOp, A: isa.NewLabel(k.Branch.Label), NOps: 1})
	p.Insts = append(p.Insts, isa.Inst{Op: isa.RET})
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// lowerInstruction lowers one IR instruction to its decoded form, mapping
// operands exactly as the asm parser maps their renderings.
func lowerInstruction(in *ir.Instruction) (isa.Inst, error) {
	var inst isa.Inst
	if in.Op == "" {
		return inst, fmt.Errorf("codegen: abstract instruction (%s) reached code generation", in)
	}
	op, err := in.Opcode()
	if err != nil {
		return inst, err
	}
	inst.Op = op
	if op.IsBranch() {
		// Body branches would lower to label operands the renderer cannot
		// produce; the pipeline never emits them inside a body.
		return inst, fmt.Errorf("codegen: %s: branch inside a kernel body", in.Op)
	}
	if len(in.Operands) > 3 {
		return inst, fmt.Errorf("codegen: %s: too many operands (%d)", in.Op, len(in.Operands))
	}
	for i, o := range in.Operands {
		lo, err := lowerOperand(o)
		if err != nil {
			return inst, fmt.Errorf("codegen: %s: %w", in.Op, err)
		}
		switch i {
		case 0:
			inst.A = lo
		case 1:
			inst.B = lo
		case 2:
			inst.C = lo
		}
		inst.NOps++
	}
	return inst, nil
}

// lowerOperand lowers one IR operand.
func lowerOperand(o ir.Operand) (isa.Operand, error) {
	switch o.Kind {
	case ir.RegOperand:
		r, err := o.Reg.Resolved()
		if err != nil {
			return isa.Operand{}, err
		}
		return isa.NewReg(r), nil
	case ir.MemOperand:
		r, err := o.Reg.Resolved()
		if err != nil {
			return isa.Operand{}, err
		}
		return isa.NewMem(isa.MemRef{Base: r, Index: isa.NoReg, Disp: o.Offset}), nil
	case ir.ImmOperand:
		if len(o.ImmChoices) > 0 {
			return isa.Operand{}, fmt.Errorf("codegen: unexpanded immediate choices %v", o.ImmChoices)
		}
		return isa.NewImm(o.Imm), nil
	}
	return isa.Operand{}, fmt.Errorf("codegen: unknown operand kind %d", o.Kind)
}

// CSource renders the kernel as a C translation unit: the §4.4 prototype
// int name(int n, void *v0, ...) wrapping the kernel loop as GNU inline
// assembly, so the output remains compilable by a host toolchain while the
// instruction stream stays exactly the generated one.
func CSource(k *ir.Kernel) (string, error) {
	b, err := AppendCSource(nil, k)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendCSource is CSource in append form (see AppendAssembly).
func AppendCSource(dst []byte, k *ir.Kernel) ([]byte, error) {
	asmText, err := AppendAssembly(nil, k)
	if err != nil {
		return dst, err
	}
	name := k.Name
	if name == "" {
		name = k.BaseName
	}
	nvec := countArrayPointers(k)
	dst = append(dst, "/* Generated by MicroCreator: "...)
	dst = append(dst, name...)
	dst = append(dst, " */\n"...)
	if k.Description != "" {
		dst = append(dst, "/* "...)
		dst = append(dst, k.Description...)
		dst = append(dst, " */\n"...)
	}
	dst = append(dst, '\n')
	dst = append(dst, "int "...)
	dst = append(dst, name...)
	dst = append(dst, "(int n"...)
	for i := 0; i < nvec; i++ {
		dst = append(dst, ", void *v"...)
		dst = strconv.AppendInt(dst, int64(i), 10)
	}
	dst = append(dst, ");\n\n"...)
	dst = append(dst, "__asm__(\n"...)
	for _, line := range bytes.Split(bytes.TrimRight(asmText, "\n"), []byte("\n")) {
		dst = append(dst, "    "...)
		dst = strconv.AppendQuote(dst, string(line))
		dst = append(dst, " \"\\n\"\n"...)
	}
	dst = append(dst, ");\n"...)
	return dst, nil
}

// countArrayPointers counts how many SysV pointer arguments the kernel
// consumes: the allocated registers among ArgRegs[1:] (the trip count takes
// ArgRegs[0]).
func countArrayPointers(k *ir.Kernel) int {
	used := map[isa.Reg]bool{}
	for _, r := range k.Registers() {
		if !r.IsRotating() && r.Phys != isa.NoReg {
			used[r.Phys] = true
		}
	}
	n := 0
	for _, r := range isa.ArgRegs[1:] {
		if used[r] {
			n++
		}
	}
	return n
}
