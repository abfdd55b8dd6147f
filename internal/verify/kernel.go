package verify

import (
	"cmp"
	"fmt"
	"slices"

	"microtools/internal/ir"
	"microtools/internal/isa"
)

// Kernel runs the IR-level rules over a lowered kernel variant — the state
// the pass pipeline leaves a kernel in after emit: concrete opcodes,
// resolved registers, materialized induction updates. Instruction indices in
// the diagnostics refer to k.Body; kernel-level findings use index -1.
func Kernel(k *ir.Kernel, opt Options) Diagnostics {
	name := k.Name
	if name == "" {
		name = k.BaseName
	}
	var ds Diagnostics
	add := collector(name, opt, &ds)
	// Shared across rules: building the register list walks the body, and
	// opcode resolution is per instruction — doing either once per rule
	// shows up when verifying thousand-variant families.
	var regsBuf [16]*ir.Register
	regs := k.AppendRegisters(regsBuf[:0])
	var opsBuf [32]isa.Op
	ops := parseOps(k, opsBuf[:0])
	checkKernelForms(k, ops, add)
	checkKernelDefUse(k, ops, add)
	checkKernelConflicts(k, regs, add)
	checkKernelAlignment(k, ops, add)
	checkKernelInductions(k, regs, add)
	checkKernelPressure(k, regs, opt, add)
	return ds
}

// unknownOp marks a body instruction whose mnemonic is outside the subset.
const unknownOp = isa.Op(0xFF)

// parseOps appends every body instruction's opcode to ops, as resolved
// where its mnemonic was set; unknown opcodes map to unknownOp (reported by
// the forms rule, skipped by the others).
func parseOps(k *ir.Kernel, ops []isa.Op) []isa.Op {
	for i := range k.Body {
		op, err := k.Body[i].Opcode()
		if err != nil {
			op = unknownOp
		}
		ops = append(ops, op)
	}
	return ops
}

// irOperandClass maps an IR operand to its form class byte.
func irOperandClass(o ir.Operand) (byte, bool) {
	switch o.Kind {
	case ir.ImmOperand:
		return 'i', true
	case ir.MemOperand:
		return 'm', true
	case ir.RegOperand:
		r, err := o.Reg.Resolved()
		if err != nil {
			return 0, false
		}
		switch {
		case r.IsXMM():
			return 'x', true
		case r.IsGPR():
			return 'r', true
		}
	}
	return 0, false
}

// checkKernelForms is rule V001 at the IR level. It names every form the
// program-level check (isa.Program.Validate) refuses once the kernel is
// lowered: a memory→GPR mov is outside mov's forms, and a branch inside
// the body has no label operand to take.
func checkKernelForms(k *ir.Kernel, ops []isa.Op, add addFunc) {
	var sig [4]byte
	for i := range k.Body {
		in := &k.Body[i]
		op := ops[i]
		if op == unknownOp {
			// The pipeline's own post-pass check rejects unknown opcodes
			// with a hard error; report and move on for direct callers.
			add(RuleOperandForm, SeverityError, i, "unknown opcode %q", in.Op)
			continue
		}
		if op.IsBranch() {
			add(RuleOperandForm, SeverityError, i,
				"%s inside the kernel body; the loop branch comes from branch_information", op)
			continue
		}
		n := 0
		known := true
		for _, o := range in.Operands {
			c, ok := irOperandClass(o)
			if !ok || n == len(sig) {
				known = false
				break
			}
			sig[n] = c
			n++
		}
		checkForm(op, string(sig[:n]), known, i, add)
	}
}

// regName labels a register for messages, preferring the spec-level name.
func regName(r *ir.Register) string {
	if r == nil {
		return "<nil>"
	}
	if r.Logical != "" {
		if p, err := r.Resolved(); err == nil {
			return fmt.Sprintf("%s(%s)", r.Logical, p)
		}
		return r.Logical
	}
	return r.String()
}

// checkKernelDefUse is rule V002 at the IR level: general-purpose registers
// must be written (or provided by the launcher's calling convention — the
// SysV argument registers, the stack registers, and the prologue-zeroed
// set) before they are read. Reading an undefined register as a memory base
// is an error (the access faults on real hardware); reading one as an
// arithmetic source or read-modify-write destination is only a warning,
// because the launcher zero-fills the register file so the value is defined
// in simulation — merely suspect. XMM registers are exempt: store-only
// variants produced by the operand-swap passes legitimately store whatever
// the register holds, which is exactly the paper's bandwidth-probe idiom.
func checkKernelDefUse(k *ir.Kernel, ops []isa.Op, add addFunc) {
	// Fixed-size register set, not a map: this rule runs once per generated
	// variant. Resolved GPRs are always < NumRegs.
	var written [isa.NumRegs]bool
	written[isa.RSP], written[isa.RBP] = true, true
	for _, r := range isa.ArgRegs {
		written[r] = true
	}
	for _, r := range k.ZeroAtEntry {
		if p, err := r.Resolved(); err == nil && p < isa.NumRegs {
			written[p] = true
		}
	}
	for i := range k.Body {
		in := &k.Body[i]
		op := ops[i]
		if op == unknownOp {
			continue
		}
		n := len(in.Operands)
		var writes [4]isa.Reg
		nw := 0
		for j, o := range in.Operands {
			if o.Kind == ir.MemOperand {
				if r, rerr := o.Reg.Resolved(); rerr == nil && r.IsGPR() && !written[r] {
					add(RuleUseBeforeDef, SeverityError, i,
						"memory base %s is read before any write", regName(o.Reg))
					written[r] = true // report once per register
				}
				continue
			}
			if o.Kind != ir.RegOperand {
				continue
			}
			r, rerr := o.Reg.Resolved()
			if rerr != nil || !r.IsGPR() {
				continue
			}
			isDst := j == n-1
			switch {
			case isDst && (op.IsMove() || op == isa.LEA):
				writes[nw], nw = r, nw+1 // pure write
			case isDst && op == isa.XOR && n == 2 && sameResolvedReg(in.Operands[0], r):
				writes[nw], nw = r, nw+1 // xor r,r zeroing idiom defines r
			case isDst:
				// Read-modify-write (add/sub/inc/...).
				if !written[r] {
					add(RuleUseBeforeDef, SeverityWarning, i,
						"%s destination %s is read before any write", in.Op, regName(o.Reg))
				}
				writes[nw], nw = r, nw+1
			default:
				if !written[r] {
					add(RuleUseBeforeDef, SeverityWarning, i,
						"%s source %s is read before any write", in.Op, regName(o.Reg))
					written[r] = true
				}
			}
			if nw == len(writes) {
				break // defensive: operands are capped at the writes capacity
			}
		}
		for _, r := range writes[:nw] {
			written[r] = true
		}
	}
}

func sameResolvedReg(o ir.Operand, r isa.Reg) bool {
	if o.Kind != ir.RegOperand {
		return false
	}
	p, err := o.Reg.Resolved()
	return err == nil && p == r
}

// checkKernelConflicts is rule V003: after allocation and rotation, two
// distinct register objects must not land on the same physical register,
// and a rotating pool must not sweep over a physical register some other
// operand was pinned or allocated to.
func checkKernelConflicts(k *ir.Kernel, regs []*ir.Register, add addFunc) {
	// Fixed-size ownership table, not a map: the rule runs per variant.
	var owner [isa.NumRegs]*ir.Register
	for _, r := range regs {
		if r.IsRotating() || r.Phys == isa.NoReg || r.Phys >= isa.NumRegs {
			continue
		}
		if prev := owner[r.Phys]; prev != nil && prev != r {
			add(RuleRegisterConflict, SeverityError, -1,
				"registers %s and %s are both allocated to %s", regName(prev), regName(r), r.Phys)
			continue
		}
		owner[r.Phys] = r
	}
	// Rotating pools: clones of one spec-level pool share the same range,
	// so report each distinct range at most once.
	var rangeBuf [4]ir.Range
	seenRange := rangeBuf[:0]
	for _, r := range regs {
		if !r.IsRotating() || slices.Contains(seenRange, r.RotRange) {
			continue
		}
		seenRange = append(seenRange, r.RotRange)
		for idx := r.RotRange.Min; idx < r.RotRange.Max; idx++ {
			if idx < 0 || idx > 15 {
				continue // the pressure rule reports out-of-file ranges
			}
			phys := isa.XMM0 + isa.Reg(idx)
			if o := owner[phys]; o != nil {
				add(RuleRegisterConflict, SeverityError, -1,
					"rotating pool %s[%d,%d) overlaps %s, which is pinned to %s",
					r.RotBase, r.RotRange.Min, r.RotRange.Max, regName(o), phys)
			}
		}
	}
}

// checkKernelAlignment is rule V004 at the IR level: alignment-requiring
// packed accesses must use offsets and induction strides that are multiples
// of the access width.
func checkKernelAlignment(k *ir.Kernel, ops []isa.Op, add addFunc) {
	var reportedStride map[*ir.Register]bool
	for i := range k.Body {
		in := &k.Body[i]
		op := ops[i]
		if op == unknownOp || !op.RequiresAlignment() {
			continue
		}
		w := int64(op.MemWidth())
		for _, o := range in.Operands {
			if o.Kind != ir.MemOperand {
				continue
			}
			if mod(o.Offset, w) != 0 {
				add(RuleAlignment, SeverityError, i,
					"%s accesses offset %d, not %d-byte aligned", in.Op, o.Offset, w)
			}
			ind := k.InductionFor(o.Reg)
			if ind != nil && !reportedStride[o.Reg] && mod(ind.Increment, w) != 0 {
				if reportedStride == nil {
					reportedStride = map[*ir.Register]bool{}
				}
				reportedStride[o.Reg] = true
				add(RuleAlignment, SeverityError, i,
					"induction stride %d on %s misaligns successive iterations of the %d-byte aligned %s",
					ind.Increment, regName(o.Reg), w, in.Op)
			}
		}
	}
}

// checkKernelInductions is rule V005: across the unrolled copies of the
// body, the memory accesses through each induction register must be
// consistent — copy c must access exactly the copy-0 offsets shifted by
// c times the induction's per-copy offset. A copy with dropped or skewed
// accesses means unrolling and induction linking disagree, which the
// launcher cannot detect (the program still runs; it just measures the
// wrong access pattern).
func checkKernelInductions(k *ir.Kernel, regs []*ir.Register, add addFunc) {
	if k.Unroll < 2 {
		return
	}
	if _, scheduled := k.Tags["sched"]; scheduled {
		// The schedule pass reorders copies; per-copy reconstruction from
		// Copy indices still holds, but keep the rule conservative.
		return
	}
	maxCopy := 0
	for i := range k.Body {
		if k.Body[i].Copy > maxCopy {
			maxCopy = k.Body[i].Copy
		}
	}
	if (maxCopy+1)%k.Unroll != 0 {
		return // copy indices were customized; cannot reconstruct copies
	}
	width := (maxCopy + 1) / k.Unroll
	// Every access through an induction base, in one flat buffer sorted
	// by (base, copy, offset): the rule runs per variant, so it must not
	// allocate per base or per copy.
	var buf [32]inductionAccess
	accs := buf[:0]
	for i := range k.Body {
		for _, o := range k.Body[i].Operands {
			if o.Kind != ir.MemOperand {
				continue
			}
			ind := k.InductionFor(o.Reg)
			if ind == nil {
				continue
			}
			base := slices.Index(regs, o.Reg)
			if base < 0 {
				continue
			}
			uc := k.Body[i].Copy / width
			accs = append(accs, inductionAccess{base, uc, o.Offset - int64(uc)*ind.Offset})
		}
	}
	slices.SortFunc(accs, func(a, b inductionAccess) int {
		if c := cmp.Compare(a.base, b.base); c != 0 {
			return c
		}
		if c := cmp.Compare(a.copy, b.copy); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
	})
	// run returns the end of the run starting at i that shares its base
	// (and, with sameCopy, its copy).
	run := func(i int, sameCopy bool) int {
		j := i + 1
		for j < len(accs) && accs[j].base == accs[i].base && (!sameCopy || accs[j].copy == accs[i].copy) {
			j++
		}
		return j
	}
	for i := 0; i < len(accs); {
		baseEnd := run(i, false)
		// Compare every copy that has accesses against the first such copy.
		ref := accs[i:run(i, true)]
		for j := i + len(ref); j < baseEnd; {
			cp := accs[j:run(j, true)]
			if !sameOffsets(ref, cp) {
				add(RuleInduction, SeverityError, -1,
					"accesses through %s are inconsistent across unrolled copies: copy %d covers offsets %v, copy %d covers %v (normalized by the per-copy offset)",
					regName(regs[ref[0].base]), ref[0].copy, offsetsOf(ref), cp[0].copy, offsetsOf(cp))
				break
			}
			j += len(cp)
		}
		i = baseEnd
	}
}

// inductionAccess is one memory access through an induction base: the
// base's first-use position in the kernel's register list, the access's
// unrolled-copy index, and its offset normalized by the per-copy shift.
type inductionAccess struct {
	base, copy int
	off        int64
}

func sameOffsets(a, b []inductionAccess) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].off != b[i].off {
			return false
		}
	}
	return true
}

// offsetsOf lists a copy's sorted offsets for a diagnostic.
func offsetsOf(g []inductionAccess) []int64 {
	offs := make([]int64, len(g))
	for i, a := range g {
		offs[i] = a.off
	}
	return offs
}

// checkKernelPressure is rule V007: rotation ranges must fit the XMM file
// and the distinct physical registers a variant touches must fit the
// register files.
func checkKernelPressure(k *ir.Kernel, regs []*ir.Register, opt Options, add addFunc) {
	var used [isa.NumRegs]bool // fixed-size set: the rule runs per variant
	var rangeBuf [4]ir.Range
	seenRange := rangeBuf[:0]
	for _, r := range regs {
		if r.IsRotating() {
			if !slices.Contains(seenRange, r.RotRange) {
				seenRange = append(seenRange, r.RotRange)
				if r.RotRange.Min < 0 || r.RotRange.Max > opt.xmmFile() {
					add(RulePressure, SeverityError, -1,
						"rotation range %s[%d,%d) exceeds the %d-register XMM file",
						r.RotBase, r.RotRange.Min, r.RotRange.Max, opt.xmmFile())
				}
			}
			for idx := r.RotRange.Min; idx < r.RotRange.Max && idx < 16; idx++ {
				if idx >= 0 {
					used[isa.XMM0+isa.Reg(idx)] = true
				}
			}
			continue
		}
		if r.Phys == isa.NoReg {
			continue
		}
		if r.Phys.IsGPR() || r.Phys.IsXMM() {
			used[r.Phys] = true
		}
	}
	gprs, xmms := 0, 0
	for p := isa.Reg(0); p < isa.NumRegs; p++ {
		if used[p] {
			if p.IsGPR() {
				gprs++
			} else {
				xmms++
			}
		}
	}
	if gprs > opt.gprFile() {
		add(RulePressure, SeverityError, -1,
			"%d distinct general-purpose registers exceed the %d-register file", gprs, opt.gprFile())
	}
	if xmms > opt.xmmFile() {
		add(RulePressure, SeverityError, -1,
			"%d distinct XMM registers exceed the %d-register file", xmms, opt.xmmFile())
	}
}
