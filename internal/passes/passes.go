package passes

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"microtools/internal/codegen"
	"microtools/internal/ir"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// expansionLimit bounds the total number of kernels a single fan-out pass
// may produce, as a runaway guard for adversarial specs.
const expansionLimit = 1 << 20

// defaultPasses builds the nineteen default passes of §3.2 in pipeline
// order.
func defaultPasses() []*Pass {
	mk := func(name, doc string, run RunFunc) *Pass {
		return &Pass{Name: name, Doc: doc, Gate: AlwaysGate, Run: run}
	}
	passes := []*Pass{
		mk("validate", "check spec-level kernel invariants", passValidate),
		mk("repeat-instructions", "expand per-instruction repetition ranges", fanOut(repeatChildren)),
		mk("random-select", "seeded random instruction selection", passRandomSelect),
		mk("select-instructions", "expand move semantics into concrete opcodes", fanOut(moveChildren)),
		mk("select-strides", "one variant per induction stride choice", fanOut(strideChildren)),
		mk("select-immediates", "one variant per immediate choice", fanOut(immediateChildren)),
		mk("swap-before-unroll", "load/store operand swap before unrolling", fanOut(swapBeforeChildren)),
		mk("unroll", "unroll the kernel across the requested range", passUnroll),
		mk("swap-after-unroll", "per-copy load/store operand swap", fanOut(swapAfterChildren)),
		mk("rotate-registers", "assign rotating vector registers per copy", passRotateRegisters),
		mk("allocate-registers", "map logical registers to physical ones", passAllocateRegisters),
		mk("link-inductions", "scale induction increments by unroll and width", passLinkInductions),
		mk("insert-inductions", "materialize induction updates in the body", passInsertInductions),
		mk("schedule", "interleave loads and stores (off by default)", passSchedule),
		mk("insert-branch", "finalize the loop label and branch", passInsertBranch),
		mk("prologue-epilogue", "finalize names, prologue zeroing, dedupe", passPrologue),
		mk("align-code", "request loop-top code alignment", passAlignCode),
		mk("verify", "post-pipeline invariant checks", passVerify),
		mk("emit", "lower and verify each program, hand it to the sink", passEmit),
		{
			Name: "verify-variants",
			Doc:  "kernel-level verifier rules and expansion accounting (internal/verify)",
			// Opt-out gate: Context.VerifyMode = verify.ModeOff skips it.
			Gate: func(ctx *Context) bool { return ctx.VerifyMode != verify.ModeOff },
			Run:  passVerifyVariants,
		},
	}
	// The schedule pass is present but gated off by default, mirroring the
	// paper's optional passes ("A user may modify it so as not to always
	// execute the pass", §3.3).
	passes[13].Gate = NeverGate
	return passes
}

// expandAll repeatedly applies f to kernels until it reports no further
// expansion (returns nil). Deterministic depth-first order: a LIFO stack
// that takes the inputs and each expansion's children in reverse, so the
// first child is expanded next.
func expandAll(ks []*ir.Kernel, f func(*ir.Kernel) ([]*ir.Kernel, error)) ([]*ir.Kernel, error) {
	var out []*ir.Kernel
	stack := make([]*ir.Kernel, 0, len(ks))
	for i := len(ks) - 1; i >= 0; i-- {
		stack = append(stack, ks[i])
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vs, err := f(k)
		if err != nil {
			return nil, err
		}
		if vs == nil {
			out = append(out, k)
			if len(out) > expansionLimit {
				return nil, fmt.Errorf("variant explosion beyond %d kernels", expansionLimit)
			}
			continue
		}
		for i := len(vs) - 1; i >= 0; i-- {
			stack = append(stack, vs[i])
		}
		if len(stack) > expansionLimit {
			return nil, fmt.Errorf("variant explosion beyond %d kernels", expansionLimit)
		}
	}
	return out, nil
}

// fanOut is the pass that expands every kernel through children, which
// returns a kernel's variants at its first fan-out point, or nil when the
// kernel has none left.
func fanOut(children func(*ir.Kernel) ([]*ir.Kernel, error)) RunFunc {
	return func(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
		return expandAll(ks, children)
	}
}

// cloneInstr deep-copies an instruction for duplication within the same
// kernel: rotating registers get fresh objects (each copy rotates
// independently); allocated/logical registers and the move semantics,
// which no pass changes in place, stay shared.
func cloneInstr(in ir.Instruction) ir.Instruction {
	ni := in
	ni.Operands = make([]ir.Operand, len(in.Operands))
	for i, o := range in.Operands {
		no := o
		if o.Reg != nil && o.Reg.IsRotating() {
			r := *o.Reg
			no.Reg = &r
		}
		no.ImmChoices = append([]int64(nil), o.ImmChoices...)
		ni.Operands[i] = no
	}
	return ni
}

// ---- pass 1: validate -----------------------------------------------------

func passValidate(ctx *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			return nil, err
		}
	}
	// Record the statically-predicted variant count per kernel family while
	// the kernels are still spec-level; the verify-variants pass compares
	// the final count against it (rule V008, expansion accounting).
	if ctx != nil {
		ctx.expectedVariants = map[string]int64{}
		moveCount := func(mv *ir.MoveSemantics) (int, error) {
			cands, err := moveCandidates(mv)
			return len(cands), err
		}
		for _, k := range ks {
			if want, ok := verify.ExpectedVariants(k, moveCount); ok {
				ctx.expectedVariants[k.BaseName] = want
			}
		}
	}
	return ks, nil
}

// ---- pass 2: repeat-instructions ------------------------------------------

func repeatChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Body {
		rep := k.Body[i].Repeat
		if rep.Singleton() && rep.Min == 1 {
			continue
		}
		var vs []*ir.Kernel
		key := "rep" + strconv.Itoa(i)
		for c := rep.Min; c <= rep.Max; c++ {
			v := k.Clone()
			inst := v.Body[i]
			inst.Repeat = ir.Range{Min: 1, Max: 1}
			expanded := make([]ir.Instruction, 0, len(v.Body)+c-1)
			expanded = append(expanded, v.Body[:i]...)
			for j := 0; j < c; j++ {
				ni := cloneInstr(inst)
				// Each repetition is its own copy for register
				// rotation, so repeated instructions draw distinct
				// rotating registers (independent chains).
				ni.Copy = j
				expanded = append(expanded, ni)
			}
			expanded = append(expanded, v.Body[i+1:]...)
			v.Body = expanded
			v.Tag(key, strconv.Itoa(c))
			vs = append(vs, v)
		}
		return vs, nil
	}
	return nil, nil
}

// ---- pass 3: random-select -------------------------------------------------

func passRandomSelect(ctx *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	var out []*ir.Kernel
	for _, k := range ks {
		if k.RandomCount <= 0 {
			out = append(out, k)
			continue
		}
		seed := k.RandomSeed
		if seed == 0 {
			seed = ctx.Seed
		}
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < k.RandomCount; v++ {
			nk := k.Clone()
			nk.RandomCount = 0
			body := make([]ir.Instruction, len(nk.Body))
			for i := range body {
				body[i] = cloneInstr(nk.Body[rng.Intn(len(nk.Body))])
			}
			nk.Body = body
			nk.Tag("rand", strconv.Itoa(v))
			out = append(out, nk)
		}
	}
	return out, nil
}

// ---- pass 4: select-instructions -------------------------------------------

// moveCandidates enumerates the concrete opcodes matching the abstract
// move semantics (§3.1: "aligned versus non-aligned instructions or using
// vectorized or scalar instructions").
func moveCandidates(mv *ir.MoveSemantics) ([]isa.Op, error) {
	var precisions []string
	switch mv.Precision {
	case "single":
		precisions = []string{"single"}
	case "double":
		precisions = []string{"double"}
	case "":
		precisions = []string{"single", "double"}
	}
	var out []isa.Op
	for _, p := range precisions {
		switch mv.Bytes {
		case 4:
			if p == "single" {
				out = append(out, isa.MOVSS)
			}
		case 8:
			if p == "double" {
				out = append(out, isa.MOVSD)
			}
		case 16:
			aligned, unaligned := isa.MOVAPS, isa.MOVUPS
			if p == "double" {
				aligned, unaligned = isa.MOVAPD, isa.MOVUPD
			}
			switch mv.Aligned {
			case "aligned":
				out = append(out, aligned)
			case "unaligned":
				out = append(out, unaligned)
			case "both":
				out = append(out, aligned, unaligned)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("move semantics %+v match no instruction", *mv)
	}
	return out, nil
}

func moveChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Body {
		if k.Body[i].Move == nil {
			continue
		}
		cands, err := moveCandidates(k.Body[i].Move)
		if err != nil {
			return nil, fmt.Errorf("kernel %q instruction %d: %w", k.BaseName, i, err)
		}
		var vs []*ir.Kernel
		key := "i" + strconv.Itoa(i)
		for _, op := range cands {
			v := k.Clone()
			v.Body[i].SetOpcode(op)
			v.Body[i].Move = nil
			v.Tag(key, op.String())
			vs = append(vs, v)
		}
		return vs, nil
	}
	return nil, nil
}

// ---- pass 5: select-strides -------------------------------------------------

func strideChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Inductions {
		choices := k.Inductions[i].IncrementChoices
		if len(choices) == 0 {
			continue
		}
		var vs []*ir.Kernel
		key := "stride" + strconv.Itoa(i)
		for _, c := range choices {
			v := k.Clone()
			v.Inductions[i].Increment = c
			v.Inductions[i].IncrementChoices = nil
			v.Tag(key, strconv.FormatInt(c, 10))
			vs = append(vs, v)
		}
		return vs, nil
	}
	return nil, nil
}

// ---- pass 6: select-immediates ----------------------------------------------

func immediateChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Body {
		for j := range k.Body[i].Operands {
			o := &k.Body[i].Operands[j]
			if o.Kind != ir.ImmOperand || len(o.ImmChoices) == 0 {
				continue
			}
			var vs []*ir.Kernel
			key := "imm" + strconv.Itoa(i) + "_" + strconv.Itoa(j)
			for _, c := range o.ImmChoices {
				v := k.Clone()
				v.Body[i].Operands[j].Imm = c
				v.Body[i].Operands[j].ImmChoices = nil
				v.Tag(key, strconv.FormatInt(c, 10))
				vs = append(vs, v)
			}
			return vs, nil
		}
	}
	return nil, nil
}

// ---- passes 7 & 9: operand swaps ---------------------------------------------

// swapInstr reverses a two-operand move between a memory reference and a
// register, turning a load into a store or vice versa.
func swapInstr(in *ir.Instruction) bool {
	if len(in.Operands) != 2 {
		return false
	}
	a, b := in.Operands[0].Kind, in.Operands[1].Kind
	if (a == ir.MemOperand && b == ir.RegOperand) || (a == ir.RegOperand && b == ir.MemOperand) {
		in.Operands[0], in.Operands[1] = in.Operands[1], in.Operands[0]
		return true
	}
	return false
}

// swapBeforeChildren clones both leaves: its input can be the caller's
// spec-level kernel, which no pass may mutate.
func swapBeforeChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Body {
		if !k.Body[i].SwapBeforeUnroll {
			continue
		}
		orig := k.Clone()
		orig.Body[i].SwapBeforeUnroll = false
		swapped := k.Clone()
		swapped.Body[i].SwapBeforeUnroll = false
		if !swapInstr(&swapped.Body[i]) {
			// Not swappable: keep only the original.
			return []*ir.Kernel{orig}, nil
		}
		return []*ir.Kernel{orig, swapped}, nil
	}
	return nil, nil
}

// swapAfterChildren owns its inputs: each is a kernel the unroll pass
// cloned for this run. So k itself becomes the unswapped leaf and only the
// swapped leaf is a new clone, 2^u - 1 clones per unroll factor.
func swapAfterChildren(k *ir.Kernel) ([]*ir.Kernel, error) {
	for i := range k.Body {
		if !k.Body[i].SwapAfterUnroll {
			continue
		}
		k.Body[i].SwapAfterUnroll = false
		swapped := k.Clone()
		if !swapInstr(&swapped.Body[i]) {
			return []*ir.Kernel{k}, nil
		}
		return []*ir.Kernel{k, swapped}, nil
	}
	return nil, nil
}

// ---- pass 8: unroll -----------------------------------------------------------

func passUnroll(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	var out []*ir.Kernel
	for _, k := range ks {
		if k.Unroll != 0 {
			return nil, fmt.Errorf("kernel %q already unrolled", k.Name)
		}
		// Pre-existing copy indices (from instruction repetition) compose
		// with the unroll index so every copy rotates distinctly.
		width := 1
		for i := range k.Body {
			if k.Body[i].Copy >= width {
				width = k.Body[i].Copy + 1
			}
		}
		for u := k.UnrollRange.Min; u <= k.UnrollRange.Max; u++ {
			v := k.Clone()
			v.Unroll = u
			// Room for the induction updates, as Clone leaves.
			body := make([]ir.Instruction, 0, len(v.Body)*u+len(v.Inductions))
			for c := 0; c < u; c++ {
				for i := range v.Body {
					ni := cloneInstr(v.Body[i])
					ni.Copy = c*width + v.Body[i].Copy
					if c > 0 {
						for j := range ni.Operands {
							o := &ni.Operands[j]
							if o.Kind != ir.MemOperand {
								continue
							}
							if ind := v.InductionFor(o.Reg); ind != nil {
								o.Offset += int64(c) * ind.Offset
							}
						}
					}
					body = append(body, ni)
				}
			}
			v.Body = body
			v.Tag("u", strconv.Itoa(u))
			out = append(out, v)
		}
	}
	return out, nil
}

// ---- pass 10: rotate-registers ---------------------------------------------

// passRotateRegisters assigns rotating vector registers per unroll copy:
// every rotating operand of copy c gets index min + c mod (max-min), so a
// load/compute/store group within one copy shares its register while
// successive copies use different ones ("generate a different XMM register
// per unrolling iteration ... reduces register dependency", §3.1).
func passRotateRegisters(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		for i := range k.Body {
			for j := range k.Body[i].Operands {
				r := k.Body[i].Operands[j].Reg
				if r == nil || !r.IsRotating() {
					continue
				}
				n := r.RotRange.Max - r.RotRange.Min
				if n <= 0 {
					return nil, fmt.Errorf("kernel %q: empty rotation range on %s", k.Name, r)
				}
				r.RotIdx = r.RotRange.Min + k.Body[i].Copy%n
			}
		}
	}
	return ks, nil
}

// ---- pass 11: allocate-registers ---------------------------------------------

// passAllocateRegisters implements the "hardware detection system" of §3.1:
// the loop counter (last_induction) gets %rdi, where MicroLauncher passes
// the trip count; memory base registers get the remaining SysV argument
// registers in first-use order (so the launcher's allocated arrays land in
// them); other logical registers draw from a scratch pool.
func passAllocateRegisters(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		// The register objects stay the same while this pass assigns
		// them, so one list serves both walks.
		regs := k.Registers()
		var used [isa.NumRegs]bool
		for _, r := range regs {
			if !r.IsRotating() && r.Phys < isa.NumRegs {
				used[r.Phys] = true
			}
		}
		take := func(pool []isa.Reg) (isa.Reg, bool) {
			for _, r := range pool {
				if !used[r] {
					used[r] = true
					return r, true
				}
			}
			return isa.NoReg, false
		}

		// 1. Loop counter.
		for i := range k.Inductions {
			ind := &k.Inductions[i]
			if ind.Last && ind.Reg.Phys == isa.NoReg && !ind.Reg.IsRotating() {
				if used[isa.RDI] {
					return nil, fmt.Errorf("kernel %q: %%rdi already taken; cannot place loop counter %s", k.Name, ind.Reg)
				}
				ind.Reg.Phys = isa.RDI
				used[isa.RDI] = true
			}
		}
		// 2. Memory bases, in first-use order.
		argPool := isa.ArgRegs[1:]
		for i := range k.Body {
			for j := range k.Body[i].Operands {
				o := &k.Body[i].Operands[j]
				if o.Kind != ir.MemOperand || o.Reg.IsRotating() || o.Reg.Phys != isa.NoReg {
					continue
				}
				r, ok := take(argPool[:])
				if !ok {
					return nil, fmt.Errorf("kernel %q: out of argument registers for memory base %s (max %d arrays)", k.Name, o.Reg, len(argPool))
				}
				o.Reg.Phys = r
			}
		}
		// 3. Everything else.
		scratch := []isa.Reg{isa.R10, isa.R11, isa.RBX, isa.R12, isa.R13, isa.R14, isa.R15}
		for _, r := range regs {
			if r.IsRotating() || r.Phys != isa.NoReg {
				continue
			}
			phys, ok := take(scratch)
			if !ok {
				return nil, fmt.Errorf("kernel %q: out of scratch registers for %s", k.Name, r)
			}
			r.Phys = phys
		}
	}
	return ks, nil
}

// ---- pass 12: link-inductions -------------------------------------------------

// instrWidthFor returns the memory width (bytes) of the first instruction
// addressing through reg.
func instrWidthFor(k *ir.Kernel, reg *ir.Register) (int, error) {
	for i := range k.Body {
		in := &k.Body[i]
		for _, o := range in.Operands {
			if o.Kind == ir.MemOperand && o.Reg == reg {
				op, err := in.Opcode()
				if err != nil {
					return 0, err
				}
				return op.MemWidth(), nil
			}
		}
	}
	return 0, fmt.Errorf("no instruction addresses through %s", reg)
}

// passLinkInductions scales induction increments for the chosen unroll
// factor (§4.4 / Fig. 8): a plain induction scales by the unroll factor
// (add $48 for 3×16); a linked induction additionally scales by the data
// elements each copy of the linked instruction moves (sub $12 = 1 × 3 copies
// × 4 elements per 16-byte movaps at 4-byte element size); a
// not_affected_unroll induction is untouched (Fig. 9's iteration counter).
func passLinkInductions(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		u := k.Unroll
		if u == 0 {
			u = 1
		}
		es := k.ElementSize
		if es <= 0 {
			es = 4
		}
		for i := range k.Inductions {
			ind := &k.Inductions[i]
			if ind.Scaled {
				return nil, fmt.Errorf("kernel %q: induction %d scaled twice", k.Name, i)
			}
			ind.Scaled = true
			if ind.NotAffectedUnroll {
				continue
			}
			if ind.LinkedTo != nil {
				w, err := instrWidthFor(k, ind.LinkedTo)
				if err != nil {
					return nil, fmt.Errorf("kernel %q: linked induction %d: %w", k.Name, i, err)
				}
				elems := w / es
				if elems < 1 {
					elems = 1
				}
				ind.Increment *= int64(u) * int64(elems)
				continue
			}
			ind.Increment *= int64(u)
		}
	}
	return ks, nil
}

// ---- pass 13: insert-inductions -------------------------------------------------

// passInsertInductions materializes the induction updates. The
// last_induction is emitted last — immediately before the branch — because
// the conditional jump tests the flags its update sets; any other induction
// update (e.g. Fig. 9's iteration counter) would clobber them. The updates
// are appended into the room unroll and Clone leave after the body: each
// kernel owns its body, so the append reaches no other kernel.
func passInsertInductions(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		var orderBuf [8]*ir.Induction
		order := orderBuf[:0]
		var last *ir.Induction
		for i := range k.Inductions {
			if k.Inductions[i].Last {
				last = &k.Inductions[i]
				continue
			}
			if k.Inductions[i].Increment != 0 {
				order = append(order, &k.Inductions[i])
			}
		}
		if last != nil && last.Increment != 0 {
			order = append(order, last)
		}
		if len(order) == 0 {
			continue
		}
		body := slices.Grow(k.Body, len(order))
		operands := make([]ir.Operand, 2*len(order))
		for j, ind := range order {
			op, imm := isa.ADD, ind.Increment
			if imm < 0 {
				op, imm = isa.SUB, -imm
			}
			ops := operands[2*j : 2*j+2 : 2*j+2]
			ops[0] = ir.Operand{Kind: ir.ImmOperand, Imm: imm}
			ops[1] = ir.Operand{Kind: ir.RegOperand, Reg: ind.Reg}
			in := ir.Instruction{Operands: ops, Repeat: ir.Range{Min: 1, Max: 1}}
			in.SetOpcode(op)
			body = append(body, in)
		}
		k.Body = body
	}
	return ks, nil
}

// ---- pass 14: schedule (gated off by default) -----------------------------------

// passSchedule interleaves memory instructions with non-memory instructions
// round-robin, a simple list-scheduling strategy users can enable through
// the gate (§3.3) to study frontend/scheduler effects.
func passSchedule(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		var mem, other []ir.Instruction
		// Only the unrolled kernel body proper (before induction updates,
		// which must stay last) is reordered; induction updates were
		// appended by insert-inductions which runs earlier, so identify
		// them as trailing integer add/sub on induction registers.
		tail := 0
		for i := len(k.Body) - 1; i >= 0; i-- {
			in := k.Body[i]
			if (in.Op == "add" || in.Op == "sub") && len(in.Operands) == 2 &&
				in.Operands[0].Kind == ir.ImmOperand {
				tail++
				continue
			}
			break
		}
		bodyEnd := len(k.Body) - tail
		for _, in := range k.Body[:bodyEnd] {
			hasMem := false
			for _, o := range in.Operands {
				if o.Kind == ir.MemOperand {
					hasMem = true
				}
			}
			if hasMem {
				mem = append(mem, in)
			} else {
				other = append(other, in)
			}
		}
		if len(other) == 0 {
			continue
		}
		var mixed []ir.Instruction
		for i := 0; i < len(mem) || i < len(other); i++ {
			if i < len(mem) {
				mixed = append(mixed, mem[i])
			}
			if i < len(other) {
				mixed = append(mixed, other[i])
			}
		}
		k.Body = append(mixed, k.Body[bodyEnd:]...)
		k.Tag("sched", "interleave")
	}
	return ks, nil
}

// ---- pass 15: insert-branch --------------------------------------------------

func passInsertBranch(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		k.Branch.Label = plainLabel(k.Branch.Label)
		op, err := k.Branch.Opcode()
		if err != nil || !op.IsCondBranch() {
			return nil, fmt.Errorf("kernel %q: branch test %q is not a conditional jump", k.Name, k.Branch.Test)
		}
	}
	return ks, nil
}

// plainLabel returns label as a plain local assembler symbol: a leading
// '.', then only ASCII letters, digits, '_' and '.'. A missing leading dot
// is added and any other rune, or byte of invalid UTF-8, becomes one '_';
// an empty label or a lone '.' becomes ".L0". A label already in that form
// (".L6") comes back unchanged, without allocating.
func plainLabel(label string) string {
	if label == "" || label == "." {
		return ".L0"
	}
	if label[0] != '.' {
		label = "." + label
	}
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' {
			return r
		}
		return '_'
	}, label)
}

// ---- pass 16: prologue-epilogue ------------------------------------------------

// appendLoadStorePattern appends the per-copy load/store pattern of the
// body ("LSL" = load, store, load), the distinguishing signature the
// operand swap passes create.
func appendLoadStorePattern(dst []byte, k *ir.Kernel) []byte {
	for _, in := range k.Body {
		if len(in.Operands) != 2 {
			continue
		}
		a, c := in.Operands[0].Kind, in.Operands[1].Kind
		switch {
		case a == ir.MemOperand && c == ir.RegOperand:
			dst = append(dst, 'L')
		case a == ir.RegOperand && c == ir.MemOperand:
			dst = append(dst, 'S')
		}
	}
	return dst
}

// sanitizeSymbol rewrites b[from:] in place into symbol characters: ASCII
// letters, digits and '_' stay, '-' (negative numbers in tag values)
// becomes 'm', and any other rune, or byte of invalid UTF-8, becomes one
// '_'. No rune maps to more than one byte, so the rewrite never overtakes
// its input.
func sanitizeSymbol(b []byte, from int) []byte {
	w := from
	for r := from; r < len(b); {
		c := b[r]
		if c >= utf8.RuneSelf {
			_, size := utf8.DecodeRune(b[r:])
			b[w], r, w = '_', r+size, w+1
			continue
		}
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		case c == '-':
			c = 'm'
		default:
			c = '_'
		}
		b[w], r, w = c, r+1, w+1
	}
	return b[:w]
}

// isMemBase reports whether a memory operand of k addresses through reg.
func isMemBase(k *ir.Kernel, reg *ir.Register) bool {
	for i := range k.Body {
		for _, o := range k.Body[i].Operands {
			if o.Kind == ir.MemOperand && o.Reg == reg {
				return true
			}
		}
	}
	return false
}

func passPrologue(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	seen := map[string]bool{}
	var out []*ir.Kernel
	// Every name is built in buf, which the kernels share; only a name
	// that survives the dedup becomes a string.
	var buf []byte
	var keyBuf [8]string
	for _, k := range ks {
		// Prologue zeroing: pinned induction registers that are neither
		// the loop counter nor a data pointer (no memory operand uses
		// them as a base) are iteration counters the launcher reads back
		// (Fig. 9) and must start at zero.
		k.ZeroAtEntry = nil
		for i := range k.Inductions {
			ind := &k.Inductions[i]
			if !ind.Last && ind.Reg.Pinned && !isMemBase(k, ind.Reg) {
				k.ZeroAtEntry = append(k.ZeroAtEntry, ind.Reg)
			}
		}
		// Variant naming: base + unroll + load/store pattern + remaining
		// distinguishing tags (instruction selection, strides, ...), each
		// part sanitized and joined by '_'.
		buf = sanitizeSymbol(append(buf[:0], k.BaseName...), 0)
		if k.Unroll > 0 {
			buf = strconv.AppendInt(append(buf, "_u"...), int64(k.Unroll), 10)
		}
		n := len(buf)
		if buf = appendLoadStorePattern(append(buf, '_'), k); len(buf) == n+1 {
			buf = buf[:n] // no load/store pattern
		}
		keys := keyBuf[:0]
		for key := range k.Tags {
			if key != "u" {
				keys = append(keys, key)
			}
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, key := range keys {
			from := len(buf) + 1
			buf = sanitizeSymbol(append(append(append(buf, '_'), key...), k.Tags[key]...), from)
		}
		if seen[string(buf)] {
			// Content-identical variant (e.g. swap-before + swap-after
			// overlap, §3.2); drop it.
			continue
		}
		name := string(buf)
		seen[name] = true
		k.Name = name
		out = append(out, k)
	}
	return out, nil
}

// ---- pass 17: align-code -------------------------------------------------------

func passAlignCode(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		if k.CodeAlign == 0 {
			k.CodeAlign = 16
		}
	}
	return ks, nil
}

// ---- pass 18: verify -----------------------------------------------------------

func passVerify(_ *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	for _, k := range ks {
		if k.Unroll < 1 {
			return nil, fmt.Errorf("kernel %q: not unrolled", k.Name)
		}
		hasLast := false
		for _, ind := range k.Inductions {
			if ind.Last {
				hasLast = true
			}
		}
		if !hasLast {
			return nil, fmt.Errorf("kernel %q: no last_induction loop counter", k.Name)
		}
		for i, in := range k.Body {
			if in.Op == "" {
				return nil, fmt.Errorf("kernel %q: instruction %d still abstract", k.Name, i)
			}
			if _, err := in.Opcode(); err != nil {
				return nil, fmt.Errorf("kernel %q: instruction %d: %w", k.Name, i, err)
			}
			if len(in.Operands) == 0 || len(in.Operands) > 3 {
				return nil, fmt.Errorf("kernel %q: instruction %d has %d operands", k.Name, i, len(in.Operands))
			}
			for j, o := range in.Operands {
				if o.Kind == ir.ImmOperand {
					if len(o.ImmChoices) > 0 {
						return nil, fmt.Errorf("kernel %q: instruction %d operand %d has unexpanded immediates", k.Name, i, j)
					}
					continue
				}
				if _, err := o.Reg.Resolved(); err != nil {
					return nil, fmt.Errorf("kernel %q: instruction %d operand %d: %w", k.Name, i, j, err)
				}
				if o.Reg.IsRotating() {
					if o.Reg.RotIdx < o.Reg.RotRange.Min || o.Reg.RotIdx >= o.Reg.RotRange.Max {
						return nil, fmt.Errorf("kernel %q: instruction %d operand %d rotation index %d outside [%d,%d)",
							k.Name, i, j, o.Reg.RotIdx, o.Reg.RotRange.Min, o.Reg.RotRange.Max)
					}
				}
			}
		}
	}
	return ks, nil
}

// ---- pass 20: verify-variants ---------------------------------------------------

// passVerifyVariants runs the kernel-level rules of the static verifier
// (internal/verify) over every surviving kernel variant — operand forms,
// def-before-use, register conflicts, alignment, induction consistency,
// register pressure — and expansion accounting against the counts the
// validate pass predicted. The program-level rules already ran in the emit
// pass, whose findings ctx.Diagnostics holds: the kernel findings go before
// them and the expansion findings after. In enforce mode (the default) any
// error-severity finding fails the pipeline.
func passVerifyVariants(ctx *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	opt := verify.Options{Suppress: ctx.VerifySuppress}
	var diags verify.Diagnostics
	for _, k := range ks {
		diags = append(diags, verify.Kernel(k, opt)...)
	}
	diags = append(diags, ctx.Diagnostics...)
	// Expansion accounting only models the default pipeline; skip it when
	// plugins reshaped the pass list.
	if !ctx.pipelineModified && len(ctx.expectedVariants) > 0 {
		got := map[string]int{}
		for _, k := range ks {
			got[k.BaseName]++
		}
		bases := make([]string, 0, len(ctx.expectedVariants))
		for base := range ctx.expectedVariants {
			bases = append(bases, base)
		}
		sort.Strings(bases)
		for _, base := range bases {
			diags = append(diags, verify.Expansion(base, got[base], ctx.expectedVariants[base], opt)...)
		}
	}
	ctx.PassSpan().Int("diagnostics", int64(len(diags)))
	ctx.Diagnostics = diags
	if ctx.VerifyMode == verify.ModeEnforce {
		if err := diags.Err(); err != nil {
			return nil, err
		}
	}
	return ks, nil
}

// ---- pass 19: emit -------------------------------------------------------------

// passEmit is generation's one emit path: each kernel is lowered straight
// to its decoded program (codegen.Lower; text is rendered only on demand,
// by WritePrograms and the CLI dumps), the program-level verifier rules run
// on that program, and the program goes to ctx.Sink. In enforce mode the
// first program with an error-severity finding stops the pipeline, so the
// sink only ever sees programs that passed.
func passEmit(ctx *Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
	verifying := ctx.VerifyMode != verify.ModeOff && ctx.EmitAssembly
	opt := verify.Options{Suppress: ctx.VerifySuppress}
	for _, k := range ks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := ctx.PassSpan().Child("codegen").Str("kernel", k.Name)
		parsed, err := codegen.Lower(k)
		if err != nil && verifying {
			// Lower refuses forms the kernel-level rules name (a mem→GPR
			// mov, a branch inside the body): record the kernel's findings
			// so a collecting run reports the operand form beside the error.
			ctx.Diagnostics = append(ctx.Diagnostics, verify.Kernel(k, opt)...)
		}
		if err == nil {
			sp.Int("insts", int64(len(parsed.Insts)))
			if verifying {
				ds := verify.Program(parsed, k.Name, opt)
				ctx.Diagnostics = append(ctx.Diagnostics, ds...)
				if ctx.VerifyMode == verify.ModeEnforce {
					err = ds.Err()
				}
			}
		}
		if err == nil && ctx.Sink != nil {
			err = ctx.Sink(codegen.Program{
				Name: k.Name, Kernel: k, Parsed: parsed,
				EmitAssembly: ctx.EmitAssembly, EmitC: ctx.EmitC,
			})
		}
		if err != nil {
			sp.Str("error", err.Error()).End()
			return nil, err
		}
		sp.End()
	}
	return ks, nil
}
