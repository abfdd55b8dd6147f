// Package ir defines MicroCreator's intermediate representation: the
// abstract kernel parsed from the XML description (§3.1) that the
// nineteen compiler passes (§3.2) progressively concretize into assembly.
//
// A kernel starts as a small set of abstract instructions — possibly with
// move semantics instead of concrete opcodes, logical registers instead of
// physical ones, and choice lists for strides and immediates — plus
// unrolling, induction and branch specifications. Each pass either rewrites
// kernels in place or multiplies the variant set (instruction selection,
// stride selection, operand swaps, unrolling ...).
package ir

import (
	"fmt"
	"strings"

	"microtools/internal/isa"
)

// Range is an inclusive integer range used by unrolling, repetition and
// register-rotation specifications (the paper's <min>/<max> nodes).
type Range struct {
	Min, Max int
}

// Singleton reports whether the range contains exactly one value.
func (r Range) Singleton() bool { return r.Min == r.Max }

// Count returns the number of values in the range (0 if empty).
func (r Range) Count() int {
	if r.Max < r.Min {
		return 0
	}
	return r.Max - r.Min + 1
}

// Validate checks that the range is well-formed and within limit.
func (r Range) Validate(what string, limit int) error {
	if r.Min < 1 || r.Max < r.Min {
		return fmt.Errorf("ir: bad %s range [%d,%d]", what, r.Min, r.Max)
	}
	if limit > 0 && r.Max > limit {
		return fmt.Errorf("ir: %s range max %d exceeds limit %d", what, r.Max, limit)
	}
	return nil
}

// Register is a register reference shared between instruction operands and
// induction specifications. It is deliberately a pointer-identity object:
// the register-allocation pass assigns Phys once and every operand holding
// the same *Register sees the assignment (matching the paper's "the hardware
// detection system associates r1 to a physical register such as %rsi").
type Register struct {
	// Logical is the spec-level name ("r0", "r1", ...). Empty when the
	// spec pinned a physical register directly (e.g. Fig. 9's %eax).
	Logical string
	// Phys is the allocated physical register; isa.NoReg until the
	// allocation pass runs (or forever, for rotation bases).
	Phys isa.Reg
	// Pinned records that the spec named a physical register directly
	// (phyName); Pinned32 additionally notes a 32-bit alias (e.g. %eax),
	// retained for faithful re-rendering and the launcher's
	// return-register logic.
	Pinned   bool
	Pinned32 bool

	// Rotation: when RotBase is non-empty (e.g. "%xmm") the register is a
	// rotating vector register class; the rotate-registers pass assigns
	// RotIdx per unroll copy within [RotRange.Min, RotRange.Max).
	RotBase  string
	RotRange Range
	RotIdx   int
}

// NewLogical returns an unallocated logical register.
func NewLogical(name string) *Register {
	return &Register{Logical: name, Phys: isa.NoReg}
}

// NewPinned returns a register pinned to a physical one by the spec.
func NewPinned(phys isa.Reg, is32 bool) *Register {
	return &Register{Phys: phys, Pinned: true, Pinned32: is32}
}

// NewRotating returns a rotating register class (e.g. base "%xmm",
// range [min,max)).
func NewRotating(base string, rot Range) *Register {
	return &Register{RotBase: base, RotRange: rot, RotIdx: rot.Min, Phys: isa.NoReg}
}

// IsRotating reports whether the register is a rotating class (XMM pool).
func (r *Register) IsRotating() bool { return r != nil && r.RotBase != "" }

// Resolved returns the physical register, resolving rotation.
func (r *Register) Resolved() (isa.Reg, error) {
	if r == nil {
		return isa.NoReg, fmt.Errorf("ir: nil register")
	}
	if r.IsRotating() {
		// Fast path for the ubiquitous "%xmm" pool: Resolved is called per
		// operand per variant by codegen and the verifier, and formatting a
		// name only to re-parse it dominates those loops.
		if (r.RotBase == "%xmm" || r.RotBase == "xmm") && r.RotIdx >= 0 && r.RotIdx < 16 {
			return isa.XMM0 + isa.Reg(r.RotIdx), nil
		}
		name := fmt.Sprintf("%s%d", r.RotBase, r.RotIdx)
		reg, err := isa.ParseReg(name)
		if err != nil {
			return isa.NoReg, fmt.Errorf("ir: rotating register %q: %w", name, err)
		}
		return reg, nil
	}
	if r.Phys == isa.NoReg {
		return isa.NoReg, fmt.Errorf("ir: register %q not allocated", r.Logical)
	}
	return r.Phys, nil
}

// String renders the register for diagnostics.
func (r *Register) String() string {
	switch {
	case r == nil:
		return "<nil>"
	case r.IsRotating():
		return fmt.Sprintf("%s[%d..%d]@%d", r.RotBase, r.RotRange.Min, r.RotRange.Max, r.RotIdx)
	case r.Phys != isa.NoReg:
		return r.Phys.String()
	default:
		return r.Logical
	}
}

// OperandKind tags IR operand variants.
type OperandKind uint8

const (
	RegOperand OperandKind = iota
	MemOperand
	ImmOperand
)

// Operand is an abstract instruction operand.
type Operand struct {
	Kind OperandKind
	// Reg holds the register for RegOperand, and the base register for
	// MemOperand.
	Reg *Register
	// Offset is the memory displacement for MemOperand (adjusted per
	// unroll copy by the unrolling pass).
	Offset int64
	// Imm is the immediate value; ImmChoices, when non-empty, is the
	// choice list the select-immediates pass expands.
	Imm        int64
	ImmChoices []int64
}

func (o Operand) String() string {
	switch o.Kind {
	case RegOperand:
		return o.Reg.String()
	case MemOperand:
		if o.Offset != 0 {
			return fmt.Sprintf("%d(%s)", o.Offset, o.Reg)
		}
		return fmt.Sprintf("(%s)", o.Reg)
	case ImmOperand:
		if len(o.ImmChoices) > 0 {
			return fmt.Sprintf("$choice%v", o.ImmChoices)
		}
		return fmt.Sprintf("$%d", o.Imm)
	}
	return "?"
}

// MoveSemantics is the abstract move description of §3.1: "MicroCreator
// also allows the user to provide move semantics, such as the number of
// bytes to be moved, without specifying exactly which instruction to use".
// The select-instructions pass expands it into concrete mnemonics.
type MoveSemantics struct {
	// Bytes moved per instruction: 4, 8 or 16.
	Bytes int
	// Precision: "single", "double" or "" (both where meaningful).
	Precision string
	// Aligned: "aligned", "unaligned" or "both" (16-byte moves only).
	Aligned string
}

// Instruction is one abstract kernel instruction.
type Instruction struct {
	// Op is the concrete mnemonic. Empty when Move semantics are given;
	// the select-instructions pass fills it in.
	Op string
	// Move is the abstract move description, if any.
	Move *MoveSemantics
	// Operands in AT&T order (sources first, destination last).
	Operands []Operand
	// SwapBeforeUnroll / SwapAfterUnroll request the two operand-swap
	// passes of §3.2 for this instruction.
	SwapBeforeUnroll bool
	SwapAfterUnroll  bool
	// op is Op resolved to its opcode where the mnemonic was set (Validate,
	// SetOpcode); see Opcode.
	op isa.Op
	// Repeat is the instruction repetition range handled by the
	// repeat-instructions pass (default {1,1}).
	Repeat Range
	// Copy is the unroll copy index this instruction belongs to (set by
	// the unroll pass; registers rotate per copy).
	Copy int
}

// SetOpcode sets the instruction's mnemonic to op's and records op as its
// resolved opcode.
func (in *Instruction) SetOpcode(op isa.Op) {
	in.Op, in.op = op.String(), op
}

// Opcode returns the opcode Op names. The opcode resolved where the
// mnemonic was set serves every later caller, as long as Op still spells
// it canonically (without a size suffix); any other spelling, including
// an Op assigned directly after resolution, is parsed with isa.ParseOp.
func (in *Instruction) Opcode() (isa.Op, error) {
	return opcode(in.Op, in.op)
}

// opcode returns op when name is its canonical mnemonic, and otherwise
// parses name. The zero op is NOP, whose mnemonic "nop" resolves to it, so
// an unresolved zero value never answers for another name.
func opcode(name string, op isa.Op) (isa.Op, error) {
	if name == op.String() {
		return op, nil
	}
	return isa.ParseOp(name)
}

func (in Instruction) String() string {
	op := in.Op
	if op == "" {
		op = fmt.Sprintf("move<%dB>", in.Move.Bytes)
	}
	var ops []string
	for _, o := range in.Operands {
		ops = append(ops, o.String())
	}
	return op + " " + strings.Join(ops, ", ")
}

// Induction describes one induction variable (§3.1's <induction> node).
type Induction struct {
	Reg *Register
	// Increment is the per-source-iteration increment; the unrolling and
	// link-inductions passes scale it. IncrementChoices, when set, is
	// expanded by the select-strides pass.
	Increment        int64
	IncrementChoices []int64
	// Offset is the per-unroll-copy memory displacement contributed by
	// this register (Fig. 6's <offset>16</offset>: copy c addresses
	// c*Offset(reg)).
	Offset int64
	// LinkedTo makes this induction's increment follow another register's
	// unrolled data movement (Fig. 6's r0 linked to r1; Fig. 8's
	// "sub $12, %rdi" for a 3× unrolled 16-byte move over 4-byte
	// elements).
	LinkedTo *Register
	// Last marks the loop counter whose sign the branch tests
	// (<last_induction/>).
	Last bool
	// NotAffectedUnroll pins the increment regardless of unrolling
	// (Fig. 9's iteration counter in %eax).
	NotAffectedUnroll bool
	// scaled records that induction scaling already ran (defensive
	// against double application of the link-inductions pass).
	Scaled bool
}

// Branch is the <branch_information> node.
type Branch struct {
	Label string
	Test  string // conditional jump mnemonic, e.g. "jge"
	// op is Test resolved by Kernel.Validate; see Opcode.
	op isa.Op
}

// Opcode returns the opcode Test names, resolved once by Kernel.Validate
// while Test spells it canonically (see Instruction.Opcode).
func (b *Branch) Opcode() (isa.Op, error) {
	return opcode(b.Test, b.op)
}

// Kernel is one (possibly still abstract) benchmark program variant.
type Kernel struct {
	// BaseName is the spec-level kernel name; Name is the variant name
	// (BaseName plus tag suffixes).
	BaseName string
	Name     string
	// Description is free-form documentation carried to the output.
	Description string

	Body       []Instruction
	Inductions []Induction
	Branch     Branch

	// UnrollRange is the requested range; Unroll is the factor chosen for
	// this variant (0 until the unroll pass runs).
	UnrollRange Range
	Unroll      int

	// RandomCount/RandomSeed configure the random-select pass (0 = off).
	RandomCount int
	RandomSeed  int64

	// ElementSize is the logical element size in bytes used for linked
	// induction scaling (default 4, matching Fig. 8's arithmetic).
	ElementSize int

	// MaxVariants caps the generated set ("The user can limit the number
	// of benchmark programs if it is superfluous", §3.2). 0 = unlimited.
	MaxVariants int

	// ZeroAtEntry lists registers the prologue must clear (e.g. the
	// Fig. 9 iteration counter).
	ZeroAtEntry []*Register

	// CodeAlign is the loop-top alignment directive in bytes (set by the
	// align-code pass; 0 emits none).
	CodeAlign int

	// Tags records the variant decisions (unroll factor, swap pattern,
	// chosen instruction, stride...) for naming and CSV reporting. A clone
	// shares its source's map, so write it only through Tag, which never
	// changes a map in place.
	Tags map[string]string
}

// Tag records a variant decision and returns the kernel for chaining. It
// gives the kernel a new map holding the old tags plus this one, so the
// kernels that share the old map keep their tags.
func (k *Kernel) Tag(key, value string) *Kernel {
	tags := make(map[string]string, len(k.Tags)+1)
	for tk, tv := range k.Tags {
		tags[tk] = tv
	}
	tags[key] = value
	k.Tags = tags
	return k
}

// TagString renders tags deterministically as key=value pairs sorted by key.
func (k *Kernel) TagString() string {
	if len(k.Tags) == 0 {
		return ""
	}
	keys := make([]string, 0, len(k.Tags))
	for key := range k.Tags {
		keys = append(keys, key)
	}
	// insertion sort; tag sets are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, key := range keys {
		parts[i] = key + "=" + k.Tags[key]
	}
	return strings.Join(parts, ",")
}

// Registers returns every distinct *Register referenced by the kernel, in
// first-use order (operands first, then inductions).
func (k *Kernel) Registers() []*Register {
	// Linear dedup: kernels reference a handful of distinct register
	// objects, so scanning the result beats a map — this runs per variant
	// in codegen and verification. An 8× unrolled kernel with a rotating
	// pool references a dozen, so the list starts with room for 16.
	out := make([]*Register, 0, 16)
	add := func(r *Register) {
		if r == nil {
			return
		}
		for _, s := range out {
			if s == r {
				return
			}
		}
		out = append(out, r)
	}
	for i := range k.Body {
		for j := range k.Body[i].Operands {
			add(k.Body[i].Operands[j].Reg)
		}
	}
	for i := range k.Inductions {
		add(k.Inductions[i].Reg)
		add(k.Inductions[i].LinkedTo)
	}
	for _, r := range k.ZeroAtEntry {
		add(r)
	}
	return out
}

// InductionFor returns the induction controlling reg, or nil.
func (k *Kernel) InductionFor(reg *Register) *Induction {
	for i := range k.Inductions {
		if k.Inductions[i].Reg == reg {
			return &k.Inductions[i]
		}
	}
	return nil
}

// regCopy pairs a source register with its clone.
type regCopy struct{ src, dst *Register }

// addReg records r in seen on first sight. The scan is linear: kernels
// reference a handful of distinct registers, so it beats a map's hashing
// and growth.
func addReg(seen []regCopy, r *Register) []regCopy {
	if r == nil {
		return seen
	}
	for _, p := range seen {
		if p.src == r {
			return seen
		}
	}
	return append(seen, regCopy{src: r})
}

// cloneOf returns the clone seen recorded for r.
func cloneOf(seen []regCopy, r *Register) *Register {
	for _, p := range seen {
		if p.src == r {
			return p.dst
		}
	}
	return nil
}

// Clone deep-copies the kernel, preserving register identity within the
// copy: operands and inductions that shared a *Register still share the
// corresponding clone. The clones of the distinct registers share one
// allocation, and so do the operands of every instruction (each carved
// with its own capacity, so appending to one never reaches the next). The
// body has room for one more instruction per induction, so the
// insert-inductions pass appends its updates without copying it. The clone
// shares what no pass changes in place: the tag map (see Tag) and each
// instruction's move semantics.
func (k *Kernel) Clone() *Kernel {
	var buf [16]regCopy
	seen := buf[:0]
	nOps := 0
	for i := range k.Body {
		nOps += len(k.Body[i].Operands)
		for j := range k.Body[i].Operands {
			seen = addReg(seen, k.Body[i].Operands[j].Reg)
		}
	}
	for i := range k.Inductions {
		seen = addReg(seen, k.Inductions[i].Reg)
		seen = addReg(seen, k.Inductions[i].LinkedTo)
	}
	for _, r := range k.ZeroAtEntry {
		seen = addReg(seen, r)
	}
	regs := make([]Register, len(seen))
	for i := range seen {
		regs[i] = *seen[i].src
		seen[i].dst = &regs[i]
	}
	nk := &Kernel{
		BaseName:    k.BaseName,
		Name:        k.Name,
		Description: k.Description,
		UnrollRange: k.UnrollRange,
		Unroll:      k.Unroll,
		RandomCount: k.RandomCount,
		RandomSeed:  k.RandomSeed,
		ElementSize: k.ElementSize,
		MaxVariants: k.MaxVariants,
		Branch:      k.Branch,
		CodeAlign:   k.CodeAlign,
		Tags:        k.Tags,
	}
	nk.Body = make([]Instruction, len(k.Body), len(k.Body)+len(k.Inductions))
	ops := make([]Operand, nOps)
	for i, in := range k.Body {
		ni := in
		n := len(in.Operands)
		ni.Operands, ops = ops[:n:n], ops[n:]
		for j, o := range in.Operands {
			no := o
			no.Reg = cloneOf(seen, o.Reg)
			no.ImmChoices = append([]int64(nil), o.ImmChoices...)
			ni.Operands[j] = no
		}
		nk.Body[i] = ni
	}
	nk.Inductions = make([]Induction, len(k.Inductions))
	for i, ind := range k.Inductions {
		ni := ind
		ni.Reg = cloneOf(seen, ind.Reg)
		ni.LinkedTo = cloneOf(seen, ind.LinkedTo)
		ni.IncrementChoices = append([]int64(nil), ind.IncrementChoices...)
		nk.Inductions[i] = ni
	}
	nk.ZeroAtEntry = make([]*Register, len(k.ZeroAtEntry))
	for i, r := range k.ZeroAtEntry {
		nk.ZeroAtEntry[i] = cloneOf(seen, r)
	}
	return nk
}

// Validate checks spec-level invariants before the pipeline runs.
func (k *Kernel) Validate() error {
	if k.BaseName == "" {
		return fmt.Errorf("ir: kernel without a name")
	}
	if len(k.Body) == 0 {
		return fmt.Errorf("ir: kernel %q has no instructions", k.BaseName)
	}
	if err := k.UnrollRange.Validate("unroll", 64); err != nil {
		return fmt.Errorf("kernel %q: %w", k.BaseName, err)
	}
	for i, in := range k.Body {
		if in.Op == "" && in.Move == nil {
			return fmt.Errorf("ir: kernel %q instruction %d has neither operation nor move semantics", k.BaseName, i)
		}
		if in.Op != "" {
			op, err := isa.ParseOp(in.Op)
			if err != nil {
				return fmt.Errorf("ir: kernel %q instruction %d: %w", k.BaseName, i, err)
			}
			k.Body[i].op = op
		}
		if in.Move != nil {
			switch in.Move.Bytes {
			case 4, 8, 16:
			default:
				return fmt.Errorf("ir: kernel %q instruction %d: move semantics of %d bytes unsupported", k.BaseName, i, in.Move.Bytes)
			}
		}
		if len(in.Operands) == 0 {
			return fmt.Errorf("ir: kernel %q instruction %d has no operands", k.BaseName, i)
		}
		if in.Repeat == (Range{}) {
			// Programmatically-built kernels may leave Repeat zero.
			k.Body[i].Repeat = Range{Min: 1, Max: 1}
		} else if err := in.Repeat.Validate("repeat", 64); err != nil {
			return fmt.Errorf("kernel %q instruction %d: %w", k.BaseName, i, err)
		}
	}
	lastCount := 0
	for i, ind := range k.Inductions {
		if ind.Reg == nil {
			return fmt.Errorf("ir: kernel %q induction %d has no register", k.BaseName, i)
		}
		if ind.Last {
			lastCount++
		}
		if ind.Increment == 0 && len(ind.IncrementChoices) == 0 && !ind.NotAffectedUnroll {
			return fmt.Errorf("ir: kernel %q induction %d (%s) has zero increment", k.BaseName, i, ind.Reg)
		}
	}
	if lastCount > 1 {
		return fmt.Errorf("ir: kernel %q has %d last_induction markers, want at most 1", k.BaseName, lastCount)
	}
	if k.Branch.Label == "" || k.Branch.Test == "" {
		return fmt.Errorf("ir: kernel %q missing branch information", k.BaseName)
	}
	op, err := isa.ParseOp(k.Branch.Test)
	if err != nil || !op.IsCondBranch() {
		return fmt.Errorf("ir: kernel %q branch test %q is not a conditional jump", k.BaseName, k.Branch.Test)
	}
	k.Branch.op = op
	if k.ElementSize == 0 {
		k.ElementSize = 4
	}
	return nil
}
