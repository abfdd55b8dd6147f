package passes_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/ir"
	"microtools/internal/isa"
)

// refLower is the lowering codegen.Lower replaced, kept as its oracle: it
// builds the label, resolves the branch through Program.Resolve and
// validates, where Lower sets the one branch target itself.
func refLower(k *ir.Kernel) (*isa.Program, error) {
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
	for _, s := range [...]string{name, k.Branch.Label} {
		if strings.ContainsAny(s, " \t\n\r#:,") || s[0] == '$' || s[0] == '%' {
			return nil, fmt.Errorf("codegen: kernel %q: symbol %q would not survive the assembly round trip", name, s)
		}
	}
	if name[0] == '.' {
		return nil, fmt.Errorf("codegen: kernel %q: symbol %q would not survive the assembly round trip", name, name)
	}
	if k.Branch.Label == name {
		return nil, fmt.Errorf("codegen: kernel %q: label %q would not survive the assembly round trip", name, name)
	}
	p := &isa.Program{Name: name}
	for _, r := range k.ZeroAtEntry {
		reg, err := r.Resolved()
		if err != nil {
			return nil, fmt.Errorf("codegen: prologue: %w", err)
		}
		p.Insts = append(p.Insts, isa.Inst{Op: isa.XOR, A: isa.NewReg(reg), B: isa.NewReg(reg), NOps: 2})
	}
	p.Labels = append(p.Labels, isa.Label{Name: k.Branch.Label, Index: len(p.Insts)})
	for i := range k.Body {
		inst, err := refLowerInstruction(&k.Body[i])
		if err != nil {
			return nil, err
		}
		p.Insts = append(p.Insts, inst)
	}
	testOp, err := k.Branch.Opcode()
	if err != nil {
		return nil, fmt.Errorf("codegen: branch: %w", err)
	}
	p.Insts = append(p.Insts, isa.Inst{Op: testOp, A: isa.NewLabel(0), NOps: 1}, isa.Inst{Op: isa.RET})
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func refLowerInstruction(in *ir.Instruction) (isa.Inst, error) {
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
		return inst, fmt.Errorf("codegen: %s: branch inside a kernel body", in.Op)
	}
	if len(in.Operands) > 3 {
		return inst, fmt.Errorf("codegen: %s: too many operands (%d)", in.Op, len(in.Operands))
	}
	for i, o := range in.Operands {
		var lo isa.Operand
		switch o.Kind {
		case ir.RegOperand, ir.MemOperand:
			r, err := o.Reg.Resolved()
			if err != nil {
				return inst, fmt.Errorf("codegen: %s: %w", in.Op, err)
			}
			lo = isa.NewReg(r)
			if o.Kind == ir.MemOperand {
				lo = isa.NewMem(isa.MemRef{Base: r, Index: isa.NoReg, Disp: o.Offset})
			}
		case ir.ImmOperand:
			if len(o.ImmChoices) > 0 {
				return inst, fmt.Errorf("codegen: %s: codegen: unexpanded immediate choices %v", in.Op, o.ImmChoices)
			}
			lo = isa.NewImm(o.Imm)
		default:
			return inst, fmt.Errorf("codegen: %s: codegen: unknown operand kind %d", in.Op, o.Kind)
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

// refDecoded is the decode Program.Decoded replaced: µops decoded into one
// flat array carved per instruction through an offsets table, and the
// static facts and initial predictions in two more tables.
type refDecoded struct {
	uops     [][]isa.Uop
	offs     []int
	info     []isa.InstInfo
	predInit []uint8
}

func refDecode(p *isa.Program, a *isa.Arch) (*refDecoded, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	flat := make([]isa.Uop, 0, 2*len(p.Insts))
	offs := make([]int, len(p.Insts)+1)
	for i := range p.Insts {
		var err error
		flat, err = a.Decode(&p.Insts[i], flat)
		if err != nil {
			return nil, fmt.Errorf("isa: decode %s at %d: %w", p.Insts[i].Op, i, err)
		}
		offs[i+1] = len(flat)
	}
	d := &refDecoded{
		uops:     make([][]isa.Uop, len(p.Insts)),
		offs:     offs,
		info:     make([]isa.InstInfo, len(p.Insts)),
		predInit: make([]uint8, len(p.Insts)),
	}
	for i := range p.Insts {
		d.uops[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
		in := &p.Insts[i]
		d.info[i] = refInfoOf(in)
		if in.Op.IsBranch() && in.Target >= 0 && in.Target <= i {
			d.predInit[i] = 2
		} else {
			d.predInit[i] = 1
		}
	}
	return d, nil
}

// refInfoOf is the per-instruction static facts of the replaced decode.
func refInfoOf(in *isa.Inst) isa.InstInfo {
	info := isa.InstInfo{
		AddrRegs:     [2]isa.Reg{isa.NoReg, isa.NoReg},
		DstReg:       isa.NoReg,
		StoreDataReg: isa.NoReg,
		ReadsFlags:   in.Op.ReadsFlags(),
		WritesFlags:  in.Op.WritesFlags(),
		Branch:       in.Op.IsBranch(),
		CondBranch:   in.Op.IsCondBranch(),
	}
	if mem, st, ok := in.MemOperand(); ok {
		info.Mem = mem
		info.HasMem = true
		info.Store = st
		info.Load = !st
		info.MemWidth = in.Op.MemWidth()
		info.AddrRegs[0] = mem.Base
		info.AddrRegs[1] = mem.Index
	}
	for i := 0; i < in.NOps; i++ {
		o := in.Operand(i)
		if o.Kind != isa.RegOperand {
			continue
		}
		if i == in.NOps-1 && in.Op.IsMove() {
			continue
		}
		info.SrcRegs[info.NSrc] = o.Reg
		info.NSrc++
	}
	if in.NOps > 0 {
		if d := in.Dst(); d.Kind == isa.RegOperand {
			info.DstReg = d.Reg
		}
	}
	if in.A.Kind == isa.RegOperand {
		info.StoreDataReg = in.A.Reg
	}
	switch {
	case info.Branch:
		info.Class = isa.ClassBranch
	case in.Op.IsSSE() && !in.Op.IsMove():
		info.Class = isa.ClassSSE
	case !in.Op.IsSSE() && in.Op != isa.RET && in.Op != isa.NOP:
		info.Class = isa.ClassALU
	}
	return info
}

// checkLowerAgainstReference holds one emitted program to the reference
// lowering of its kernel and its decodes to the reference decode: the same
// instructions, labels and canonical print, and per instruction the same
// static facts, µops and initial prediction on both microarchitectures.
func checkLowerAgainstReference(t *testing.T, p *codegen.Program) {
	t.Helper()
	want, err := refLower(p.Kernel)
	if err != nil {
		t.Fatalf("%s: reference lowering fails: %v", p.Name, err)
	}
	got := p.Parsed
	if got.Name != want.Name || !reflect.DeepEqual(got.Insts, want.Insts) || !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: lowered program differs from the reference:\n%+v %+v\nwant\n%+v %+v",
			p.Name, got.Insts, got.Labels, want.Insts, want.Labels)
	}
	if g, w := got.Print(), want.Print(); g != w {
		t.Fatalf("%s: print differs:\n%s\nwant\n%s", p.Name, g, w)
	}
	for _, arch := range []*isa.Arch{isa.Nehalem(), isa.SandyBridge()} {
		dp, err := got.Decoded(arch)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.Name, arch.Name, err)
		}
		ref, err := refDecode(want, arch)
		if err != nil {
			t.Fatalf("%s/%s: reference decode: %v", p.Name, arch.Name, err)
		}
		if len(dp.Info) != len(ref.info) {
			t.Fatalf("%s/%s: %d infos, reference %d", p.Name, arch.Name, len(dp.Info), len(ref.info))
		}
		for i := range dp.Info {
			info := dp.Info[i]
			if int(info.UopOff) != ref.offs[i] || int(info.NUops) != len(ref.uops[i]) || info.PredInit != ref.predInit[i] {
				t.Fatalf("%s/%s: inst %d: µops at %d+%d, prediction %d; reference %d+%d, %d", p.Name, arch.Name, i,
					info.UopOff, info.NUops, info.PredInit, ref.offs[i], len(ref.uops[i]), ref.predInit[i])
			}
			info.UopOff, info.NUops, info.PredInit = 0, 0, 0
			if info != ref.info[i] {
				t.Fatalf("%s/%s: inst %d: info %+v, reference %+v", p.Name, arch.Name, i, info, ref.info[i])
			}
			if !reflect.DeepEqual(dp.Uops(i), ref.uops[i]) {
				t.Fatalf("%s/%s: inst %d: µops %+v, reference %+v", p.Name, arch.Name, i, dp.Uops(i), ref.uops[i])
			}
		}
	}
}

// TestLowerMatchesReference holds every variant of every shipped spec to the
// reference lowering and decode.
func TestLowerMatchesReference(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	n := 0
	for _, spec := range specs {
		progs, err := core.GenerateFile(context.Background(), spec, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for i := range progs {
			checkLowerAgainstReference(t, &progs[i])
		}
		n += len(progs)
	}
	t.Logf("%d variants of %d specs match the reference", n, len(specs))
}

// renderedSpecsDigest is the SHA-256 of the rendered assembly and C text
// of every variant of every shipped spec, in spec and emit order. A change
// that moves it changes MicroCreator's output files.
const renderedSpecsDigest = "8f1257e0982f21a3cac15318b3d741cd675912495b5a6e13d993694b31e99379"

// TestRenderedSpecsPinned pins the .s and .c bytes MicroCreator writes for
// the shipped specs.
func TestRenderedSpecsPinned(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	h := sha256.New()
	for _, spec := range specs {
		data, err := os.ReadFile(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := core.Generate(context.Background(), strings.NewReader(string(data)), core.GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for i := range progs {
			s, err := progs[i].Assembly()
			if err != nil {
				t.Fatalf("%s: %v", progs[i].Name, err)
			}
			c, err := progs[i].CSource()
			if err != nil {
				t.Fatalf("%s: %v", progs[i].Name, err)
			}
			fmt.Fprintf(h, "%s\n%s\n%s\n", progs[i].Name, s, c)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != renderedSpecsDigest {
		t.Errorf("rendered specs digest %s, pinned %s", got, renderedSpecsDigest)
	}
}
