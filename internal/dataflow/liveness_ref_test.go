package dataflow_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"microtools/internal/core"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/machine"
)

// refLiveness is the liveness-only analysis KernelLiveness replaced, kept
// as its oracle: a scan of its own (innermost loop, read and write sets
// from the decode's InstInfo), the backward fixpoint over the control-flow
// graph, and the dead-write filter that drops memory-accessing writes.
func refLiveness(p *isa.Program, arch *isa.Arch) ([]dataflow.DeadWrite, []int, error) {
	dp, err := p.Decoded(arch)
	if err != nil {
		return nil, nil, err
	}
	n := len(p.Insts)
	reads := make([]uint64, n)
	writes := make([]uint64, n)
	for i := range p.Insts {
		info := &dp.Info[i]
		var rd, wr uint64
		for _, r := range info.AddrRegs {
			if r != isa.NoReg {
				rd |= 1 << r
			}
		}
		for _, r := range info.SrcRegs[:info.NSrc] {
			rd |= 1 << r
		}
		if info.ReadsFlags {
			rd |= 1 << isa.RFLAGS
		}
		if info.DstReg != isa.NoReg {
			wr |= 1 << info.DstReg
		}
		if info.WritesFlags {
			wr |= 1 << isa.RFLAGS
		}
		reads[i], writes[i] = rd, wr
	}
	exitLive := uint64(1<<isa.RAX | 1<<isa.RSP | 1<<isa.RBP)
	liveIn := make([]uint64, n)
	liveOut := make([]uint64, n)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in := &p.Insts[i]
			var out uint64
			var succs []int
			switch {
			case in.Op == isa.RET:
				out = exitLive
			case in.Op.IsBranch() && in.Target >= 0:
				succs = append(succs, in.Target)
				if in.Op.IsCondBranch() && i+1 < n {
					succs = append(succs, i+1)
				}
			case i+1 < n:
				succs = append(succs, i+1)
			}
			for _, s := range succs {
				out |= liveIn[s]
			}
			li := reads[i] | out&^writes[i]
			if out != liveOut[i] || li != liveIn[i] {
				liveOut[i], liveIn[i] = out, li
				changed = true
			}
		}
	}
	var dead []dataflow.DeadWrite
	var self []int
	for i := range p.Insts {
		in := &p.Insts[i]
		info := &dp.Info[i]
		if d := info.DstReg; d != isa.NoReg && liveOut[i]&(1<<d) == 0 && !info.HasMem {
			dead = append(dead, dataflow.DeadWrite{Index: i, Inst: in.String(), Resource: d.String()})
		}
		if in.Op.IsMove() && in.NOps == 2 &&
			in.A.Kind == isa.RegOperand && in.B.Kind == isa.RegOperand && in.A.Reg == in.B.Reg {
			self = append(self, i)
		}
	}
	return dead, self, nil
}

// checkLiveness compares KernelLiveness with the reference analysis.
func checkLiveness(t *testing.T, name string, p *isa.Program, arch *isa.Arch) {
	t.Helper()
	live, err := dataflow.KernelLiveness(p, arch)
	dead, self, refErr := refLiveness(p, arch)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s/%s: KernelLiveness error %v, reference error %v", name, arch.Name, err, refErr)
	}
	if !reflect.DeepEqual(live.DeadWrites, dead) || !reflect.DeepEqual(live.SelfMoves, self) {
		t.Errorf("%s/%s: liveness %+v/%v, reference %+v/%v", name, arch.Name,
			live.DeadWrites, live.SelfMoves, dead, self)
	}
}

// specPrograms lowers every variant of every shipped spec.
func specPrograms(t *testing.T) map[string]*isa.Program {
	t.Helper()
	paths, err := filepath.Glob("../../specs/*.xml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	progs := map[string]*isa.Program{}
	for _, path := range paths {
		gen, err := core.GenerateFile(context.Background(), path, core.GenerateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range gen {
			p, err := gen[i].Lowered()
			if err != nil {
				t.Fatalf("%s: %s: %v", path, gen[i].Name, err)
			}
			progs[filepath.Base(path)+"/"+gen[i].Name] = p
		}
	}
	return progs
}

// TestLivenessMatchesReference runs the memoized-scan liveness and the
// reference analysis over every variant of every shipped spec, plus kernels
// with dead writes, self moves and memory-accessing dead destinations, on
// both machine models the studies use.
func TestLivenessMatchesReference(t *testing.T) {
	progs := specPrograms(t)
	progs["dead"] = parse(t, `
k:
.L0:
	mov $7, %rdx
	movaps (%rsi), %xmm3
	movaps %xmm1, %xmm1
	mov %rcx, %rcx
	sub $1, %rdi
	jge .L0
	ret
`)
	progs["chain"] = parse(t, chainKernel)
	for _, name := range []string{"nehalem-dual", "sandybridge"} {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for pname, p := range progs {
			checkLiveness(t, pname, p, m.Arch)
		}
	}
	live, err := dataflow.KernelLiveness(progs["dead"], isa.Nehalem())
	if err != nil || len(live.DeadWrites) == 0 || len(live.SelfMoves) != 2 {
		t.Fatalf("seeded defects not found: %+v, %v", live, err)
	}
}
