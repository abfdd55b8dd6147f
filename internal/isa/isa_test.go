package isa

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseReg(t *testing.T) {
	cases := []struct {
		in   string
		want Reg
	}{
		{"%rax", RAX}, {"rax", RAX}, {"%eax", RAX}, {"%RSI", RSI},
		{"%rdi", RDI}, {"%r8", R8}, {"%r8d", R8}, {"%r11", R11},
		{"%xmm0", XMM0}, {"%xmm15", XMM15}, {"xmm7", XMM7}, {"%rip", RIP},
	}
	for _, c := range cases {
		got, err := ParseReg(c.in)
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseReg(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseReg("%zmm0"); err == nil {
		t.Error("ParseReg of zmm0 should fail")
	}
	if _, err := ParseReg("%xmm16"); err == nil {
		t.Error("ParseReg of xmm16 should fail")
	}
}

func TestRegStringRoundTrip(t *testing.T) {
	for r := RAX; r <= XMM15; r++ {
		got, err := ParseReg(r.String())
		if err != nil {
			t.Fatalf("round trip %v: %v", r, err)
		}
		if got != r {
			t.Errorf("round trip %v -> %v", r, got)
		}
	}
}

func TestIs32BitName(t *testing.T) {
	if !Is32BitName("%eax") || !Is32BitName("r8d") {
		t.Error("expected 32-bit names recognized")
	}
	if Is32BitName("%rax") || Is32BitName("%xmm0") {
		t.Error("64-bit / xmm names must not be 32-bit")
	}
}

func TestParseOp(t *testing.T) {
	cases := []struct {
		in   string
		want Op
	}{
		{"movaps", MOVAPS}, {"movss", MOVSS}, {"movsd", MOVSD},
		{"addq", ADD}, {"subq", SUB}, {"cmpl", CMP}, {"movq", MOV},
		{"addsd", ADDSD}, {"mulsd", MULSD}, {"jge", JGE}, {"jg", JG},
		{"ret", RET}, {"leaq", LEA}, {"sall", SHL}, {"imulq", IMUL},
		{"incq", INC}, {"decl", DEC}, {"testq", TEST},
		// sal is shl under its arithmetic name, with every size suffix.
		{"sal", SHL}, {"salb", SHL}, {"salw", SHL}, {"sall", SHL}, {"salq", SHL},
		{"shlb", SHL}, {"shlw", SHL}, {"shll", SHL}, {"shlq", SHL},
	}
	for _, c := range cases {
		got, err := ParseOp(c.in)
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseOp(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseOp("vfmadd231pd"); err == nil {
		t.Error("AVX mnemonics are outside the subset and must fail")
	}
}

// TestOpStringMatchesMap compares the String table with the map lookup and
// "op(N)" format it replaced, for every Op value.
func TestOpStringMatchesMap(t *testing.T) {
	old := map[Op]string{
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
	for i := 0; i < 256; i++ {
		op := Op(i)
		want, ok := old[op]
		if !ok {
			want = fmt.Sprintf("op(%d)", i)
		}
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", i, got, want)
		}
		if ok {
			if back, err := ParseOp(want); err != nil || back != op {
				t.Errorf("ParseOp(%q) = %v, %v; want %v", want, back, err, op)
			}
		}
	}
}

func TestOpProperties(t *testing.T) {
	if MOVAPS.MemWidth() != 16 || MOVSS.MemWidth() != 4 || MOVSD.MemWidth() != 8 {
		t.Error("bad SSE move widths")
	}
	if !MOVAPS.RequiresAlignment() || MOVUPS.RequiresAlignment() || MOVSS.RequiresAlignment() {
		t.Error("bad alignment requirements")
	}
	if !JGE.IsCondBranch() || JMP.IsCondBranch() || !JMP.IsBranch() {
		t.Error("bad branch classification")
	}
	if !SUB.WritesFlags() || MOV.WritesFlags() || !JG.ReadsFlags() {
		t.Error("bad flags classification")
	}
	if !MOVAPS.IsSSE() || ADD.IsSSE() {
		t.Error("bad SSE classification")
	}
}

func TestMemRefEffectiveAddress(t *testing.T) {
	var rf RegFile
	rf.Set(RDX, 0x1000)
	rf.Set(RAX, 3)
	m := MemRef{Base: RDX, Index: RAX, Scale: 8, Disp: 16}
	if got := m.EffectiveAddress(&rf); got != 0x1000+24+16 {
		t.Errorf("EA = %#x, want %#x", got, 0x1000+24+16)
	}
	m2 := MemRef{Base: RSI, Index: NoReg, Disp: -8}
	rf.Set(RSI, 100)
	if got := m2.EffectiveAddress(&rf); got != 92 {
		t.Errorf("EA = %d, want 92", got)
	}
}

func TestMemRefString(t *testing.T) {
	m := MemRef{Base: RDX, Index: RAX, Scale: 8, Disp: 16}
	if got := m.String(); got != "16(%rdx,%rax,8)" {
		t.Errorf("String = %q", got)
	}
	m2 := MemRef{Base: RSI, Index: NoReg}
	if got := m2.String(); got != "(%rsi)" {
		t.Errorf("String = %q", got)
	}
}

// buildLoop builds the paper's Fig. 8 kernel: three movaps (two stores, one
// load), induction updates, and a jge loop.
func buildLoop(t *testing.T) *Program {
	t.Helper()
	p := &Program{
		Name: "kernel",
		Insts: []Inst{
			{Op: MOVAPS, A: NewReg(XMM0), B: NewMem(MemRef{Base: RSI, Index: NoReg, Disp: 0}), NOps: 2},
			{Op: MOVAPS, A: NewMem(MemRef{Base: RSI, Index: NoReg, Disp: 16}), B: NewReg(XMM1), NOps: 2},
			{Op: MOVAPS, A: NewReg(XMM2), B: NewMem(MemRef{Base: RSI, Index: NoReg, Disp: 32}), NOps: 2},
			{Op: ADD, A: NewImm(48), B: NewReg(RSI), NOps: 2},
			{Op: SUB, A: NewImm(12), B: NewReg(RDI), NOps: 2},
			{Op: JGE, A: NewLabel(".L6"), NOps: 1},
			{Op: RET},
		},
		Labels: map[string]int{".L6": 0},
	}
	if err := p.Resolve(); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p
}

func TestProgramLoadStoreClassification(t *testing.T) {
	p := buildLoop(t)
	if !p.Insts[0].IsStore() || p.Insts[0].IsLoad() {
		t.Error("inst 0 must be a store")
	}
	if !p.Insts[1].IsLoad() || p.Insts[1].IsStore() {
		t.Error("inst 1 must be a load")
	}
	st := p.StaticStats()
	if st.Loads != 1 || st.Stores != 2 || st.Branches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProgramResolveErrors(t *testing.T) {
	p := &Program{Name: "bad", Insts: []Inst{{Op: JGE, A: NewLabel(".nope"), NOps: 1}}, Labels: map[string]int{}}
	if err := p.Resolve(); err == nil {
		t.Error("Resolve with undefined label must fail")
	}
}

func TestProgramValidateRejectsGPRLoad(t *testing.T) {
	p := &Program{
		Name: "bad",
		Insts: []Inst{
			{Op: MOV, A: NewMem(MemRef{Base: RSI, Index: NoReg}), B: NewReg(RAX), NOps: 2},
			{Op: RET},
		},
		Labels: map[string]int{},
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Error("Validate must reject GPR loads from memory")
	}
}

// TestExecLoopSemantics runs the Fig. 8 loop functionally and checks it
// executes the expected number of iterations.
func TestExecLoopSemantics(t *testing.T) {
	p := buildLoop(t)
	var rf RegFile
	rf.Set(RDI, 48) // 48 elements, 12 consumed per unrolled iteration
	rf.Set(RSI, 0x10000)
	pc := 0
	iters := 0
	for pc >= 0 && iters < 10000 {
		inst := &p.Insts[pc]
		next, taken, err := Exec(inst, pc, &rf)
		if err != nil {
			t.Fatalf("Exec %s: %v", inst, err)
		}
		if taken && inst.Op == JGE {
			iters++
		}
		pc = next
	}
	// rdi: 48 -> 36 -> 24 -> 12 -> 0 (jge taken at >=0) -> -12 exit.
	// Taken branches: at 36,24,12,0 => 4; plus the fall-through iteration = 5 total body runs.
	if iters != 4 {
		t.Errorf("taken iterations = %d, want 4", iters)
	}
	if got := rf.Get(RSI); got != 0x10000+5*48 {
		t.Errorf("rsi = %#x, want %#x", got, 0x10000+5*48)
	}
}

// TestExecMatmulInner checks the functional semantics of the paper's Fig. 2
// inner loop (cmpl %eax, %edi ; jg).
func TestExecMatmulInner(t *testing.T) {
	n := uint64(7)
	p := &Program{
		Name: "mm",
		Insts: []Inst{
			{Op: MOVSD, A: NewMem(MemRef{Base: RDX, Index: RAX, Scale: 8}), B: NewReg(XMM0), NOps: 2},
			{Op: ADD, A: NewImm(1), B: NewReg(RAX), NOps: 2},
			{Op: MULSD, A: NewMem(MemRef{Base: R8, Index: NoReg}), B: NewReg(XMM0), NOps: 2},
			{Op: ADD, A: NewReg(R11), B: NewReg(R8), NOps: 2},
			{Op: CMP, A: NewReg(RAX), B: NewReg(RDI), NOps: 2},
			{Op: ADDSD, A: NewReg(XMM0), B: NewReg(XMM1), NOps: 2},
			{Op: MOVSD, A: NewReg(XMM1), B: NewMem(MemRef{Base: R10, Index: R9, Scale: 1}), NOps: 2},
			{Op: JG, A: NewLabel(".L3"), NOps: 1},
			{Op: RET},
		},
		Labels: map[string]int{".L3": 0},
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var rf RegFile
	rf.Set(RDI, n)
	rf.Set(RDX, 0x2000)
	rf.Set(R8, 0x4000)
	rf.Set(R11, 8*n)
	body := 0
	pc := 0
	for pc >= 0 {
		inst := &p.Insts[pc]
		if pc == 0 {
			body++
		}
		var err error
		pc, _, err = Exec(inst, pc, &rf)
		if err != nil {
			t.Fatalf("Exec: %v", err)
		}
		if body > 1000 {
			t.Fatal("runaway loop")
		}
	}
	if body != int(n) {
		t.Errorf("body executed %d times, want %d", body, n)
	}
	if rf.Get(RAX) != n {
		t.Errorf("rax = %d, want %d", rf.Get(RAX), n)
	}
}

func TestExecLEAAndIMul(t *testing.T) {
	var rf RegFile
	rf.Set(RBX, 10)
	lea := Inst{Op: LEA, A: NewMem(MemRef{Base: RBX, Index: RBX, Scale: 4, Disp: 2}), B: NewReg(RCX), NOps: 2}
	if _, _, err := Exec(&lea, 0, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Get(RCX) != 52 {
		t.Errorf("lea result = %d, want 52", rf.Get(RCX))
	}
	imul3 := Inst{Op: IMUL, A: NewImm(3), B: NewReg(RBX), C: NewReg(RDX), NOps: 3}
	if _, _, err := Exec(&imul3, 0, &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Get(RDX) != 30 {
		t.Errorf("imul3 result = %d, want 30", rf.Get(RDX))
	}
}

func TestCondTakenWithoutFlagsErrors(t *testing.T) {
	var rf RegFile
	if _, err := rf.CondTaken(JGE); err == nil {
		t.Error("CondTaken without prior flags must error")
	}
}

// Property: for any pair of int32 values, CMP + each conditional branch
// matches the Go comparison semantics.
func TestPropertyCmpBranches(t *testing.T) {
	f := func(a, b int32) bool {
		var rf RegFile
		rf.Set(RAX, uint64(int64(a)))
		rf.Set(RDI, uint64(int64(b)))
		cmp := Inst{Op: CMP, A: NewReg(RAX), B: NewReg(RDI), NOps: 2}
		if _, _, err := Exec(&cmp, 0, &rf); err != nil {
			return false
		}
		checks := []struct {
			op   Op
			want bool
		}{
			{JE, b == a}, {JNE, b != a}, {JL, b < a},
			{JLE, b <= a}, {JG, b > a}, {JGE, b >= a},
		}
		for _, c := range checks {
			got, err := rf.CondTaken(c.op)
			if err != nil || got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding any supported instruction yields between 1 and 2 µops,
// loads use load ports, stores use store ports.
func TestDecodeUopShapes(t *testing.T) {
	for _, arch := range []*Arch{Nehalem(), SandyBridge()} {
		p := buildLoop(t)
		for i := range p.Insts {
			uops, err := arch.Decode(&p.Insts[i], nil)
			if err != nil {
				t.Fatalf("%s: Decode(%s): %v", arch.Name, p.Insts[i].String(), err)
			}
			if len(uops) == 0 || len(uops) > 2 {
				t.Errorf("%s: %s decoded to %d uops", arch.Name, p.Insts[i].String(), len(uops))
			}
			if p.Insts[i].IsLoad() && uops[0].Role != RoleLoad {
				t.Errorf("%s: load instruction first uop role = %v", arch.Name, uops[0].Role)
			}
			if p.Insts[i].IsStore() {
				if uops[0].Role != RoleStoreAddr || uops[1].Role != RoleStoreData {
					t.Errorf("%s: store decomposition wrong: %+v", arch.Name, uops)
				}
			}
		}
	}
}

func TestSandyBridgeHasTwoLoadPorts(t *testing.T) {
	nhm, snb := Nehalem(), SandyBridge()
	load := Inst{Op: MOVAPS, A: NewMem(MemRef{Base: RSI, Index: NoReg}), B: NewReg(XMM0), NOps: 2}
	un, err := nhm.Decode(&load, nil)
	if err != nil {
		t.Fatal(err)
	}
	us, err := snb.Decode(&load, nil)
	if err != nil {
		t.Fatal(err)
	}
	if un[0].Ports.Count() != 1 {
		t.Errorf("nehalem load ports = %d, want 1", un[0].Ports.Count())
	}
	if us[0].Ports.Count() != 2 {
		t.Errorf("sandybridge load ports = %d, want 2", us[0].Ports.Count())
	}
}

func TestDecodeLoadOpFusion(t *testing.T) {
	arch := Nehalem()
	mulLoad := Inst{Op: MULSD, A: NewMem(MemRef{Base: R8, Index: NoReg}), B: NewReg(XMM0), NOps: 2}
	uops, err := arch.Decode(&mulLoad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(uops) != 2 || uops[0].Role != RoleLoad || uops[1].Role != RoleCompute || !uops[1].Fused {
		t.Errorf("mulsd (mem) decomposition wrong: %+v", uops)
	}
	if uops[1].Lat != arch.FPMulLatSD {
		t.Errorf("mulsd latency = %d, want %d", uops[1].Lat, arch.FPMulLatSD)
	}
}

func TestInstString(t *testing.T) {
	in := Inst{Op: MOVAPS, A: NewMem(MemRef{Base: RSI, Index: NoReg, Disp: 16}), B: NewReg(XMM1), NOps: 2}
	if got := in.String(); got != "movaps 16(%rsi), %xmm1" {
		t.Errorf("String = %q", got)
	}
}
