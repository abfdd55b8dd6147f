package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microtools/internal/codegen"
	"microtools/internal/obs"
	"microtools/internal/passes"
)

const smallSpec = `
<kernel name="core_k">
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
  </instruction>
  <unrolling><min>1</min><max>2</max></unrolling>
  <induction><register><name>r1</name></register><increment>4</increment><offset>4</offset></induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <induction><register><phyName>%eax</phyName></register><increment>1</increment><not_affected_unroll/></induction>
  <branch_information><label>.L0</label><test>jge</test></branch_information>
</kernel>`

func TestGenerateString(t *testing.T) {
	progs, err := GenerateString(context.Background(), smallSpec, GenerateOptions{EmitC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("generated %d programs, want 2", len(progs))
	}
	for _, p := range progs {
		if !p.EmitAssembly || !p.EmitC {
			t.Errorf("%s: missing output format", p.Name)
			continue
		}
		if asmText, err := p.Assembly(); err != nil || asmText == "" {
			t.Errorf("%s: assembly render: %q, %v", p.Name, asmText, err)
		}
		if cSrc, err := p.CSource(); err != nil || cSrc == "" {
			t.Errorf("%s: C render: %q, %v", p.Name, cSrc, err)
		}
	}
}

func TestGenerateCustomize(t *testing.T) {
	var sawPasses int
	_, err := GenerateString(context.Background(), smallSpec, GenerateOptions{
		Customize: func(m *passes.Manager) error {
			sawPasses = len(m.Passes())
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawPasses != 20 {
		t.Errorf("customize saw %d passes, want 20", sawPasses)
	}
}

func TestGenerateUnknownPlugin(t *testing.T) {
	if _, err := GenerateString(context.Background(), smallSpec, GenerateOptions{Plugins: []string{"ghost"}}); err == nil {
		t.Error("unknown plugin accepted")
	}
}

func TestGenerateFileAndWritePrograms(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	if err := os.WriteFile(specPath, []byte(smallSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	progs, err := GenerateFile(context.Background(), specPath, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "gen")
	paths, err := WritePrograms(progs, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(progs) {
		t.Errorf("wrote %d files for %d programs", len(paths), len(progs))
	}
	// Written files reload through the launcher input path.
	prog, err := LoadKernelFile(paths[0], "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(prog.Name, "core_k") {
		t.Errorf("reloaded name = %q", prog.Name)
	}
}

func TestLoadKernelFunctionSelection(t *testing.T) {
	src := `
.globl f1
.globl f2
f1:
	add $1, %rax
	ret
f2:
	sub $1, %rax
	ret`
	if _, err := LoadKernel(src, ""); err == nil {
		t.Error("ambiguous input accepted without a function name")
	}
	p, err := LoadKernel(src, "f2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "f2" {
		t.Errorf("selected %q", p.Name)
	}
	if _, err := LoadKernel(src, "f3"); err == nil {
		t.Error("missing function accepted")
	}
}

// TestLoadKernelFromCSource: the launcher accepts MicroCreator's C output
// (§4.1), extracting the kernel from its inline-assembly block.
func TestLoadKernelFromCSource(t *testing.T) {
	progs, err := GenerateString(context.Background(), smallSpec, GenerateOptions{EmitC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		asmText, err := p.Assembly()
		if err != nil {
			t.Fatal(err)
		}
		cSrc, err := p.CSource()
		if err != nil {
			t.Fatal(err)
		}
		fromAsm, err := LoadKernel(asmText, "")
		if err != nil {
			t.Fatal(err)
		}
		fromC, err := LoadKernel(cSrc, "")
		if err != nil {
			t.Fatalf("%s: C input rejected: %v\n%s", p.Name, err, cSrc)
		}
		if fromC.Name != fromAsm.Name || len(fromC.Insts) != len(fromAsm.Insts) {
			t.Errorf("%s: C and assembly inputs diverge (%d vs %d insts)",
				p.Name, len(fromC.Insts), len(fromAsm.Insts))
		}
		for i := range fromAsm.Insts {
			if fromAsm.Insts[i].String() != fromC.Insts[i].String() {
				t.Errorf("%s inst %d: %q != %q", p.Name, i,
					fromC.Insts[i].String(), fromAsm.Insts[i].String())
			}
		}
	}
}

// TestIndexCode: the __asm__ block is found past comments, literals and
// '#' lines that mention it.
func TestIndexCode(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want int
	}{
		{`__asm__("x");`, 0},
		{`/* __asm__( */ __asm__(`, 15},
		{"// __asm__(\n__asm__(", 12},
		{`"__asm__(" '"' __asm__(`, 15},
		{"# __asm__(\n  # __asm__(\n", -1},
		{"x # __asm__(", 4},
		{`/*/ __asm__( */`, -1},
		{`/* __asm__(`, -1},
		{`"\" __asm__(`, -1},
	} {
		if got := indexCode(tc.src, "__asm__("); got != tc.want {
			t.Errorf("indexCode(%q) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestExtractInlineAsmErrors(t *testing.T) {
	if _, err := LoadKernel("/* Generated by MicroCreator */ int f(void);", ""); err == nil {
		t.Error("C without __asm__ accepted")
	}
	if _, err := LoadKernel(`__asm__("unterminated`, ""); err == nil {
		t.Error("unterminated block accepted")
	}
}

// TestGenerateSpanCountsStreamedPrograms: the "generate" span of a
// streamed run counts the programs the sink received.
func TestGenerateSpanCountsStreamedPrograms(t *testing.T) {
	f, err := os.Open("../../specs/stencil3.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := obs.New()
	n, err := GenerateStream(context.Background(), f, GenerateOptions{Tracer: tr},
		func(codegen.Program) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("streamed %d programs (%v), want 2", n, err)
	}
	root, err := tr.Find("generate")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range root.Attrs {
		if a.Key == "programs" {
			if a.Value.Int != 2 {
				t.Errorf("generate span programs = %d, want 2", a.Value.Int)
			}
			return
		}
	}
	t.Errorf("generate span has no programs attribute: %v", root.Attrs)
}
