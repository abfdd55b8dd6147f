package passes

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"microtools/internal/ir"
	"microtools/internal/isa"
)

// formattedName is the variant naming the prologue pass used to build with
// Sprintf, Join and a Builder per part, kept as the oracle of the appending
// builder.
func formattedName(k *ir.Kernel) string {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				b.WriteRune(r)
			case r == '-':
				b.WriteByte('m')
			default:
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	parts := []string{sanitize(k.BaseName)}
	if k.Unroll > 0 {
		parts = append(parts, fmt.Sprintf("u%d", k.Unroll))
	}
	var pat strings.Builder
	for _, in := range k.Body {
		if len(in.Operands) != 2 {
			continue
		}
		a, c := in.Operands[0].Kind, in.Operands[1].Kind
		switch {
		case a == ir.MemOperand && c == ir.RegOperand:
			pat.WriteByte('L')
		case a == ir.RegOperand && c == ir.MemOperand:
			pat.WriteByte('S')
		}
	}
	if pat.Len() > 0 {
		parts = append(parts, pat.String())
	}
	var keys []string
	for key := range k.Tags {
		if key != "u" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		parts = append(parts, sanitize(key+k.Tags[key]))
	}
	return strings.Join(parts, "_")
}

// specKernels runs the default pipeline over every shipped spec.
func specKernels(t *testing.T) map[string][]*ir.Kernel {
	t.Helper()
	paths, err := filepath.Glob("../../specs/*.xml")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specs: %v", err)
	}
	out := map[string][]*ir.Kernel{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, ks := runPipeline(t, string(data))
		out[filepath.Base(path)] = ks
	}
	return out
}

// TestVariantNamesMatchFormattedPrologue: every variant of every shipped
// spec carries the name the formatted prologue gives it.
func TestVariantNamesMatchFormattedPrologue(t *testing.T) {
	for spec, ks := range specKernels(t) {
		for _, k := range ks {
			if want := formattedName(k); k.Name != want {
				t.Errorf("%s: variant named %q, formatted prologue says %q", spec, k.Name, want)
			}
		}
	}
}

// TestPrologueNamesOddTags drives the prologue over hand-built kernels whose
// base names and tags hold negative numbers, bare '-', non-ASCII runes and
// invalid UTF-8 (split between a tag's key and value), with and without an
// unroll factor and a load/store pattern, and checks names and the dedup
// against the formatted prologue.
func TestPrologueNamesOddTags(t *testing.T) {
	base := ir.NewLogical("r1")
	reg := ir.NewLogical("r2")
	load := ir.Instruction{Op: "movss", Operands: []ir.Operand{{Kind: ir.MemOperand, Reg: base}, {Kind: ir.RegOperand, Reg: reg}}}
	store := ir.Instruction{Op: "movss", Operands: []ir.Operand{{Kind: ir.RegOperand, Reg: reg}, {Kind: ir.MemOperand, Reg: base}}}
	arith := ir.Instruction{Op: "add", Operands: []ir.Operand{{Kind: ir.ImmOperand, Imm: 1}, {Kind: ir.RegOperand, Reg: reg}}}
	tags := []map[string]string{
		nil,
		{"u": "3"},
		{"stride0": "-16", "imm0_1": "-1"},
		{"i0": "-", "-": "-"},
		{"é": "ü", "rep0": "日本"},
		{"k\xe6\x97": "\xa5v", "z": "\xff\xfe"},
		{"": "", "a b": "c.d"},
	}
	var ks []*ir.Kernel
	for i, tg := range tags {
		for _, unroll := range []int{0, 4} {
			for _, body := range [][]ir.Instruction{{arith}, {load, store, arith}} {
				k := &ir.Kernel{BaseName: []string{"loadstore", "k-1", "ké", ""}[i%4], Unroll: unroll, Body: body}
				for key, v := range tg {
					k.Tag(key, v)
				}
				ks = append(ks, k)
			}
		}
	}
	// A repeat of the first kernel's name must be dropped.
	ks = append(ks, &ir.Kernel{BaseName: ks[0].BaseName, Body: ks[0].Body})
	var want []string
	seen := map[string]bool{}
	for _, k := range ks {
		if n := formattedName(k); !seen[n] {
			seen[n] = true
			want = append(want, n)
		}
	}
	out, err := passPrologue(nil, ks)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, k := range out {
		got = append(got, k.Name)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("names:\n%q\nformatted prologue:\n%q", got, want)
	}
}

// TestResolvedOpcodesMatchParseOp: every instruction and branch of every
// generated variant resolves to what isa.ParseOp makes of its mnemonic, and
// spells it canonically, so the opcode resolved once serves the variant.
func TestResolvedOpcodesMatchParseOp(t *testing.T) {
	for spec, ks := range specKernels(t) {
		for _, k := range ks {
			for i := range k.Body {
				in := &k.Body[i]
				got, err := in.Opcode()
				want, werr := isa.ParseOp(in.Op)
				if err != nil || werr != nil || got != want || in.Op != got.String() {
					t.Fatalf("%s: %s instruction %d %q: resolved %v (%v), ParseOp %v (%v)",
						spec, k.Name, i, in.Op, got, err, want, werr)
				}
			}
			got, err := k.Branch.Opcode()
			want, werr := isa.ParseOp(k.Branch.Test)
			if err != nil || werr != nil || got != want {
				t.Fatalf("%s: %s branch %q: resolved %v (%v), ParseOp %v (%v)",
					spec, k.Name, k.Branch.Test, got, err, want, werr)
			}
		}
	}
}
