package passes_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/core"
	"microtools/internal/ir"
	"microtools/internal/verify"
	"microtools/internal/xmlspec"
)

// emitSeed is a small two-variant spec the odd-metadata seeds edit.
const emitSeed = `<kernel name="k">
  <description>one line</description>
  <instruction>
    <operation>movss</operation>
    <memory><register><name>r1</name></register><offset>0</offset></memory>
    <register><phyName>%xmm</phyName><min>0</min><max>4</max></register>
    <swap_after_unroll/>
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

// emitWorkLimit bounds the instructions a fuzzed spec may expand to, and
// emitBodyLimit those of one variant, so a mutated unroll or repeat range
// cannot exhaust memory or time.
const (
	emitWorkLimit = 1 << 16
	emitBodyLimit = 256
)

// emitWork bounds the instructions the default pipeline expands src to
// (predicted variants × largest unrolled body, ignoring any MaxVariants
// cap, which only trims after each pass), or returns emitWorkLimit+1 once
// one variant's body exceeds emitBodyLimit. A spec that does not parse costs
// nothing; one whose expansion is not statically predictable (random
// selection, runaway repeat ranges) is reported as over the limit.
func emitWork(src string) int64 {
	ks, err := xmlspec.ParseString(src)
	if err != nil {
		return 0
	}
	// No move semantics matches more than four opcodes, so 4 bounds the
	// select-instructions fan-out from above.
	moves := func(*ir.MoveSemantics) (int, error) { return 4, nil }
	var work int64
	for _, k := range ks {
		uncapped := *k
		uncapped.MaxVariants = 0
		n, ok := verify.ExpectedVariants(&uncapped, moves)
		if !ok {
			return emitWorkLimit + 1
		}
		body := int64(0)
		for _, in := range k.Body {
			body += int64(max(in.Repeat.Max, 1))
		}
		body *= int64(max(k.UnrollRange.Max, 1))
		work += n * body
		if body > emitBodyLimit || work > emitWorkLimit {
			return emitWorkLimit + 1
		}
	}
	return work
}

// FuzzEmit is the one oracle for both generation entry points. Whenever
// the pipeline accepts a spec, every program's decoded form is exactly
// what the asm parser makes of its rendered text (name, labels, canonical
// print), and what the reference lowering and decode make of its kernel
// (checkLowerAgainstReference). The materialized (Generate) and streamed (GenerateStream) runs
// return the same programs, the same diagnostics in the same order and the
// same error text.
func FuzzEmit(f *testing.F) {
	specs, _ := filepath.Glob(filepath.Join("..", "..", "specs", "*.xml"))
	var seeds []string
	for _, spec := range specs {
		if data, err := os.ReadFile(spec); err == nil {
			seeds = append(seeds, string(data))
		}
	}
	edit := func(old, new string) string { return strings.Replace(emitSeed, old, new, 1) }
	seeds = append(seeds,
		emitSeed,
		edit("one line", "two lines:\nout[i] = in[i] */ done"),
		edit("one line", "\n  # leading newline\r\n\tret\n"),
		edit(".L0", ".L 0"),
		edit(".L0", "L#1,x:y"),
		edit(".L0", "é-loop(1)"),
		edit(".L0", "."),
		edit(".L0", ""),
		edit(`name="k"`, `name="my kernel#1, v:2"`),
		edit(`name="k"`, `name="ké-\xff"`),
		edit("<offset>0</offset>", "<offset>2</offset>"),
		edit("<test>jge</test>", "<test>ret</test>"),
	)
	for _, s := range seeds {
		for mode := range uint8(3) {
			f.Add(s, mode)
		}
	}
	f.Fuzz(func(t *testing.T, src string, mode uint8) {
		if emitWork(src) > emitWorkLimit {
			return
		}
		ctx := context.Background()
		opts := core.GenerateOptions{Verify: verify.Mode(mode % 3)}

		var batchDiags verify.Diagnostics
		opts.Diagnostics = &batchDiags
		batch, batchErr := core.Generate(ctx, strings.NewReader(src), opts)

		var streamDiags verify.Diagnostics
		opts.Diagnostics = &streamDiags
		var streamed []codegen.Program
		n, streamErr := core.GenerateStream(ctx, strings.NewReader(src), opts, func(p codegen.Program) error {
			streamed = append(streamed, p)
			return nil
		})

		if errText(batchErr) != errText(streamErr) {
			t.Fatalf("errors differ:\nbatch:  %v\nstream: %v", batchErr, streamErr)
		}
		if !reflect.DeepEqual(batchDiags, streamDiags) {
			t.Fatalf("diagnostics differ:\nbatch:  %v\nstream: %v", batchDiags, streamDiags)
		}
		if batchErr != nil {
			return
		}
		if n != len(streamed) || len(batch) != len(streamed) {
			t.Fatalf("batch emitted %d programs, stream %d (reported %d)", len(batch), len(streamed), n)
		}
		for i := range batch {
			b, s := &batch[i], &streamed[i]
			if b.Parsed == nil || s.Parsed == nil {
				t.Fatalf("%s: program emitted without its decoded form", b.Name)
			}
			if b.Name != s.Name || b.Parsed.Print() != s.Parsed.Print() {
				t.Fatalf("program %d: batch %s and stream %s differ", i, b.Name, s.Name)
			}
			checkLowerAgainstReference(t, b)
			text, err := b.Assembly()
			if err != nil {
				t.Fatalf("%s: render: %v", b.Name, err)
			}
			parsed, err := asm.ParseOne(text, b.Name)
			if err != nil {
				t.Fatalf("%s: rendered text does not parse: %v\n%s", b.Name, err, text)
			}
			if parsed.Name != b.Parsed.Name || !reflect.DeepEqual(parsed.Labels, b.Parsed.Labels) ||
				parsed.Print() != b.Parsed.Print() {
				t.Fatalf("%s: rendered text parses to\n%s\nnot the emitted\n%s\n--- text\n%s",
					b.Name, parsed.Print(), b.Parsed.Print(), text)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
