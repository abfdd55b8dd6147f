// Package core orchestrates the two MicroTools: it drives MicroCreator
// (XML → pass pipeline → benchmark programs) and MicroLauncher (program →
// stable measurement) end to end, the way the paper's workflow chains them
// ("MicroCreator's current work focuses on automatically generating
// programs on new architectures and launching them with MicroLauncher",
// §3.5).
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/machine"
	"microtools/internal/obs"
	"microtools/internal/passes"
	"microtools/internal/plugin"
	"microtools/internal/verify"
	"microtools/internal/xmlspec"
)

// GenerateOptions configures a MicroCreator run.
type GenerateOptions struct {
	// Seed seeds the random-select pass.
	Seed int64
	// DisableAssembly suppresses the assembly output (emitted by
	// default); EmitC additionally emits C source.
	DisableAssembly bool
	EmitC           bool
	// Plugins names registered plugins to apply to the pass manager
	// before running (§3.3).
	Plugins []string
	// Customize, if non-nil, receives the pass manager for programmatic
	// modification (the library-embedding equivalent of pluginInit).
	Customize func(*passes.Manager) error
	// Verbose receives per-pass progress.
	Verbose io.Writer
	// Tracer, when non-nil, records the generation pipeline as a span tree:
	// "generate" > "xmlspec.parse" + "passes" > one span per pass.
	Tracer *obs.Tracer
	// Verify selects how the pipeline's verify-variants pass treats its
	// findings: verify.ModeEnforce (the zero value) fails generation on
	// error-severity diagnostics, verify.ModeCollect records them without
	// failing, verify.ModeOff disables verification.
	Verify verify.Mode
	// VerifySuppress lists verifier rule IDs to ignore (e.g. "V004").
	VerifySuppress []string
	// Diagnostics, when non-nil, receives the verifier findings of the run
	// (useful with ModeCollect; under ModeEnforce only warnings survive).
	Diagnostics *verify.Diagnostics
}

// Generate runs MicroCreator over an XML kernel description and returns
// every program it emits: GenerateStream with a sink that collects them.
// The context cancels the pipeline between passes (and between variants
// inside the emit pass); a canceled run returns ctx.Err().
func Generate(ctx context.Context, r io.Reader, opts GenerateOptions) ([]codegen.Program, error) {
	var progs []codegen.Program
	if _, err := GenerateStream(ctx, r, opts, func(p codegen.Program) error {
		progs = append(progs, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return progs, nil
}

// GenerateStream is the MicroCreator driver: the emit pass lowers each
// program, verifies it (honouring opts.Verify) and hands it to sink at
// once, so an N-variant family is never held whole unless the sink keeps
// it. It returns the number of programs emitted. A sink error aborts the
// pipeline and is returned wrapped (errors.Is finds it).
func GenerateStream(ctx context.Context, r io.Reader, opts GenerateOptions, sink func(codegen.Program) error) (int, error) {
	root := opts.Tracer.Start("generate")
	defer root.End()
	kernels, err := xmlspec.ParseTraced(r, root)
	if err != nil {
		return 0, err
	}
	m := passes.NewManager()
	if err := plugin.Apply(m, opts.Plugins...); err != nil {
		return 0, err
	}
	if opts.Customize != nil {
		if err := opts.Customize(m); err != nil {
			return 0, fmt.Errorf("core: customize: %w", err)
		}
	}
	n := 0
	pctx := &passes.Context{
		Ctx:            ctx,
		Seed:           opts.Seed,
		EmitAssembly:   !opts.DisableAssembly,
		EmitC:          opts.EmitC,
		Verbose:        opts.Verbose,
		Trace:          root,
		VerifyMode:     opts.Verify,
		VerifySuppress: opts.VerifySuppress,
		Sink: func(p codegen.Program) error {
			n++
			return sink(p)
		},
	}
	_, err = m.Run(pctx, kernels)
	if opts.Diagnostics != nil {
		*opts.Diagnostics = pctx.Diagnostics
	}
	if err != nil {
		return n, err
	}
	root.Int("programs", int64(n))
	return n, nil
}

// Vet runs MicroCreator in collect-only verification mode: the full pipeline
// executes, but verifier findings are returned as diagnostics instead of
// failing generation. Pipeline errors upstream of the verifier (XML parse
// failures, pass errors) are folded into the diagnostics as V000 findings, so
// a vet run always yields a report; err is reserved for I/O-level failures.
func Vet(ctx context.Context, r io.Reader, opts GenerateOptions) (verify.Diagnostics, []codegen.Program, error) {
	opts.Verify = verify.ModeCollect
	var ds verify.Diagnostics
	opts.Diagnostics = &ds
	progs, err := Generate(ctx, r, opts)
	if err != nil {
		ds = append(ds, verify.Diagnostic{
			Rule:     verify.RuleParse,
			Severity: verify.SeverityError,
			Instr:    -1,
			Message:  err.Error(),
		})
	}
	return ds, progs, nil
}

// VetFile is Vet over a file.
func VetFile(ctx context.Context, path string, opts GenerateOptions) (verify.Diagnostics, []codegen.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Vet(ctx, f, opts)
}

// GenerateString is Generate over a string.
func GenerateString(ctx context.Context, xml string, opts GenerateOptions) ([]codegen.Program, error) {
	return Generate(ctx, strings.NewReader(xml), opts)
}

// GenerateFile is Generate over a file.
func GenerateFile(ctx context.Context, path string, opts GenerateOptions) ([]codegen.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Generate(ctx, f, opts)
}

// WritePrograms writes generated programs into a directory, one .s (and
// optionally .c) file per variant, returning the file paths.
func WritePrograms(progs []codegen.Program, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, p := range progs {
		if p.EmitAssembly {
			asmText, err := p.Assembly()
			if err != nil {
				return nil, err
			}
			path := fmt.Sprintf("%s/%s.s", dir, p.Name)
			if err := os.WriteFile(path, []byte(asmText), 0o644); err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
		if p.EmitC {
			cSrc, err := p.CSource()
			if err != nil {
				return nil, err
			}
			path := fmt.Sprintf("%s/%s.c", dir, p.Name)
			if err := os.WriteFile(path, []byte(cSrc), 0o644); err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
	}
	return paths, nil
}

// LoadKernel parses a kernel source and selects the kernel function: the
// launcher's input path ("As input, the launcher accepts any assembly,
// source code (C or Fortran), object file, or even a dynamic library",
// §4.1). Assembly is parsed directly; C sources in MicroCreator's output
// format carry the kernel as a GNU inline-assembly block, which is
// extracted and parsed. An empty functionName requires exactly one
// function.
func LoadKernel(src, functionName string) (*isa.Program, error) {
	if looksLikeC(src) {
		extracted, err := extractInlineAsm(src)
		if err != nil {
			return nil, err
		}
		src = extracted
	}
	progs, err := asm.ParseString(src, "kernel")
	if err != nil {
		return nil, err
	}
	if functionName == "" {
		if len(progs) != 1 {
			var names []string
			for _, p := range progs {
				names = append(names, p.Name)
			}
			return nil, fmt.Errorf("core: input holds %d functions (%s); select one with the function name option",
				len(progs), strings.Join(names, ", "))
		}
		return progs[0], nil
	}
	for _, p := range progs {
		if p.Name == functionName {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: no function %q in input", functionName)
}

// LoadKernels parses a kernel source and returns every function it holds,
// in source order — the multi-function path of the launcher's input
// handling (a generated family often lands in one file; microlauncher
// -workers measures all of them over a pool).
func LoadKernels(src string) ([]*isa.Program, error) {
	if looksLikeC(src) {
		extracted, err := extractInlineAsm(src)
		if err != nil {
			return nil, err
		}
		src = extracted
	}
	return asm.ParseString(src, "kernel")
}

// LoadKernelFile is LoadKernel over a file.
func LoadKernelFile(path, functionName string) (*isa.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadKernel(string(data), functionName)
}

// looksLikeC detects MicroCreator's C output format: its header comment,
// or an __asm__ block outside comments. An assembly file whose
// description comment mentions __asm__( stays assembly.
func looksLikeC(src string) bool {
	return strings.HasPrefix(strings.TrimSpace(src), "/* Generated by MicroCreator") || indexCode(src, "__asm__(") >= 0
}

// extractInlineAsm pulls the assembly text out of the __asm__("..."); block
// of a C translation unit: the first __asm__( outside comments and
// literals, up to the first ); outside its string literals. A kernel
// description rendered into a comment above the block may mention either.
func extractInlineAsm(src string) (string, error) {
	i := indexCode(src, "__asm__(")
	if i < 0 {
		return "", fmt.Errorf("core: C input without an __asm__ block")
	}
	rest := src[i:]
	end := indexCode(rest, ");")
	if end < 0 {
		return "", fmt.Errorf("core: unterminated __asm__ block")
	}
	block := rest[:end]
	var b strings.Builder
	for {
		q := strings.IndexByte(block, '"')
		if q < 0 {
			break
		}
		block = block[q+1:]
		// Find the closing quote, honouring escapes.
		j := 0
		for j < len(block) {
			if block[j] == '\\' {
				j += 2
				continue
			}
			if block[j] == '"' {
				break
			}
			j++
		}
		if j >= len(block) {
			return "", fmt.Errorf("core: unterminated string in __asm__ block")
		}
		lit := block[:j]
		block = block[j+1:]
		unq, err := strconv.Unquote(`"` + lit + `"`)
		if err != nil {
			return "", fmt.Errorf("core: bad string literal in __asm__ block: %w", err)
		}
		b.WriteString(unq)
	}
	if b.Len() == 0 {
		return "", fmt.Errorf("core: empty __asm__ block")
	}
	return b.String(), nil
}

// indexCode is strings.Index over the code of src: it skips /* */ and //
// comments, string and character literals, and lines that start with '#'
// (assembler comments, C preprocessor lines), and returns -1 when sub
// occurs only inside them (or src ends inside one).
func indexCode(src, sub string) int {
	lineStart := true
	for i := 0; i < len(src); {
		rest := src[i:]
		skip, from := "", 1
		switch {
		case strings.HasPrefix(rest, sub):
			return i
		case strings.HasPrefix(rest, "/*"):
			skip, from = "*/", 2
		case strings.HasPrefix(rest, "//") || lineStart && rest[0] == '#':
			skip = "\n"
		case rest[0] == '"' || rest[0] == '\'':
			j := 1
			for j < len(rest) && rest[j] != rest[0] {
				if rest[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(rest) {
				return -1
			}
			i += j + 1
			lineStart = false
			continue
		}
		if skip != "" {
			n := strings.Index(rest[from:], skip)
			if n < 0 {
				return -1
			}
			i += from + n + len(skip)
			lineStart = skip == "\n"
			continue
		}
		switch rest[0] {
		case '\n':
			lineStart = true
		case ' ', '\t', '\r':
		default:
			lineStart = false
		}
		i++
	}
	return -1
}

// residencyLevel classifies a per-array footprint against a machine's
// hierarchy (the §5.1 protocol's placement logic).
func residencyLevel(m *machine.Machine, arrayBytes int64) string {
	h := m.Hierarchy
	switch {
	case arrayBytes <= h.L1.Size:
		return "L1"
	case arrayBytes <= h.L2.Size:
		return "L2"
	case arrayBytes <= h.L3.Size:
		return "L3"
	}
	return "RAM"
}

// levelThroughput returns the sustainable loads and stores per core cycle
// of a working set resident at level ("L1", "L2", "L3" or "RAM", see
// residencyLevel), for accessWidth-byte accesses in the streaming patterns
// MicroCreator generates (prefetch-covered, line-granular bandwidth). Below
// L1 the rates come from the level's service bandwidth; in RAM a single
// core is further bounded by its outstanding fills over the round trip, and
// stores pay the read-for-ownership twice.
func levelThroughput(m *machine.Machine, level string, accessWidth int) (loads, stores float64) {
	h := m.Hierarchy
	ratio := h.CoreClockRatio
	line := float64(h.L1.LineSize)
	perLine := line / float64(accessWidth)
	loads, stores = 1, 1
	if m.Arch.TwoLoadPorts {
		loads = 2
	}
	var rate float64
	switch level {
	case "L1":
		return loads, stores
	case "L2":
		rate = perLine / math.Max(float64(h.L2.ThroughputCycles), 1)
	case "L3":
		tp := float64(h.L3.ThroughputCycles) * ratio
		if tp <= 0 {
			tp = 1
		}
		rate = perLine / tp
	default: // RAM
		lat := math.Ceil(float64(h.Mem.Latency) * ratio)
		svc := line / h.Mem.ChannelBytesPerCycle * ratio
		rate = perLine / svc * float64(h.Mem.Channels)
		if o := h.PrefetchOutstanding; o > 0 {
			rate = math.Min(rate, float64(o)/(lat+svc)*perLine)
		}
		return math.Min(loads, rate), math.Min(stores, rate/2)
	}
	return math.Min(loads, rate), math.Min(stores, rate)
}

// ScreenTopK pre-ranks generated variants statically and returns the k most
// promising ones, by estimated cycles per element. MicroCreator can generate
// thousands of variants; screening keeps full measurement budgets for the
// contenders. A variant's estimate is the larger of the dataflow lower bound
// (dataflow.KernelBounds: dependences, latencies, port pressure, frontend —
// memoized, so a later CheckBounds on the same kernel reuses it) and the
// loop's load/store traffic at the sustainable rate of the hierarchy level
// arrayBytes resides in: in cache the core separates the variants, in RAM
// the memory system does. The memory term is a throughput estimate, not a
// lower bound, so it only ranks and never feeds CyclesLowerBound.
//
// accessWidth is the kernel's element width in bytes (<= 0 means 4).
// Variants the analysis cannot bound rank last, in generation order. The
// context cancels the screening loop between variants.
func ScreenTopK(ctx context.Context, progs []codegen.Program, machineName string, arrayBytes int64, accessWidth, k int) ([]codegen.Program, error) {
	if k <= 0 || k >= len(progs) {
		return progs, nil
	}
	m, err := machine.ByName(machineName)
	if err != nil {
		return nil, err
	}
	if accessWidth <= 0 {
		accessWidth = 4
	}
	loadRate, storeRate := levelThroughput(m, residencyLevel(m, arrayBytes), accessWidth)
	type scored struct {
		idx   int
		score float64
	}
	scores := make([]scored, 0, len(progs))
	for i := range progs {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p, err := progs[i].Lowered()
		if err != nil {
			return nil, fmt.Errorf("core: screening %s: %w", progs[i].Name, err)
		}
		score := math.Inf(1)
		if cycles, elems, err := screenCycles(p, m.Arch, loadRate, storeRate, accessWidth); err == nil {
			score = cycles / elems
		}
		scores = append(scores, scored{idx: i, score: score})
	}
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].score < scores[b].score })
	out := make([]codegen.Program, 0, k)
	for _, s := range scores[:k] {
		out = append(out, progs[s.idx])
	}
	return out, nil
}

// screenCycles is ScreenTopK's estimate for one kernel: cycles per loop
// iteration — the dataflow lower bound or the loop's loads and stores at
// the given sustainable rates per cycle, whichever is larger — and the
// elements one iteration touches (its memory traffic in accessWidth-byte
// units, at least 1).
func screenCycles(p *isa.Program, arch *isa.Arch, loadRate, storeRate float64, accessWidth int) (cycles, elems float64, err error) {
	b, err := dataflow.KernelBounds(p, arch)
	if err != nil {
		return 0, 0, err
	}
	loads, stores := 0, 0
	for j := b.LoopStart; j <= b.LoopEnd; j++ {
		in := &p.Insts[j]
		if !in.IsLoad() && !in.IsStore() {
			continue
		}
		if in.IsLoad() {
			loads++
		}
		if in.IsStore() {
			stores++
		}
		elems += float64(in.Op.MemWidth()) / float64(accessWidth)
	}
	if elems == 0 {
		elems = 1
	}
	memory := math.Max(float64(loads)/loadRate, float64(stores)/storeRate)
	return math.Max(b.CyclesLowerBound, memory), elems, nil
}
