// Package passes implements MicroCreator's source-to-source compiler
// pipeline (§3.2): nineteen independent passes that progressively lower and
// multiply an abstract ir.Kernel into a set of concrete benchmark programs.
//
// Unlike general compiler passes, "the passes in MicroCreator are entirely
// independent" — each consumes and produces a flat variant set, and each has
// a gate function a plugin may override to disable, enable or re-sequence it
// (§3.3).
package passes

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"microtools/internal/codegen"
	"microtools/internal/ir"
	"microtools/internal/obs"
	"microtools/internal/verify"
)

// Context carries pipeline-wide state. A fresh Context is used per Run.
type Context struct {
	// Ctx carries the caller's cancellation/deadline context through the
	// pipeline; nil means not cancellable. Manager.Run checks it between
	// passes and the emit pass checks it between kernels, so a canceled
	// campaign stops the generator promptly.
	Ctx context.Context
	// Seed seeds the random-select pass (kernels may override with their
	// own <random_selection><seed>).
	Seed int64
	// EmitAssembly / EmitC select the output formats produced by the emit
	// pass. Assembly defaults to on.
	EmitAssembly bool
	EmitC        bool
	// Verbose, when non-nil, receives per-pass progress lines.
	Verbose io.Writer
	// Trace, when active, is the parent span the pipeline records its
	// per-pass spans under. The zero Span is the no-op default.
	Trace obs.Span
	// Programs receives the emit pass output (materialized mode).
	Programs []codegen.Program
	// Sink, when non-nil, switches the emit pass to streaming mode: each
	// program is verified inline (honouring VerifyMode) and handed to the
	// sink as soon as it is rendered, and Programs stays empty, so an
	// N-variant family never holds all rendered programs at once. A sink
	// error aborts the pipeline.
	Sink func(codegen.Program) error

	// VerifyMode selects how the final verify-variants pass treats its
	// findings: verify.ModeEnforce (the zero value) fails the pipeline on
	// error-severity diagnostics, verify.ModeCollect records them in
	// Diagnostics without failing, verify.ModeOff gates the pass off.
	VerifyMode verify.Mode
	// VerifySuppress lists rule IDs the verifier ignores (e.g. "V004").
	VerifySuppress []string
	// Diagnostics accumulates the verifier findings of the run.
	Diagnostics verify.Diagnostics

	rng *rand.Rand
	// pass is the span of the pass currently running (set by Manager.Run).
	pass obs.Span
	// expectedVariants records the statically-predicted variant count per
	// kernel family (set by the validate pass; consumed by verify-variants
	// for expansion accounting). Families with unpredictable counts are
	// absent.
	expectedVariants map[string]int64
	// pipelineModified notes that the pass list diverged from the default
	// nineteen-pass pipeline (plugin surgery); expansion accounting is
	// skipped because the prediction only models the default passes.
	pipelineModified bool
}

// PassSpan returns the span of the currently running pass, so pass bodies
// can record sub-spans (e.g. per-program code generation). Outside
// Manager.Run it is the zero, no-op Span.
func (c *Context) PassSpan() obs.Span { return c.pass }

// Err reports the pipeline context's cancellation state: nil while the
// run may continue, the context's error once it is canceled or past its
// deadline (and always nil when no context is attached).
func (c *Context) Err() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// RNG returns the context's seeded random source.
func (c *Context) RNG() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Seed))
	}
	return c.rng
}

func (c *Context) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// GateFunc decides whether a pass executes ("the function returning a
// boolean deciding whether or not to execute the pass", §3.3).
type GateFunc func(*Context) bool

// RunFunc transforms a variant set.
type RunFunc func(*Context, []*ir.Kernel) ([]*ir.Kernel, error)

// Pass is one pipeline stage.
type Pass struct {
	Name string
	// Doc is a one-line description shown by microcreator -list-passes.
	Doc  string
	Gate GateFunc
	Run  RunFunc
}

// AlwaysGate is the default gate: "Most internal passes are performed
// because their gates always return true" (§3.3).
func AlwaysGate(*Context) bool { return true }

// NeverGate disables a pass.
func NeverGate(*Context) bool { return false }

// Manager owns the ordered pass list. Plugins mutate it through the
// methods below — the Go equivalent of the paper's pluginInit API.
type Manager struct {
	passes []*Pass
	// modified records any surgery on the default pipeline (replace,
	// remove, insert, append, gate override); the verify-variants pass
	// skips expansion accounting on modified pipelines.
	modified bool
}

// NewManager returns a manager loaded with the nineteen default passes.
func NewManager() *Manager {
	m := &Manager{}
	for _, p := range defaultPasses() {
		m.passes = append(m.passes, p)
	}
	return m
}

// Passes returns the pass list in execution order.
func (m *Manager) Passes() []*Pass { return append([]*Pass(nil), m.passes...) }

// Names returns the pass names in execution order.
func (m *Manager) Names() []string {
	out := make([]string, len(m.passes))
	for i, p := range m.passes {
		out[i] = p.Name
	}
	return out
}

// Lookup returns the pass with the given name, or nil.
func (m *Manager) Lookup(name string) *Pass {
	for _, p := range m.passes {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func (m *Manager) index(name string) int {
	for i, p := range m.passes {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Replace swaps the named pass for p, keeping its position ("A user may
// replace or rewrite any of the internal passes", §3.3).
func (m *Manager) Replace(name string, p *Pass) error {
	i := m.index(name)
	if i < 0 {
		return fmt.Errorf("passes: no pass named %q", name)
	}
	if err := checkPass(p); err != nil {
		return err
	}
	m.passes[i] = p
	m.modified = true
	return nil
}

// Remove deletes the named pass.
func (m *Manager) Remove(name string) error {
	i := m.index(name)
	if i < 0 {
		return fmt.Errorf("passes: no pass named %q", name)
	}
	m.passes = append(m.passes[:i], m.passes[i+1:]...)
	m.modified = true
	return nil
}

// InsertBefore inserts p before the named pass.
func (m *Manager) InsertBefore(name string, p *Pass) error {
	return m.insert(name, p, 0)
}

// InsertAfter inserts p after the named pass.
func (m *Manager) InsertAfter(name string, p *Pass) error {
	return m.insert(name, p, 1)
}

func (m *Manager) insert(name string, p *Pass, delta int) error {
	i := m.index(name)
	if i < 0 {
		return fmt.Errorf("passes: no pass named %q", name)
	}
	if err := checkPass(p); err != nil {
		return err
	}
	if m.index(p.Name) >= 0 {
		return fmt.Errorf("passes: pass %q already registered", p.Name)
	}
	i += delta
	m.passes = append(m.passes[:i], append([]*Pass{p}, m.passes[i:]...)...)
	m.modified = true
	return nil
}

// Append adds p at the end of the pipeline.
func (m *Manager) Append(p *Pass) error {
	if err := checkPass(p); err != nil {
		return err
	}
	if m.index(p.Name) >= 0 {
		return fmt.Errorf("passes: pass %q already registered", p.Name)
	}
	m.passes = append(m.passes, p)
	m.modified = true
	return nil
}

// SetGate overrides the gate of the named pass (§3.3: "MicroCreator also
// permits a redefinition of any pass gate").
func (m *Manager) SetGate(name string, gate GateFunc) error {
	p := m.Lookup(name)
	if p == nil {
		return fmt.Errorf("passes: no pass named %q", name)
	}
	if gate == nil {
		return fmt.Errorf("passes: nil gate for %q", name)
	}
	p.Gate = gate
	m.modified = true
	return nil
}

func checkPass(p *Pass) error {
	if p == nil || p.Name == "" || p.Run == nil {
		return fmt.Errorf("passes: pass must have a name and a run function")
	}
	if p.Gate == nil {
		p.Gate = AlwaysGate
	}
	return nil
}

// Run executes the pipeline over the initial kernel set and returns the
// final variant set. Emitted programs accumulate in ctx.Programs.
func (m *Manager) Run(ctx *Context, kernels []*ir.Kernel) ([]*ir.Kernel, error) {
	if ctx == nil {
		ctx = &Context{EmitAssembly: true}
	}
	ctx.pipelineModified = ctx.pipelineModified || m.modified
	ks := kernels
	pipeline := ctx.Trace.Child("passes").Int("kernels_in", int64(len(ks)))
	for _, p := range m.passes {
		if err := ctx.Err(); err != nil {
			pipeline.Str("error", err.Error()).End()
			return nil, err
		}
		if p.Gate != nil && !p.Gate(ctx) {
			ctx.logf("pass %-22s skipped (gate)", p.Name)
			continue
		}
		var err error
		before := len(ks)
		sp := pipeline.Child("pass."+p.Name).Int("kernels_in", int64(before))
		ctx.pass = sp
		ks, err = p.Run(ctx, ks)
		ctx.pass = obs.Span{}
		if err != nil {
			sp.Str("error", err.Error()).End()
			pipeline.End()
			return nil, fmt.Errorf("passes: %s: %w", p.Name, err)
		}
		ks = applyVariantCap(ks)
		sp.Int("kernels_out", int64(len(ks))).End()
		ctx.logf("pass %-22s %4d -> %4d kernels", p.Name, before, len(ks))
	}
	pipeline.Int("kernels_out", int64(len(ks))).End()
	return ks, nil
}

// applyVariantCap enforces each kernel family's MaxVariants budget ("The
// user can limit the number of benchmark programs if it is superfluous",
// §3.2). The cap applies per BaseName, keeping the earliest variants.
func applyVariantCap(ks []*ir.Kernel) []*ir.Kernel {
	counts := map[string]int{}
	out := ks[:0]
	for _, k := range ks {
		if k.MaxVariants > 0 && counts[k.BaseName] >= k.MaxVariants {
			continue
		}
		counts[k.BaseName]++
		out = append(out, k)
	}
	return out
}
