// Package asm parses the AT&T-syntax x86-64 assembly subset that
// MicroCreator emits (and that the paper's listings use) into decoded
// isa.Programs for MicroLauncher. It is the reproduction of the launcher's
// "compiles the kernel code, if necessary, into a dynamic library loaded at
// run-time" step (§4.1): here the loadable form is the decoded program.
package asm

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"microtools/internal/isa"
)

// ParseError reports a syntax error with its source line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("asm: line %d (%q): %v", e.Line, e.Text, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads one or more functions from AT&T assembly source. Each
// ".globl"-declared label starts a function; a file without directives is a
// single function named by defaultName. Branch targets are resolved and each
// program validated.
func Parse(r io.Reader, defaultName string) ([]*isa.Program, error) {
	return parse(r, defaultName, 0)
}

// parse is Parse with an optional instruction-count hint (0 = unknown) that
// pre-sizes the first program's instruction slice: append growth on the
// large isa.Inst element type is the dominant allocation when parsing one
// program per generated variant.
func parse(r io.Reader, defaultName string, hint int) ([]*isa.Program, error) {
	sc := bufio.NewScanner(r)
	// Small initial buffer (the scanner grows it on demand): Parse runs once
	// per variant, and a large up-front allocation here dominates whole-family
	// verification time.
	sc.Buffer(make([]byte, 0, 4096), 16*1024*1024)

	var progs []*isa.Program
	// The current program is allocated lazily on its first label or
	// instruction: Parse runs once per generated variant, and eager
	// allocation (especially of the post-flush program that EOF discards)
	// shows up in whole-family verification time.
	var cur *isa.Program
	prog := func() *isa.Program {
		if cur == nil {
			cur = &isa.Program{Name: defaultName}
			if hint > 0 {
				cur.Insts = make([]isa.Inst, 0, hint)
				hint = 0 // the hint covers the whole source; first program only
			}
		}
		return cur
	}
	var globals map[string]bool
	// names holds the label text of every branch operand; the operand
	// indexes it until bindLabels points it at its program's label.
	var names []string
	lineNo := 0

	flush := func() {
		if cur != nil && len(cur.Insts) > 0 {
			progs = append(progs, cur)
		}
		cur = nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasSuffix(line, ":"):
			label := strings.TrimSuffix(line, ":")
			if globals[label] {
				// New function begins.
				flush()
				prog().Name = label
			} else {
				p := prog()
				if _, dup := p.LabelIndex(label); dup {
					return nil, &ParseError{lineNo, line, fmt.Errorf("duplicate label %q", label)}
				}
				p.Labels = append(p.Labels, isa.Label{Name: label, Index: len(p.Insts)})
			}
		case strings.HasPrefix(line, "."):
			// Directive. Track .globl names so we can split functions;
			// ignore the rest (.text, .align, .type, .size, ...).
			if strings.HasPrefix(line, ".globl") || strings.HasPrefix(line, ".global") {
				fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
				if len(fields) != 2 {
					return nil, &ParseError{lineNo, line, fmt.Errorf("malformed %s", fields[0])}
				}
				if globals == nil {
					globals = map[string]bool{}
				}
				globals[fields[1]] = true
			}
		default:
			inst, err := parseInst(line, &names)
			if err != nil {
				return nil, &ParseError{lineNo, line, err}
			}
			p := prog()
			p.Insts = append(p.Insts, inst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if len(progs) == 0 {
		return nil, fmt.Errorf("asm: no instructions found")
	}
	for _, p := range progs {
		if err := bindLabels(p, names); err != nil {
			return nil, err
		}
		if err := p.Resolve(); err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// ParseString is Parse over a string.
func ParseString(src, defaultName string) ([]*isa.Program, error) {
	// Line count bounds the instruction count; cap the hint so adversarial
	// newline-heavy input cannot force a huge allocation.
	hint := strings.Count(src, "\n") + 1
	if hint > 1024 {
		hint = 1024
	}
	return parse(strings.NewReader(src), defaultName, hint)
}

// ParseOne parses a source expected to contain exactly one function.
func ParseOne(src, defaultName string) (*isa.Program, error) {
	progs, err := ParseString(src, defaultName)
	if err != nil {
		return nil, err
	}
	if len(progs) != 1 {
		return nil, fmt.Errorf("asm: expected one function, found %d", len(progs))
	}
	return progs[0], nil
}

// bindLabels points the label operand of each of p's branches, which
// indexes names, at the program label it names. It walks the branches in
// order and stops at the first one Resolve refuses, so the first faulty
// branch is the one reported.
func bindLabels(p *isa.Program, names []string) error {
	for i := range p.Insts {
		in := &p.Insts[i]
		if !in.Op.IsBranch() {
			continue
		}
		if in.NOps != 1 || in.A.Kind != isa.LabelOperand {
			return nil
		}
		name := names[in.A.Label]
		j := slices.IndexFunc(p.Labels, func(l isa.Label) bool { return l.Name == name })
		if j < 0 {
			return fmt.Errorf("isa: %s at %d: undefined label %q", in.Op, i, name)
		}
		in.A.Label = int32(j)
	}
	return nil
}

func parseInst(line string, names *[]string) (isa.Inst, error) {
	var inst isa.Inst
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	op, err := isa.ParseOp(mnemonic)
	if err != nil {
		return inst, err
	}
	inst.Op = op
	if rest == "" {
		if op.IsBranch() {
			return inst, fmt.Errorf("branch %s without target", op)
		}
		return inst, nil
	}
	operands, n, err := splitOperands(rest)
	if err != nil {
		return inst, err
	}
	for i := 0; i < n; i++ {
		o, err := parseOperand(operands[i], op, names)
		if err != nil {
			return inst, err
		}
		switch i {
		case 0:
			inst.A = o
		case 1:
			inst.B = o
		case 2:
			inst.C = o
		}
		inst.NOps++
	}
	return inst, nil
}

// splitOperands splits on commas that are not inside a memory reference's
// parentheses. The fixed-size result avoids a per-instruction allocation
// (Parse runs once per generated variant).
func splitOperands(s string) ([3]string, int, error) {
	var out [3]string
	n := 0
	depth := 0
	start := 0
	add := func(part string) error {
		part = strings.TrimSpace(part)
		if part == "" {
			return fmt.Errorf("empty operand")
		}
		if n == len(out) {
			return fmt.Errorf("too many operands (%d)", n+1)
		}
		out[n] = part
		n++
		return nil
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return out, 0, fmt.Errorf("unbalanced parenthesis")
			}
		case ',':
			if depth == 0 {
				if err := add(s[start:i]); err != nil {
					return out, 0, err
				}
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return out, 0, fmt.Errorf("unbalanced parenthesis")
	}
	if err := add(s[start:]); err != nil {
		return out, 0, err
	}
	return out, n, nil
}

func parseOperand(text string, op isa.Op, names *[]string) (isa.Operand, error) {
	switch {
	case strings.HasPrefix(text, "$"):
		v, err := parseInt(text[1:])
		if err != nil {
			return isa.Operand{}, fmt.Errorf("bad immediate %q: %w", text, err)
		}
		return isa.NewImm(v), nil
	case strings.HasPrefix(text, "%"):
		r, err := isa.ParseReg(text)
		if err != nil {
			return isa.Operand{}, err
		}
		return isa.NewReg(r), nil
	case strings.Contains(text, "("):
		m, err := parseMem(text)
		if err != nil {
			return isa.Operand{}, err
		}
		return isa.NewMem(m), nil
	default:
		if op.IsBranch() {
			*names = append(*names, text)
			return isa.NewLabel(len(*names) - 1), nil
		}
		// A bare integer (rare, e.g. "16(%rsi)" handled above); treat a
		// bare symbol on a non-branch as an error.
		return isa.Operand{}, fmt.Errorf("unsupported operand %q for %s", text, op)
	}
}

// parseMem parses disp(base,index,scale) with every component optional
// except the parentheses.
func parseMem(text string) (isa.MemRef, error) {
	m := isa.MemRef{Base: isa.NoReg, Index: isa.NoReg}
	open := strings.IndexByte(text, '(')
	closeIdx := strings.LastIndexByte(text, ')')
	if open < 0 || closeIdx < open {
		return m, fmt.Errorf("bad memory operand %q", text)
	}
	if closeIdx != len(text)-1 {
		return m, fmt.Errorf("trailing characters after memory operand %q", text)
	}
	if disp := strings.TrimSpace(text[:open]); disp != "" {
		v, err := parseInt(disp)
		if err != nil {
			return m, fmt.Errorf("bad displacement %q: %w", disp, err)
		}
		m.Disp = v
	}
	inner := text[open+1 : closeIdx]
	parts := strings.Split(inner, ",")
	if len(parts) > 3 {
		return m, fmt.Errorf("bad memory operand %q", text)
	}
	if base := strings.TrimSpace(parts[0]); base != "" {
		r, err := isa.ParseReg(base)
		if err != nil {
			return m, err
		}
		m.Base = r
	}
	if len(parts) >= 2 {
		if idx := strings.TrimSpace(parts[1]); idx != "" {
			r, err := isa.ParseReg(idx)
			if err != nil {
				return m, err
			}
			m.Index = r
			m.Scale = 1
		}
	}
	if len(parts) == 3 {
		s := strings.TrimSpace(parts[2])
		v, err := parseInt(s)
		if err != nil {
			return m, fmt.Errorf("bad scale %q: %w", s, err)
		}
		if m.Index == isa.NoReg {
			return m, fmt.Errorf("scale without index in %q", text)
		}
		m.Scale = v
	}
	return m, nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "-0x") {
		return strconv.ParseInt(s, 0, 64)
	}
	return strconv.ParseInt(s, 10, 64)
}
