// Package passes trips L014 four times: an emit pass that renders each
// program's text and parses it back (through the verifier, through the
// parser and through a stored parser reference) instead of verifying the
// lowered program.
package passes

import (
	"microtools/internal/asm"
	"microtools/internal/codegen"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// reparse is the second emit path L014 keeps out.
func reparse(p *codegen.Program, opt verify.Options) (*isa.Program, error) {
	text, err := p.Assembly()
	if err != nil {
		return nil, err
	}
	if parsed, ds := verify.AsmProgram(text, p.Name, opt); parsed != nil {
		return parsed, ds.Err()
	}
	return asm.ParseOne(text, p.Name)
}

var parse = asm.ParseString

// lowered is the one emit path: clean.
func lowered(p *codegen.Program, opt verify.Options) (*isa.Program, error) {
	parsed, err := codegen.Lower(p.Kernel)
	if err != nil {
		return nil, err
	}
	return parsed, verify.Program(parsed, p.Name, opt).Err()
}
