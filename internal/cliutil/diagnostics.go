package cliutil

import (
	"encoding/json"
	"fmt"
	"io"

	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// WriteDiagnostics is the one encoder behind every command that prints
// verifier findings (`microtools vet`, `microtools analyze`, microcreator
// -verify/-verify-json): an indented JSON array when jsonOut is set, one
// line per finding otherwise. Routing all commands through it keeps their
// outputs byte-identical, so downstream tooling can parse either command's
// report with the same reader.
func WriteDiagnostics(w io.Writer, ds verify.Diagnostics, jsonOut bool) error {
	if jsonOut {
		return ds.WriteJSON(w)
	}
	return ds.WriteText(w)
}

// DiagnosticsExitCode maps findings to the shared process exit status:
// 1 when any error-severity finding is present, 0 for clean or
// warnings/infos only.
func DiagnosticsExitCode(ds verify.Diagnostics) int {
	if ds.HasErrors() {
		return 1
	}
	return 0
}

// WriteDataflow is the one renderer behind every command that prints the
// static dataflow report (`microtools analyze`, microcreator -analyze,
// microlauncher -analyze). It analyzes every kernel on arch first, so a
// kernel that fails to analyze writes nothing, then writes an indented
// JSON array of the reports when jsonOut is set, the full table for a
// single kernel, or one summary line per kernel. It returns the defect
// count the commands exit 1 on: dead register writes outside a memory
// access (V009) plus register self-moves (V010).
func WriteDataflow(w io.Writer, kernels []*isa.Program, arch *isa.Arch, jsonOut bool) (int, error) {
	var reports []*dataflow.Report
	defects := 0
	for _, k := range kernels {
		rep, err := dataflow.Analyze(k, arch)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", k.Name, err)
		}
		reports = append(reports, rep)
		defects += len(rep.Findings()) + len(rep.SelfMoves)
	}
	switch {
	case jsonOut:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return defects, enc.Encode(reports)
	case len(reports) == 1:
		return defects, reports[0].WriteTable(w)
	}
	for _, rep := range reports {
		if _, err := fmt.Fprintln(w, rep.Line()); err != nil {
			return defects, err
		}
	}
	return defects, nil
}
