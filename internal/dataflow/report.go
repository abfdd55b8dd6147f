package dataflow

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteJSON writes the report as one indented JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Line renders the report as one compact summary line, the per-variant
// format `microtools analyze` uses when a spec expands to many kernels.
func (r *Report) Line() string {
	var flags []string
	if n := len(r.Findings()); n > 0 {
		flags = append(flags, fmt.Sprintf("%d dead write(s)", n))
	}
	if len(r.SelfMoves) > 0 {
		flags = append(flags, fmt.Sprintf("%d self move(s)", len(r.SelfMoves)))
	}
	suffix := ""
	if len(flags) > 0 {
		suffix = "  !! " + strings.Join(flags, ", ")
	}
	return fmt.Sprintf("%-40s %3d uops  lat %6.2f  ports %6.2f  front %6.2f  => %7.2f cycles/iter%s",
		r.Kernel, r.Uops, r.LatencyBound, r.ThroughputBound, r.FrontendBound, r.CyclesLowerBound, suffix)
}

// Findings returns the dead writes that indicate a real kernel defect —
// the ones verify's V009 reports — excluding memory-access instructions
// whose register destination is incidental to the workload.
func (r *Report) Findings() []DeadWrite {
	var out []DeadWrite
	for _, d := range r.DeadWrites {
		if !d.HasMem {
			out = append(out, d)
		}
	}
	return out
}

// WriteTable renders the report as an aligned human-readable block, the
// `microtools analyze` default output.
func (r *Report) WriteTable(w io.Writer) error {
	var b strings.Builder
	row := func(k, format string, args ...any) {
		fmt.Fprintf(&b, "%-12s %s\n", k, fmt.Sprintf(format, args...))
	}
	row("kernel", "%s (%s)", r.Kernel, r.Arch)
	if r.LoopStart >= 0 && r.LoopEnd >= r.LoopStart {
		row("loop", "insts %d..%d, counter step %d", r.LoopStart, r.LoopEnd, r.CounterStep)
	} else {
		row("loop", "none (straight-line)")
	}
	row("uops", "%d per iteration (%d unfused)", r.Uops, r.UnfusedUops)
	row("bounds", "latency %.2f | ports %.2f | frontend %.2f => %.2f cycles/iter",
		r.LatencyBound, r.ThroughputBound, r.FrontendBound, r.CyclesLowerBound)
	for i, s := range r.CriticalPath {
		key := ""
		if i == 0 {
			key = "critical"
		}
		row(key, "#%-3d %-28s -> %s (+%g)", s.Index, s.Inst, s.Resource, s.Latency)
	}
	if len(r.LoopCarried) > 0 {
		parts := make([]string, len(r.LoopCarried))
		for i, c := range r.LoopCarried {
			parts[i] = fmt.Sprintf("%s %.2f", c.Resource, c.Length)
		}
		row("carried", "%s", strings.Join(parts, ", "))
	}
	for i, c := range r.PortPressure {
		key := ""
		if i == 0 {
			key = "ports"
		}
		row(key, "%-12s %2d uops / %d ports = %.2f", c.Ports, c.Uops, c.Width, c.Pressure)
	}
	for i, d := range r.DeadWrites {
		key := ""
		if i == 0 {
			key = "dead writes"
		}
		note := ""
		if d.HasMem {
			note = " (memory access; destination incidental)"
		}
		row(key, "#%-3d %s writes %s, never read%s", d.Index, d.Inst, d.Resource, note)
	}
	for i, m := range r.SelfMoves {
		key := ""
		if i == 0 {
			key = "self moves"
		}
		inst := "" // a report not built by Analyze has no instruction text
		if i < len(r.selfMoveInsts) {
			inst = r.selfMoveInsts[i]
		}
		row(key, "#%-3d %s", m, inst)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
