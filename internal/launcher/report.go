package launcher

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"microtools/internal/obs"
)

// ReportFormat selects the launcher's result encoding.
type ReportFormat int

const (
	// ReportCSV is the paper's generic CSV table (§4.3), the default.
	ReportCSV ReportFormat = iota
	// ReportJSON is the structured report: full summary statistics plus
	// the optional simulated-PMU counters and derived metrics.
	ReportJSON
)

func (f ReportFormat) String() string {
	switch f {
	case ReportCSV:
		return "csv"
	case ReportJSON:
		return "json"
	}
	return fmt.Sprintf("ReportFormat(%d)", int(f))
}

// ParseReportFormat parses the -report option.
func ParseReportFormat(s string) (ReportFormat, error) {
	switch s {
	case "csv":
		return ReportCSV, nil
	case "json":
		return ReportJSON, nil
	}
	return 0, fmt.Errorf("launcher: unknown report format %q (want csv|json)", s)
}

// WriteJSON renders measurements as the launcher's JSON report: everything
// the CSV carries, plus the full summary distribution, the simulated-PMU
// counters (when collected) and their derived metrics. Counter semantics:
// deltas over the measured region only (see Options.CollectCounters).
//
// The document is appended into one pre-sized buffer and written once; its
// bytes are exactly what encoding/json with a two-space indent makes of
// the report's struct shape (kept in report_test.go as the oracle).
// Floats use the shortest 'g' form, and a non-finite statistic (cv of an
// all-zero sample set, say) encodes as null rather than failing the report.
func WriteJSON(w io.Writer, ms []*Measurement) error {
	e := reportEncoder{b: make([]byte, 0, reportSizeHint(ms))}
	e.open('{')
	e.field("version")
	e.b = append(e.b, '1')
	e.field("measurements")
	e.open('[')
	for _, m := range ms {
		e.next()
		e.measurement(m)
	}
	e.close(']')
	e.close('}')
	e.b = append(e.b, '\n')
	_, err := w.Write(e.b)
	return err
}

// reportSizeHint estimates the encoded report's length so the buffer
// rarely grows: ~600 bytes per bare entry, ~1.3 KiB more with counters.
func reportSizeHint(ms []*Measurement) int {
	n := 64
	for _, m := range ms {
		n += 640 + len(m.Kernel) + 32*len(m.Arrays)
		if m.Adaptive != nil {
			n += 256
		}
		if m.Counters != nil {
			n += 1344
		}
		if m.Energy != nil {
			n += 96
		}
	}
	return n
}

// reportEncoder appends an indented JSON document: depth is the current
// nesting level and first is set until a container's first member has
// been written (it decides the comma, and an empty container's "[]").
type reportEncoder struct {
	b     []byte
	depth int
	first bool
}

// measurement appends one report entry.
func (e *reportEncoder) measurement(m *Measurement) {
	e.open('{')
	e.str("kernel", m.Kernel)
	e.str("mode", m.Mode.String())
	e.int("cores", int64(m.Cores))
	e.str("unit", m.Unit.String())
	e.float("value", m.Value)
	if m.ValuePerElement != 0 {
		e.float("value_per_element", m.ValuePerElement)
	}
	e.field("summary")
	e.open('{')
	s := &m.Summary
	e.int("n", int64(s.N))
	e.float("min", s.Min)
	e.float("median", s.Median)
	e.float("mean", s.Mean)
	e.float("max", s.Max)
	e.float("stddev", s.StdDev)
	// sample_stddev is the ÷(n−1) estimator rciw is built on; stddev
	// stays the historical population (÷n) figure. rciw, the relative 95%
	// confidence-interval width of the mean, is with cv the stability
	// signal consumers read to decide how far to trust the value.
	e.float("sample_stddev", s.SampleStdDev)
	e.float("cv", s.CV())
	e.float("rciw", s.RCIW())
	e.close('}')
	e.field("iterations")
	e.b = strconv.AppendUint(e.b, m.Iterations, 10)
	e.float("overhead_cycles", m.OverheadCycles)
	if m.StaticBound != 0 {
		e.float("static_bound", m.StaticBound)
	}
	e.field("truncated")
	e.b = strconv.AppendBool(e.b, m.Truncated)
	if len(m.Arrays) > 0 {
		e.field("arrays")
		e.open('[')
		for _, a := range m.Arrays {
			e.next()
			e.b = strconv.AppendUint(e.b, a, 10)
		}
		e.close(']')
	}
	if a := m.Adaptive; a != nil {
		e.field("adaptive")
		e.open('{')
		e.int("min_reps", int64(a.Plan.MinReps))
		e.int("max_reps", int64(a.Plan.MaxReps))
		e.float("target_rciw", a.Plan.TargetRCIW)
		e.int("stable_runs", int64(a.Plan.StableRuns))
		e.int("reps", int64(a.Reps))
		e.float("achieved_rciw", a.RCIW)
		e.str("stop_reason", a.StopReason)
		e.close('}')
	}
	if c := m.Counters; c != nil {
		e.counters(c)
	}
	if en := m.Energy; en != nil {
		e.field("energy")
		e.open('{')
		e.float("total_joules", en.TotalJoules)
		e.float("avg_watts", en.AvgWatts)
		e.close('}')
	}
	e.close('}')
}

// counters appends the raw simulated-PMU snapshot followed by the derived
// metrics performance engineers reach for first.
func (e *reportEncoder) counters(c *obs.Counters) {
	e.field("counters")
	e.open('{')
	e.field("mem")
	e.open('{')
	s := &c.Mem
	e.int("loads", s.Loads)
	e.int("stores", s.Stores)
	e.int("l1_hits", s.L1Hits)
	e.int("l1_misses", s.L1Misses)
	e.int("l2_hits", s.L2Hits)
	e.int("l2_misses", s.L2Misses)
	e.int("l3_hits", s.L3Hits)
	e.int("l3_misses", s.L3Misses)
	e.int("mem_accesses", s.MemAccesses)
	e.int("writebacks", s.Writebacks)
	e.int("bank_conflicts", s.BankConflicts)
	e.int("alias_stalls", s.AliasStalls)
	e.int("line_splits", s.LineSplits)
	e.int("prefetches", s.Prefetches)
	e.int("prefetch_hits", s.PrefetchHits)
	e.int("mshr_merges", s.MSHRMerges)
	e.int("mshr_full_waits", s.MSHRFullWaits)
	e.int("row_misses", s.RowMisses)
	e.int("bytes_from_memory", s.BytesFromMemory)
	e.close('}')
	e.int("retired_insts", c.RetiredInsts)
	e.int("branches", c.Branches)
	e.int("branch_mispredicts", c.BranchMispredicts)
	e.int("frontend_stall_cycles", c.FrontendStallCycles)
	e.int("interrupt_stall_cycles", c.InterruptStallCycles)
	e.int("core_cycles", c.CoreCycles)
	e.field("derived")
	e.open('{')
	e.float("cycles_per_inst", c.CPI())
	e.float("insts_per_cycle", c.IPC())
	e.float("l1_hit_rate", c.L1HitRate())
	e.float("l1_mpki", c.L1MPKI())
	e.float("l2_mpki", c.L2MPKI())
	e.float("l3_mpki", c.L3MPKI())
	e.float("mispredict_rate", c.MispredictRate())
	e.close('}')
	e.close('}')
}

// open starts an object or array one level deeper.
func (e *reportEncoder) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.first = true
}

// close ends the current container; an empty one stays on its line.
func (e *reportEncoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.b = append(e.b, c)
	e.first = false
}

// next starts a member: the separating comma, then a fresh indented line.
func (e *reportEncoder) next() {
	if !e.first {
		e.b = append(e.b, ',')
	}
	e.first = false
	e.newline()
}

// newlineIndent covers the report's deepest nesting (counters.mem, 5).
const newlineIndent = "\n            "

func (e *reportEncoder) newline() {
	e.b = append(e.b, newlineIndent[:1+2*e.depth]...)
}

// field starts an object member; names are plain ASCII literals.
func (e *reportEncoder) field(name string) {
	e.next()
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, `": `...)
}

func (e *reportEncoder) int(name string, v int64) {
	e.field(name)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *reportEncoder) float(name string, v float64) {
	e.field(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = strconv.AppendFloat(e.b, v, 'g', -1, 64)
}

func (e *reportEncoder) str(name, s string) {
	e.field(name)
	e.b = appendJSONString(e.b, s)
}

// appendJSONString appends s as a JSON string. A string encoding/json
// would copy verbatim is appended as-is; any other goes through
// json.Marshal, so HTML escaping and invalid-UTF-8 replacement stay
// exactly encoding/json's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteReport dispatches on the format.
func WriteReport(w io.Writer, format ReportFormat, ms []*Measurement) error {
	switch format {
	case ReportJSON:
		return WriteJSON(w, ms)
	default:
		return WriteCSV(w, ms)
	}
}
