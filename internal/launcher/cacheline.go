package launcher

import (
	"math"
	"strconv"
	"unicode/utf8"

	"microtools/internal/memsim"
)

// AppendCacheLine appends the measurement cache's JSONL line for m under
// key, {"key":…,"measurement":{…}} and a newline, and reports whether m is
// canonical: whether decoding the line gives back m exactly.
//
// The bytes are exactly encoding/json's compact form of the line: the
// struct's field order and names, Adaptive omitted when nil, nil Counters,
// Energy and Arrays as null, floats in encoding/json's shortest 'f' or 'e'
// form, and stats.Stability's null for a non-finite rciw (read back as
// +Inf). When the result is false the bytes must not be used: m holds a
// string with invalid UTF-8 (encoding/json replaces those bytes), an rciw
// of -Inf or NaN (it reads back as +Inf), or a non-finite float anywhere
// else (encoding/json rejects it). Callers then take the reflection path,
// which reproduces each of those outcomes.
func AppendCacheLine(b []byte, key string, m *Measurement) ([]byte, bool) {
	e := lineEncoder{b: b, ok: true}
	e.lit(`{"key":`)
	e.b = appendJSONString(e.b, key)
	e.lit(`,"measurement":{"Kernel":`)
	e.str(m.Kernel)
	e.int(`,"Mode":`, int64(m.Mode))
	e.int(`,"Cores":`, int64(m.Cores))
	e.float(`,"Value":`, m.Value)
	e.int(`,"Unit":`, int64(m.Unit))
	s := &m.Summary
	e.int(`,"Summary":{"N":`, int64(s.N))
	e.float(`,"Min":`, s.Min)
	e.float(`,"Max":`, s.Max)
	e.float(`,"Mean":`, s.Mean)
	e.float(`,"Median":`, s.Median)
	e.float(`,"StdDev":`, s.StdDev)
	e.float(`,"SampleStdDev":`, s.SampleStdDev)
	st := &m.Stability
	e.int(`},"Stability":{"n":`, int64(st.N))
	e.float(`,"mean":`, st.Mean)
	e.float(`,"cv":`, st.CV)
	if r := st.RCIW; math.IsInf(r, 0) || math.IsNaN(r) {
		e.lit(`,"rciw":null`)
		e.ok = e.ok && math.IsInf(r, 1)
	} else {
		e.float(`,"rciw":`, r)
	}
	e.lit(`},"Iterations":`)
	e.b = strconv.AppendUint(e.b, m.Iterations, 10)
	e.float(`,"ValuePerElement":`, m.ValuePerElement)
	e.float(`,"OverheadCycles":`, m.OverheadCycles)
	e.float(`,"StaticBound":`, m.StaticBound)
	e.lit(`,"Truncated":`)
	e.b = strconv.AppendBool(e.b, m.Truncated)
	e.lit(`,"Arrays":`)
	if m.Arrays == nil {
		e.lit("null")
	} else {
		e.lit("[")
		for i, a := range m.Arrays {
			if i > 0 {
				e.lit(",")
			}
			e.b = strconv.AppendUint(e.b, a, 10)
		}
		e.lit("]")
	}
	e.memStats(`,"MemStats":{"loads":`, &m.MemStats)
	if a := m.Adaptive; a != nil {
		e.int(`,"Adaptive":{"Plan":{"MinReps":`, int64(a.Plan.MinReps))
		e.int(`,"MaxReps":`, int64(a.Plan.MaxReps))
		e.float(`,"TargetRCIW":`, a.Plan.TargetRCIW)
		e.int(`,"StableRuns":`, int64(a.Plan.StableRuns))
		e.int(`},"Reps":`, int64(a.Reps))
		e.float(`,"RCIW":`, a.RCIW)
		e.lit(`,"StopReason":`)
		e.str(a.StopReason)
		e.lit("}")
	}
	if c := m.Counters; c != nil {
		e.memStats(`,"Counters":{"mem":{"loads":`, &c.Mem)
		e.int(`,"retired_insts":`, c.RetiredInsts)
		e.int(`,"branches":`, c.Branches)
		e.int(`,"branch_mispredicts":`, c.BranchMispredicts)
		e.int(`,"frontend_stall_cycles":`, c.FrontendStallCycles)
		e.int(`,"interrupt_stall_cycles":`, c.InterruptStallCycles)
		e.int(`,"core_cycles":`, c.CoreCycles)
		e.lit("}")
	} else {
		e.lit(`,"Counters":null`)
	}
	if en := m.Energy; en != nil {
		e.float(`,"Energy":{"DynamicJoules":`, en.DynamicJoules)
		e.float(`,"StaticJoules":`, en.StaticJoules)
		e.float(`,"TotalJoules":`, en.TotalJoules)
		e.float(`,"AvgWatts":`, en.AvgWatts)
		e.float(`,"EnergyDelayProduct":`, en.EnergyDelayProduct)
		e.lit("}")
	} else {
		e.lit(`,"Energy":null`)
	}
	e.lit("}}\n")
	return e.b, e.ok
}

// lineEncoder appends one compact cache line. Each prefix carries the
// punctuation and member name before its value; ok drops to false on the
// first value whose decoded copy would differ from the encoded one.
type lineEncoder struct {
	b  []byte
	ok bool
}

func (e *lineEncoder) lit(s string) {
	e.b = append(e.b, s...)
}

func (e *lineEncoder) int(prefix string, v int64) {
	e.b = append(e.b, prefix...)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *lineEncoder) float(prefix string, v float64) {
	e.b = append(e.b, prefix...)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		e.ok = false
		return
	}
	e.b = appendJSONFloat(e.b, v)
}

func (e *lineEncoder) str(s string) {
	e.ok = e.ok && utf8.ValidString(s)
	e.b = appendJSONString(e.b, s)
}

// memStats appends a memsim.Stats object after prefix, which opens it and
// names its first member.
func (e *lineEncoder) memStats(prefix string, s *memsim.Stats) {
	e.int(prefix, s.Loads)
	e.int(`,"stores":`, s.Stores)
	e.int(`,"l1_hits":`, s.L1Hits)
	e.int(`,"l1_misses":`, s.L1Misses)
	e.int(`,"l2_hits":`, s.L2Hits)
	e.int(`,"l2_misses":`, s.L2Misses)
	e.int(`,"l3_hits":`, s.L3Hits)
	e.int(`,"l3_misses":`, s.L3Misses)
	e.int(`,"mem_accesses":`, s.MemAccesses)
	e.int(`,"writebacks":`, s.Writebacks)
	e.int(`,"bank_conflicts":`, s.BankConflicts)
	e.int(`,"alias_stalls":`, s.AliasStalls)
	e.int(`,"line_splits":`, s.LineSplits)
	e.int(`,"prefetches":`, s.Prefetches)
	e.int(`,"prefetch_hits":`, s.PrefetchHits)
	e.int(`,"mshr_merges":`, s.MSHRMerges)
	e.int(`,"mshr_full_waits":`, s.MSHRFullWaits)
	e.int(`,"row_misses":`, s.RowMisses)
	e.int(`,"bytes_from_memory":`, s.BytesFromMemory)
	e.lit("}")
}

// appendJSONFloat appends a finite float64 in encoding/json's form: the
// shortest 'f' digits, or 'e' outside [1e-6, 1e21) with a two-digit
// negative exponent trimmed (1e-07 → 1e-7). The report's 'g' form is a
// different shape; the cache line must match encoding/json's bytes.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
