package verify

import (
	"microtools/internal/dataflow"
	"microtools/internal/isa"
)

// nehalem is the Arch every dataflowRules call analyzes against. It is
// shared read-only: decoding and analysis only read an Arch.
var nehalem = isa.Nehalem()

// dataflowRules runs the analysis-backed rules over a decoded program:
// dead register writes (V009), redundant self moves (V010) and — when
// opt.Recurrences asks for them — the loop-carried recurrence report
// (V011, info).
//
// V009 and V010 are liveness facts and hold on every microarchitecture;
// V011's cycle lengths are weighted with µop latencies, so it pins the
// baseline Nehalem tables to stay deterministic (use `microtools analyze
// -machine` for the per-machine view).
func dataflowRules(p *isa.Program, opt Options, add addFunc) {
	// V009/V010 are pure liveness facts; the full analysis (dependence DAG,
	// latency, port pressure) is only needed when the caller asked for the
	// recurrence report, so the common path runs the liveness-only scope.
	analyze := dataflow.AnalyzeLiveness
	if opt.Recurrences {
		analyze = dataflow.Analyze
	}
	rep, err := analyze(p, nehalem)
	if err != nil {
		// The program did not decode; the structural rules (V000/V001/
		// V006) already explain why.
		return
	}
	for _, d := range rep.DeadWrites {
		if d.HasMem {
			// The access itself is the workload (a bandwidth probe's
			// load); the unread destination is incidental, mirroring
			// V002's exemption for SSE target registers.
			continue
		}
		add(RuleDeadWrite, SeverityWarning, d.Index,
			"%s writes %s but no instruction can read the value", d.Inst, d.Resource)
	}
	for _, i := range rep.SelfMoves {
		add(RuleSelfMove, SeverityWarning, i,
			"%s moves a register onto itself", p.Insts[i].String())
	}
	if opt.Recurrences {
		for _, c := range rep.LoopCarried {
			if c.Length <= 0 {
				continue
			}
			add(RuleRecurrence, SeverityInfo, -1,
				"loop-carried recurrence through %s: %.2f cycles/iteration (latency bound %.2f)",
				c.Resource, c.Length, rep.LatencyBound)
		}
	}
}
