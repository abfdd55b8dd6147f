package dataflow_test

import (
	"math"
	"testing"

	"microtools/internal/dataflow"
	"microtools/internal/isa"
	"microtools/internal/verify"
)

// FuzzAnalyze asserts the analyzer's contract with verify: any source that
// parses and carries no error-severity findings must analyze on both Table 1
// microarchitectures without panicking, every bound must come out finite
// and non-negative, KernelBounds must equal Analyze's bounds, and
// KernelLiveness must equal the reference liveness analysis.
func FuzzAnalyze(f *testing.F) {
	f.Add(`
k:
	xor %eax, %eax
.L0:
	movaps (%rsi), %xmm0
	addps %xmm1, %xmm1
	add $16, %rsi
	add $1, %eax
	sub $4, %rdi
	jge .L0
	ret
`)
	f.Add(`
k:
.L0:
	mulss %xmm2, %xmm0
	addss %xmm0, %xmm2
	add $1, %eax
	sub $1, %rdi
	jge .L0
	ret
`)
	f.Add("k:\nret\n")
	f.Add("k:\n\tmov $1, %rax\n\tret\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, ds := verify.AsmProgram(src, "fuzz", verify.Options{})
		if prog == nil || ds.HasErrors() {
			return
		}
		for _, arch := range []*isa.Arch{isa.Nehalem(), isa.SandyBridge()} {
			rep, err := dataflow.Analyze(prog, arch)
			if err != nil {
				// The decoder's Validate is stricter than verify in a few
				// corners (e.g. GPR loads); a structured error is fine,
				// only a panic or a bad bound is a bug.
				continue
			}
			for name, v := range map[string]float64{
				"latency":    rep.LatencyBound,
				"throughput": rep.ThroughputBound,
				"frontend":   rep.FrontendBound,
				"lower":      rep.CyclesLowerBound,
			} {
				if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
					t.Fatalf("%s bound = %g on %s, want finite non-negative\nsrc:\n%s",
						name, v, arch.Name, src)
				}
			}
			checkBounds(t, "fuzz", prog, arch)
			checkLiveness(t, "fuzz", prog, arch)
			if rep.CyclesLowerBound < rep.LatencyBound ||
				rep.CyclesLowerBound < rep.ThroughputBound ||
				rep.CyclesLowerBound < rep.FrontendBound {
				t.Fatalf("lower bound %g below a component bound on %s\nsrc:\n%s",
					rep.CyclesLowerBound, arch.Name, src)
			}
		}
	})
}
