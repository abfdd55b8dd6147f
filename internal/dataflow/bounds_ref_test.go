package dataflow

import (
	"math"
	"math/rand"
	"testing"

	"microtools/internal/asm"
	"microtools/internal/isa"
)

// refCarriedDist is the register-slot scan carriedDist replaced: three walks
// over every slot per writing instruction. It is the reference the
// set-bit iteration must match bit for bit.
func refCarriedDist(a *analysis, s isa.Reg, dist *[isa.NumRegs]float64) {
	for r := range dist {
		dist[r] = negInf
	}
	dist[s] = 0
	for i := a.start; i <= a.end; i++ {
		if a.writes[i] == 0 {
			continue
		}
		best := negInf
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if a.reads[i].has(r) && dist[r] > best {
				best = dist[r]
			}
		}
		if best == negInf {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if a.writes[i].has(r) {
					dist[r] = negInf
				}
			}
			continue
		}
		d := best + a.defLat(i)
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if a.writes[i].has(r) {
				dist[r] = d
			}
		}
	}
}

// TestCarriedDistMatchesReference drives carriedDist and the reference scan
// over random read/write sets on a loop whose instructions carry different
// latencies, from every source register.
func TestCarriedDistMatchesReference(t *testing.T) {
	p, err := asm.ParseOne(`
k:
.L0:
	addps %xmm1, %xmm2
	mulsd %xmm3, %xmm4
	imul %rax, %rbx
	mulss %xmm5, %xmm6
	movaps (%rsi), %xmm7
	add $1, %eax
	lea 8(%rsi), %rcx
	sub $4, %rdi
	jge .L0
	ret
`, "k")
	if err != nil {
		t.Fatal(err)
	}
	arch := isa.Nehalem()
	dp, err := p.Decoded(arch)
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis{prog: p, dp: dp, arch: arch}
	a.scan()
	if !a.hasLoop {
		t.Fatal("test kernel has no loop")
	}
	rng := rand.New(rand.NewSource(1))
	// randomSet draws a sparse, dense or empty set over the valid slots.
	randomSet := func() bitset {
		var b bitset
		density := []int{0, 3, 10, 30}[rng.Intn(4)]
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if rng.Intn(34) < density {
				b.add(r)
			}
		}
		return b
	}
	var got, want [isa.NumRegs]float64
	for trial := 0; trial < 2000; trial++ {
		for i := a.start; i <= a.end; i++ {
			a.reads[i], a.writes[i] = randomSet(), randomSet()
		}
		for s := isa.Reg(0); s < isa.NumRegs; s++ {
			a.carriedDist(s, &got)
			refCarriedDist(a, s, &want)
			for r := range got {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("trial %d source %d: dist[%d] = %v, reference %v", trial, s, r, got[r], want[r])
				}
			}
		}
	}
}
