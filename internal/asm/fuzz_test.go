package asm

import (
	"testing"
)

// FuzzParseRoundTrip asserts the parser/printer pair is closed: any source
// the parser accepts must print back to assembly the parser accepts again,
// decoding to the same instruction stream. (The launcher and the verifier
// both rely on Print being a faithful rendering of the decoded program.)
func FuzzParseRoundTrip(f *testing.F) {
	f.Add(`
    .text
    .globl k
k:
.L0:
    movss (%rsi), %xmm0
    movaps 16(%rsi), %xmm1
    add $4, %rsi
    sub $1, %rdi
    jge .L0
    ret
`)
	f.Add(`
k:
.L0:
    xor %eax, %eax
    movsd %xmm2, 8(%rdx)
    lea 4(%rsi), %r10
    add $1, %eax
    sub $1, %rdi
    jge .L0
    ret
`)
	// sal with every size suffix parses as shl and prints back as shl.
	f.Add(`
k:
.L0:
    salb $1, %rax
    salw $1, %rax
    sall $1, %rax
    salq $1, %rax
    sub $1, %rdi
    jge .L0
    ret
`)
	f.Add("k:\nret\n")
	f.Add("garbage $$$\n")
	f.Fuzz(func(t *testing.T, src string) {
		progs, err := ParseString(src, "fuzz")
		if err != nil {
			return
		}
		for _, p := range progs {
			printed := p.Print()
			back, err := ParseOne(printed, p.Name)
			if err != nil {
				t.Fatalf("re-parse of printed program failed: %v\nprinted:\n%s", err, printed)
			}
			if len(back.Insts) != len(p.Insts) {
				t.Fatalf("round trip changed instruction count: %d -> %d\nprinted:\n%s",
					len(p.Insts), len(back.Insts), printed)
			}
			for i := range p.Insts {
				if back.Insts[i].Op != p.Insts[i].Op {
					t.Fatalf("round trip changed inst %d: %v -> %v", i, p.Insts[i], back.Insts[i])
				}
				if back.Insts[i].NOps != p.Insts[i].NOps {
					t.Fatalf("round trip changed operand count at %d: %v -> %v", i, p.Insts[i], back.Insts[i])
				}
			}
		}
	})
}
