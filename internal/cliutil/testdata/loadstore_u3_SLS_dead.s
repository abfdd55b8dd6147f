    .text
    .align 16
    .globl loadstore_u3_SLS_dead
    .type loadstore_u3_SLS_dead, @function
loadstore_u3_SLS_dead:
    xor %eax, %eax
.L6:
    movaps %xmm0, (%rsi)
    movaps 16(%rsi), %xmm1
    movaps %xmm2, 32(%rsi)
    add $48, %rsi
    mov $7, %rdx
    movaps %xmm4, %xmm4
    add $1, %eax
    sub $12, %rdi
    jge .L6
    ret
    .size loadstore_u3_SLS_dead, .-loadstore_u3_SLS_dead
