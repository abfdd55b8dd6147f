    .text
    .align 16
    .globl loadstore_u3_SLS
    .type loadstore_u3_SLS, @function
loadstore_u3_SLS:
    xor %eax, %eax
.L6:
    movaps %xmm0, (%rsi)
    movaps 16(%rsi), %xmm1
    movaps %xmm2, 32(%rsi)
    add $48, %rsi
    add $1, %eax
    sub $12, %rdi
    jge .L6
    ret
    .size loadstore_u3_SLS, .-loadstore_u3_SLS
