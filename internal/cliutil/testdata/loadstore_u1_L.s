    .text
    .align 16
    .globl loadstore_u1_L
    .type loadstore_u1_L, @function
loadstore_u1_L:
    xor %eax, %eax
.L6:
    movaps (%rsi), %xmm0
    add $16, %rsi
    add $1, %eax
    sub $4, %rdi
    jge .L6
    ret
    .size loadstore_u1_L, .-loadstore_u1_L
