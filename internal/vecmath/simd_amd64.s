//go:build amd64 && !purego

#include "textflag.h"

// SSE2 float32 kernels. Bit-identity contract (DESIGN.md §7): each kernel
// processes 4 lanes per step, mirroring the generic kernels' 4-way unroll
// — lane k of an XMM accumulator corresponds to scalar accumulator s_k —
// and tails are handled element-wise exactly as the generic tail loops
// are. MULPS/ADDPS round each lane to float32 independently (SSE2 has no
// FMA), so every intermediate equals its scalar counterpart bit for bit.
// Unaligned loads (MOVUPS/MOVUPD-free, MOVOU on integers not needed) are
// used throughout because model rows are float32-aligned only.

// func dotSSE2(a, b []float32) float32
TEXT ·dotSSE2(SB), NOSPLIT, $0-52
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	MOVQ  b_base+24(FP), DI
	XORPS X0, X0              // X0 lanes = accumulators (s0,s1,s2,s3)
	XORQ  AX, AX              // element index
	MOVQ  CX, DX
	ANDQ  $-4, DX             // DX = n - n%4

dot_blk4:
	CMPQ   AX, DX
	JGE    dot_tail
	MOVUPS (SI)(AX*4), X1
	MOVUPS (DI)(AX*4), X2
	MULPS  X2, X1             // X1 = a[i:i+4] * b[i:i+4], per-lane rounded
	ADDPS  X1, X0             // s_k += a[i+k]*b[i+k]
	ADDQ   $4, AX
	JMP    dot_blk4

dot_tail:
	CMPQ  AX, CX
	JGE   dot_reduce
	MOVSS (SI)(AX*4), X1
	MULSS (DI)(AX*4), X1
	ADDSS X1, X0              // tail folds into s0 (lane 0)
	INCQ  AX
	JMP   dot_tail

dot_reduce:
	// ((s0+s1)+s2)+s3 — the generic kernel's left-associated reduction.
	MOVAPS X0, X1
	SHUFPS $0x55, X1, X1      // broadcast lane 1 (s1)
	ADDSS  X1, X0             // lane0 = s0+s1; lanes 2,3 untouched
	MOVAPS X0, X1
	SHUFPS $0xAA, X1, X1      // broadcast lane 2 (s2)
	ADDSS  X1, X0             // lane0 = (s0+s1)+s2
	MOVAPS X0, X1
	SHUFPS $0xFF, X1, X1      // broadcast lane 3 (s3)
	ADDSS  X1, X0             // lane0 = ((s0+s1)+s2)+s3
	MOVSS  X0, ret+48(FP)
	RET

// func axpySSE2(alpha float32, x, y []float32)
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0      // broadcast alpha to all lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

axpy_blk4:
	CMPQ   AX, DX
	JGE    axpy_tail
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1             // alpha*x
	MOVUPS (DI)(AX*4), X2
	ADDPS  X1, X2             // y + alpha*x
	MOVUPS X2, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    axpy_blk4

axpy_tail:
	CMPQ  AX, CX
	JGE   axpy_done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X2
	ADDSS X1, X2
	MOVSS X2, (DI)(AX*4)
	INCQ  AX
	JMP   axpy_tail

axpy_done:
	RET

// func scaleSSE2(alpha float32, x []float32)
TEXT ·scaleSSE2(SB), NOSPLIT, $0-32
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

scale_blk4:
	CMPQ   AX, DX
	JGE    scale_tail
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS X1, (SI)(AX*4)
	ADDQ   $4, AX
	JMP    scale_blk4

scale_tail:
	CMPQ  AX, CX
	JGE   scale_done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS X1, (SI)(AX*4)
	INCQ  AX
	JMP   scale_tail

scale_done:
	RET

// func zeroSSE2(x []float32)
TEXT ·zeroSSE2(SB), NOSPLIT, $0-24
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	XORPS X0, X0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX

zero_blk4:
	CMPQ   AX, DX
	JGE    zero_tail
	MOVUPS X0, (SI)(AX*4)
	ADDQ   $4, AX
	JMP    zero_blk4

zero_tail:
	CMPQ  AX, CX
	JGE   zero_done
	MOVSS X0, (SI)(AX*4)
	INCQ  AX
	JMP   zero_tail

zero_done:
	RET

// func addSSE2(dst, a, b []float32)
TEXT ·addSSE2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

add_blk4:
	CMPQ   AX, DX
	JGE    add_tail
	MOVUPS (SI)(AX*4), X1
	MOVUPS (BX)(AX*4), X2
	ADDPS  X2, X1             // a + b
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    add_blk4

add_tail:
	CMPQ  AX, CX
	JGE   add_done
	MOVSS (SI)(AX*4), X1
	ADDSS (BX)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   add_tail

add_done:
	RET

// func subSSE2(dst, a, b []float32)
TEXT ·subSSE2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

sub_blk4:
	CMPQ   AX, DX
	JGE    sub_tail
	MOVUPS (SI)(AX*4), X1
	MOVUPS (BX)(AX*4), X2
	SUBPS  X2, X1             // a - b
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    sub_blk4

sub_tail:
	CMPQ  AX, CX
	JGE   sub_done
	MOVSS (SI)(AX*4), X1
	SUBSS (BX)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   sub_tail

sub_done:
	RET

// func updatePairSSE2(emb, ctx, neu1e []float32, grad float32)
//
// Fused SGNS edge update: neu1e += g*ctx (pre-update ctx), ctx += g*emb,
// in one pass. ctx is loaded once per block, used for the neu1e
// accumulation, then updated and stored — the same read-before-write
// order as the element-wise definition.
TEXT ·updatePairSSE2(SB), NOSPLIT, $0-76
	MOVQ   emb_base+0(FP), SI
	MOVQ   emb_len+8(FP), CX
	MOVQ   ctx_base+24(FP), DI
	MOVQ   neu1e_base+48(FP), BX
	MOVSS  grad+72(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

up_blk4:
	CMPQ   AX, DX
	JGE    up_tail
	MOVUPS (DI)(AX*4), X1     // ctx (pre-update)
	MOVAPS X1, X2
	MULPS  X0, X2             // g*ctx
	MOVUPS (BX)(AX*4), X3
	ADDPS  X2, X3             // neu1e + g*ctx
	MOVUPS X3, (BX)(AX*4)
	MOVUPS (SI)(AX*4), X4
	MULPS  X0, X4             // g*emb
	ADDPS  X4, X1             // ctx + g*emb
	MOVUPS X1, (DI)(AX*4)
	ADDQ   $4, AX
	JMP    up_blk4

up_tail:
	CMPQ   AX, CX
	JGE    up_done
	MOVSS  (DI)(AX*4), X1
	MOVAPS X1, X2
	MULSS  X0, X2
	MOVSS  (BX)(AX*4), X3
	ADDSS  X2, X3
	MOVSS  X3, (BX)(AX*4)
	MOVSS  (SI)(AX*4), X4
	MULSS  X0, X4
	ADDSS  X4, X1
	MOVSS  X1, (DI)(AX*4)
	INCQ   AX
	JMP    up_tail

up_done:
	RET

// func updatePairDotSSE2(emb, ctx, neu1e []float32, grad float32, next []float32) float32
//
// updatePairSSE2 and dotSSE2(emb, next) in one pass: each block runs the
// update exactly as up_blk4 does, then multiplies the same emb lanes by
// next (emb as the destination operand, as in dotSSE2) into the X5
// accumulators. The tail folds into lane 0 and the reduction is
// dot_reduce's, so both outputs match the two kernels bit for bit. next
// must not overlap ctx (UpdatePairDot routes next == ctx elsewhere).
TEXT ·updatePairDotSSE2(SB), NOSPLIT, $0-108
	MOVQ   emb_base+0(FP), SI
	MOVQ   emb_len+8(FP), CX
	MOVQ   ctx_base+24(FP), DI
	MOVQ   neu1e_base+48(FP), BX
	MOVSS  grad+72(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   next_base+80(FP), R8
	XORPS  X5, X5             // X5 lanes = dot accumulators (s0,s1,s2,s3)
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

upd_blk4:
	CMPQ   AX, DX
	JGE    upd_tail
	MOVUPS (DI)(AX*4), X1     // ctx (pre-update)
	MOVAPS X1, X2
	MULPS  X0, X2             // g*ctx
	MOVUPS (BX)(AX*4), X3
	ADDPS  X2, X3             // neu1e + g*ctx
	MOVUPS X3, (BX)(AX*4)
	MOVUPS (SI)(AX*4), X4     // emb
	MOVAPS X4, X6
	MULPS  X0, X4             // g*emb
	ADDPS  X4, X1             // ctx + g*emb
	MOVUPS X1, (DI)(AX*4)
	MOVUPS (R8)(AX*4), X7     // next
	MULPS  X7, X6             // emb*next, per-lane rounded
	ADDPS  X6, X5             // s_k += emb[i+k]*next[i+k]
	ADDQ   $4, AX
	JMP    upd_blk4

upd_tail:
	CMPQ   AX, CX
	JGE    upd_reduce
	MOVSS  (DI)(AX*4), X1
	MOVAPS X1, X2
	MULSS  X0, X2
	MOVSS  (BX)(AX*4), X3
	ADDSS  X2, X3
	MOVSS  X3, (BX)(AX*4)
	MOVSS  (SI)(AX*4), X4
	MOVAPS X4, X6
	MULSS  X0, X4
	ADDSS  X4, X1
	MOVSS  X1, (DI)(AX*4)
	MULSS  (R8)(AX*4), X6
	ADDSS  X6, X5             // tail folds into s0 (lane 0)
	INCQ   AX
	JMP    upd_tail

upd_reduce:
	// ((s0+s1)+s2)+s3, as dot_reduce.
	MOVAPS X5, X1
	SHUFPS $0x55, X1, X1
	ADDSS  X1, X5
	MOVAPS X5, X1
	SHUFPS $0xAA, X1, X1
	ADDSS  X1, X5
	MOVAPS X5, X1
	SHUFPS $0xFF, X1, X1
	ADDSS  X1, X5
	MOVSS  X5, ret+104(FP)
	RET

// func gemmSSE2(dst, a, b []float32, m, k, n int)
//
// dst += A·B as k-deep outer-product accumulation: for each (i, l) the
// inner loop is exactly axpySSE2(a[i*k+l], b[l*n:], dst[i*n:]) — same
// 4-lane block, same scalar tail — and the (i, l) walk order matches
// gemmGeneric, so every dst[i][j] accumulates the identical float32
// sequence. Row pointers are carried in registers (DX=dst row, CX=a row,
// R13=b row) and advanced by n/k elements per loop instead of
// re-multiplying indices.
TEXT ·gemmSSE2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ m+72(FP), R8
	MOVQ k+80(FP), R9
	MOVQ n+88(FP), R10
	MOVQ R10, R14
	ANDQ $-4, R14             // R14 = n - n%4
	MOVQ DI, DX               // dst row pointer
	MOVQ SI, CX               // a row pointer
	XORQ R11, R11             // i

gemm_i:
	CMPQ R11, R8
	JGE  gemm_done
	XORQ R12, R12             // l
	MOVQ BX, R13              // b row pointer

gemm_l:
	CMPQ   R12, R9
	JGE    gemm_next_i
	MOVSS  (CX)(R12*4), X0    // alpha = a[i][l]
	SHUFPS $0x00, X0, X0      // broadcast alpha
	XORQ   AX, AX             // j

gemm_blk4:
	CMPQ   AX, R14
	JGE    gemm_tail
	MOVUPS (R13)(AX*4), X1
	MULPS  X0, X1             // alpha * b[l][j:j+4]
	MOVUPS (DX)(AX*4), X2
	ADDPS  X1, X2             // dst[i][j:j+4] + alpha*b
	MOVUPS X2, (DX)(AX*4)
	ADDQ   $4, AX
	JMP    gemm_blk4

gemm_tail:
	CMPQ  AX, R10
	JGE   gemm_next_l
	MOVSS (R13)(AX*4), X1
	MULSS X0, X1
	MOVSS (DX)(AX*4), X2
	ADDSS X1, X2
	MOVSS X2, (DX)(AX*4)
	INCQ  AX
	JMP   gemm_tail

gemm_next_l:
	LEAQ (R13)(R10*4), R13    // b row += n
	INCQ R12
	JMP  gemm_l

gemm_next_i:
	LEAQ (DX)(R10*4), DX      // dst row += n
	LEAQ (CX)(R9*4), CX       // a row += k
	INCQ R11
	JMP  gemm_i

gemm_done:
	RET
