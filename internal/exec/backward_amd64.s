#include "textflag.h"

// AVX2 kernels of the training step (see backward_amd64.go). Every lane
// is one element's own sum or update, and each instruction keeps the Go
// loop's operand order: d·x and d·w multiply d first, a sum adds the
// product to the running value (VADDPS product, sum, sum), the update
// subtracts lr·g from w. There is no FMA.

// TAPSTEP adds d·x[p+off] to one stream's sum acc: Y8 holds d, R12 the
// gradient's x address, off the stream's offset register.
#define TAPSTEP(off, acc) \
	VMULPS (R12)(off*1), Y8, Y9; \
	VADDPS Y9, acc, acc

// TAPAXPY adds d·w to dx[p+off] for one stream: R13 holds the
// gradient's dx address, wv the stream's weights.
#define TAPAXPY(off, wv) \
	VMULPS wv, Y8, Y9; \
	VMOVUPS (R13)(off*1), Y10; \
	VADDPS Y9, Y10, Y10; \
	VMOVUPS Y10, (R13)(off*1)

// TAPLOAD reads the next gradient: d broadcast into Y8, and p (a signed
// 32-bit float offset) into DX as bytes.
#define TAPLOAD \
	VBROADCASTSS (SI), Y8; \
	MOVLQSX 4(SI), DX; \
	SHLQ $2, DX

// GATHER loads one stream's eight lanes, a kernel area apart: the
// stream's dW sums from R12 and weights from R13, at index DX, into acc
// and wv. Y14 holds the lane indices.
#define GATHER(acc, wv) \
	LEAQ (R12)(DX*4), AX; \
	VPCMPEQD Y15, Y15, Y15; \
	VGATHERDPS Y15, (AX)(Y14*4), acc; \
	LEAQ (R13)(DX*4), AX; \
	VPCMPEQD Y15, Y15, Y15; \
	VGATHERDPS Y15, (AX)(Y14*4), wv

// SCATTER stores one stream's eight dW sums back to R12 at index DX,
// lanes R10 bytes apart (R11 three lanes).
#define SCATTER(acc, accx) \
	LEAQ (R12)(DX*4), AX; \
	LEAQ (AX)(R10*4), BX; \
	VEXTRACTPS $0, accx, (AX); \
	VEXTRACTPS $1, accx, (AX)(R10*1); \
	VEXTRACTPS $2, accx, (AX)(R10*2); \
	VEXTRACTPS $3, accx, (AX)(R11*1); \
	VEXTRACTF128 $1, acc, X9; \
	VEXTRACTPS $0, X9, (BX); \
	VEXTRACTPS $1, X9, (BX)(R10*1); \
	VEXTRACTPS $2, X9, (BX)(R10*2); \
	VEXTRACTPS $3, X9, (BX)(R11*1)

// LANESTRIDE sets R10 to the lane stride in bytes (lanes[1] floats)
// and R11 to three of them; CX holds lanes.
#define LANESTRIDE \
	MOVLQSX 4(CX), R10; \
	SHLQ $2, R10; \
	LEAQ (R10)(R10*2), R11

// func tapGrad4(rs *gradAt, n int, x, dx *float32, offs *[4]int, dw, w *float32, at *[4]int, lanes *[8]int32)
//
// Four streams: stream j's eight dW sums and weights are dw[at[j] +
// lanes[r]] and w[at[j] + lanes[r]], r = 0…7. For each of the n
// gradients (d, p) of rs in order, and each stream j: sum j += d·x[p +
// offs[j] : +8], and, when dx is not nil, dx[p + offs[j] : +8] += d·w
// of stream j. Registers in the loop: SI the gradient, CX the count, BX
// x, DI dx, R8–R11 the offsets in bytes, Y0–Y3 the sums, Y4–Y7 the
// weights.
TEXT ·tapGrad4(SB), NOSPLIT, $0-72
	MOVQ lanes+64(FP), CX
	VMOVDQU (CX), Y14
	MOVQ dw+40(FP), R12
	MOVQ w+48(FP), R13
	MOVQ at+56(FP), SI
	MOVQ 0(SI), DX
	GATHER(Y0, Y4)
	MOVQ 8(SI), DX
	GATHER(Y1, Y5)
	MOVQ 16(SI), DX
	GATHER(Y2, Y6)
	MOVQ 24(SI), DX
	GATHER(Y3, Y7)
	MOVQ rs+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), BX
	MOVQ dx+24(FP), DI
	MOVQ offs+32(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	TESTQ CX, CX
	JZ    done4
	TESTQ DI, DI
	JZ    dot4

axpy4:
	TAPLOAD
	LEAQ (BX)(DX*1), R12
	LEAQ (DI)(DX*1), R13
	TAPSTEP(R8, Y0)
	TAPAXPY(R8, Y4)
	TAPSTEP(R9, Y1)
	TAPAXPY(R9, Y5)
	TAPSTEP(R10, Y2)
	TAPAXPY(R10, Y6)
	TAPSTEP(R11, Y3)
	TAPAXPY(R11, Y7)
	ADDQ $8, SI
	DECQ CX
	JNZ  axpy4
	JMP  done4

dot4:
	TAPLOAD
	LEAQ (BX)(DX*1), R12
	TAPSTEP(R8, Y0)
	TAPSTEP(R9, Y1)
	TAPSTEP(R10, Y2)
	TAPSTEP(R11, Y3)
	ADDQ $8, SI
	DECQ CX
	JNZ  dot4

done4:
	MOVQ lanes+64(FP), CX
	LANESTRIDE
	MOVQ dw+40(FP), R12
	MOVQ at+56(FP), SI
	MOVQ 0(SI), DX
	SCATTER(Y0, X0)
	MOVQ 8(SI), DX
	SCATTER(Y1, X1)
	MOVQ 16(SI), DX
	SCATTER(Y2, X2)
	MOVQ 24(SI), DX
	SCATTER(Y3, X3)
	VZEROUPPER
	RET

// func tapGrad1(rs *gradAt, n int, x, dx *float32, off int, dw, w *float32, lanes *[8]int32)
//
// tapGrad4 for one stream, whose sums and weights start at dw and w.
TEXT ·tapGrad1(SB), NOSPLIT, $0-64
	MOVQ lanes+56(FP), CX
	VMOVDQU (CX), Y14
	MOVQ dw+40(FP), R12
	MOVQ w+48(FP), R13
	XORQ DX, DX
	GATHER(Y0, Y4)
	MOVQ rs+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), BX
	MOVQ dx+24(FP), DI
	MOVQ off+32(FP), R8
	SHLQ $2, R8
	TESTQ CX, CX
	JZ    done1
	TESTQ DI, DI
	JZ    dot1

axpy1:
	TAPLOAD
	LEAQ (BX)(DX*1), R12
	LEAQ (DI)(DX*1), R13
	TAPSTEP(R8, Y0)
	TAPAXPY(R8, Y4)
	ADDQ $8, SI
	DECQ CX
	JNZ  axpy1
	JMP  done1

dot1:
	TAPLOAD
	LEAQ (BX)(DX*1), R12
	TAPSTEP(R8, Y0)
	ADDQ $8, SI
	DECQ CX
	JNZ  dot1

done1:
	MOVQ lanes+56(FP), CX
	LANESTRIDE
	MOVQ dw+40(FP), R12
	XORQ DX, DX
	SCATTER(Y0, X0)
	VZEROUPPER
	RET

// func gradRow8(d float32, x, w, dw, dx *float32, n int)
//
// For i < n, a multiple of 8: dw[i] += d·x[i], and, when dx is not nil,
// dx[i] += d·w[i]. Registers: Y8 d, SI x, BX w, DI dw, DX dx, CX the
// count of eight-float steps.
TEXT ·gradRow8(SB), NOSPLIT, $0-48
	VBROADCASTSS d+0(FP), Y8
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), BX
	MOVQ dw+24(FP), DI
	MOVQ dx+32(FP), DX
	MOVQ n+40(FP), CX
	SHRQ $3, CX
	JZ   rowdone
	TESTQ DX, DX
	JZ   rowdot

rowaxpy:
	VMULPS  (SI), Y8, Y0
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	VMULPS  (BX), Y8, Y2
	VMOVUPS (DX), Y3
	VADDPS  Y2, Y3, Y3
	VMOVUPS Y3, (DX)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  rowaxpy
	JMP  rowdone

rowdot:
	VMULPS  (SI), Y8, Y0
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  rowdot

rowdone:
	VZEROUPPER
	RET

// func sgd8(w, grads *float32, n int, scale, lr float32)
//
// For i < n, a multiple of 8: w[i] -= lr·(grads[i]·scale), each product
// rounded on its own, as ApplySGD's Go loop. Registers: DI w, SI grads, CX
// the count of eight-float steps, Y6 scale, Y7 lr.
TEXT ·sgd8(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), DI
	MOVQ grads+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y6
	VBROADCASTSS lr+28(FP), Y7
	SHRQ $3, CX
	JZ   sgddone

sgdloop:
	VMOVUPS (SI), Y0
	VMULPS  Y6, Y0, Y0
	VMULPS  Y0, Y7, Y1
	VMOVUPS (DI), Y2
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  sgdloop

sgddone:
	VZEROUPPER
	RET
