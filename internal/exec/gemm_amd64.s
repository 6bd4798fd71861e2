#include "textflag.h"

// AVX2 micro-kernels of gemmTask (see gemm_amd64.go). Each computes
//
//	c[8·j + r] = bias[r] + Σ_k a[8·k + r]·b[k·ks + j·cs], k ascending,
//
// for the kernel's column count j and the eight lanes r. Per k it loads
// one packed 8-row weight vector, broadcasts each column's B element and
// runs VMULPS, then VADDPS: each product and each sum rounds to float32,
// exactly Go's c += w*x. There is no FMA. ks and cs are strides in
// floats. Registers: SI weights, BX column 0 of B, R10 column 4, R8 the
// column stride, R9 three column strides, DX the k-stride, CX the k
// count, DI the tile, Y0-Y7 the sums, Y8 the weight vector.

#define SETUP \
	MOVQ a+0(FP), SI; \
	MOVQ b+8(FP), BX; \
	MOVQ bias+16(FP), AX; \
	MOVQ c+24(FP), DI; \
	MOVQ k+32(FP), CX; \
	MOVQ ks+40(FP), DX; \
	MOVQ cs+48(FP), R8; \
	SHLQ $2, DX; \
	SHLQ $2, R8; \
	LEAQ (R8)(R8*2), R9; \
	LEAQ (BX)(R8*4), R10

// STEP adds w·x to the sums of one column: x at addr, sum in acc.
#define STEP(addr, tmp, acc) \
	VBROADCASTSS addr, tmp; \
	VMULPS tmp, Y8, tmp; \
	VADDPS tmp, acc, acc

// func gemm8x8(a, b, bias, c *float32, k, ks, cs int)
TEXT ·gemm8x8(SB), NOSPLIT, $0-56
	SETUP
	VMOVUPS (AX), Y0
	VMOVUPS Y0, Y1
	VMOVUPS Y0, Y2
	VMOVUPS Y0, Y3
	VMOVUPS Y0, Y4
	VMOVUPS Y0, Y5
	VMOVUPS Y0, Y6
	VMOVUPS Y0, Y7
	TESTQ CX, CX
	JZ    store8

loop8:
	VMOVUPS (SI), Y8
	STEP((BX), Y9, Y0)
	STEP((BX)(R8*1), Y10, Y1)
	STEP((BX)(R8*2), Y11, Y2)
	STEP((BX)(R9*1), Y12, Y3)
	STEP((R10), Y13, Y4)
	STEP((R10)(R8*1), Y14, Y5)
	STEP((R10)(R8*2), Y15, Y6)
	STEP((R10)(R9*1), Y9, Y7)
	ADDQ $32, SI
	ADDQ DX, BX
	ADDQ DX, R10
	DECQ CX
	JNZ  loop8

store8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func gemm8x4(a, b, bias, c *float32, k, ks, cs int)
TEXT ·gemm8x4(SB), NOSPLIT, $0-56
	SETUP
	VMOVUPS (AX), Y0
	VMOVUPS Y0, Y1
	VMOVUPS Y0, Y2
	VMOVUPS Y0, Y3
	TESTQ CX, CX
	JZ    store4

loop4:
	VMOVUPS (SI), Y8
	STEP((BX), Y9, Y0)
	STEP((BX)(R8*1), Y10, Y1)
	STEP((BX)(R8*2), Y11, Y2)
	STEP((BX)(R9*1), Y12, Y3)
	ADDQ $32, SI
	ADDQ DX, BX
	DECQ CX
	JNZ  loop4

store4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func gemm8x2(a, b, bias, c *float32, k, ks, cs int)
TEXT ·gemm8x2(SB), NOSPLIT, $0-56
	SETUP
	VMOVUPS (AX), Y0
	VMOVUPS Y0, Y1
	TESTQ CX, CX
	JZ    store2

loop2:
	VMOVUPS (SI), Y8
	STEP((BX), Y9, Y0)
	STEP((BX)(R8*1), Y10, Y1)
	ADDQ $32, SI
	ADDQ DX, BX
	DECQ CX
	JNZ  loop2

store2:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm8x1(a, b, bias, c *float32, k, ks, cs int)
TEXT ·gemm8x1(SB), NOSPLIT, $0-56
	SETUP
	VMOVUPS (AX), Y0
	TESTQ CX, CX
	JZ    store1

loop1:
	VMOVUPS (SI), Y8
	STEP((BX), Y9, Y0)
	ADDQ $32, SI
	ADDQ DX, BX
	DECQ CX
	JNZ  loop1

store1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// TRANSPOSE8 transposes the 8×8 block of rows Y0–Y7 into columns
// Y8–Y15: Y(8+i) holds float i of every row, row 0 in lane 0. It is
// VUNPCKLPS/VUNPCKHPS (row pairs interleaved), VSHUFPS (four rows per
// 128-bit lane) and VPERM2F128 (the lanes joined).
#define TRANSPOSE8 \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VSHUFPS $0x44, Y10, Y8, Y0; \
	VSHUFPS $0xEE, Y10, Y8, Y1; \
	VSHUFPS $0x44, Y11, Y9, Y2; \
	VSHUFPS $0xEE, Y11, Y9, Y3; \
	VSHUFPS $0x44, Y14, Y12, Y4; \
	VSHUFPS $0xEE, Y14, Y12, Y5; \
	VSHUFPS $0x44, Y15, Y13, Y6; \
	VSHUFPS $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// func transpose8(panel, a *float32, k, blocks int)
//
// Packs blocks 8×8 blocks of eight weight rows, k floats apart, into
// panel k-major: block j loads row r's floats 8j…8j+7 into Y(r), and
// stores the eight vectors {row 0…7 at float 8j+i}, i = 0…7, at
// panel[64j + 8i] (TRANSPOSE8). Registers: SI row 0, R10 row 4, DX the
// row stride in bytes, R9 three row strides, DI the panel, CX the
// block count.
TEXT ·transpose8(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ k+16(FP), DX
	MOVQ blocks+24(FP), CX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R9
	LEAQ (SI)(DX*4), R10
	TESTQ CX, CX
	JZ    tdone

tloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(DX*1), Y1
	VMOVUPS (SI)(DX*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS (R10)(DX*1), Y5
	VMOVUPS (R10)(DX*2), Y6
	VMOVUPS (R10)(R9*1), Y7
	TRANSPOSE8
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $256, DI
	DECQ CX
	JNZ  tloop

tdone:
	VZEROUPPER
	RET

// LOADROW loads row i of a transpose8x8 block into yr: SI the source,
// AX the row offsets.
#define LOADROW(i, yr) \
	MOVQ (i*8)(AX), DX; \
	VMOVUPS (SI)(DX*4), yr

// STORECOL stores column i of a transpose8x8 block from yc: DI the
// destination, AX the column offsets.
#define STORECOL(i, yc) \
	MOVQ (i*8)(AX), DX; \
	VMOVUPS yc, (DI)(DX*4)

// func transpose8x8(dst *float32, dOffs *[8]int, src *float32, sOffs *[8]int)
//
// Transposes one 8×8 block: row i is the eight floats at src +
// sOffs[i], and column i, float i of every row, goes to the eight floats
// at dst + dOffs[i] (TRANSPOSE8). Offsets are in floats.
TEXT ·transpose8x8(SB), NOSPLIT, $0-32
	MOVQ src+16(FP), SI
	MOVQ sOffs+24(FP), AX
	LOADROW(0, Y0)
	LOADROW(1, Y1)
	LOADROW(2, Y2)
	LOADROW(3, Y3)
	LOADROW(4, Y4)
	LOADROW(5, Y5)
	LOADROW(6, Y6)
	LOADROW(7, Y7)
	TRANSPOSE8
	MOVQ dst+0(FP), DI
	MOVQ dOffs+8(FP), AX
	STORECOL(0, Y8)
	STORECOL(1, Y9)
	STORECOL(2, Y10)
	STORECOL(3, Y11)
	STORECOL(4, Y12)
	STORECOL(5, Y13)
	STORECOL(6, Y14)
	STORECOL(7, Y15)
	VZEROUPPER
	RET
