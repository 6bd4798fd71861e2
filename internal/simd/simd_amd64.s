#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func add32(dst, src *float32, blocks int)
//
// dst[i] += src[i] over blocks·32 floats, four YMM registers per block.
// Each register is loaded from dst and is VADDPS's first source, src the
// memory operand: where both are NaN the result is dst's NaN, quieted,
// exactly as Go's compiled ADDSS (src), X(dst). blocks is at least 1.
TEXT ·add32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX

loop:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  0(SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET
