package simd

// HasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// CPUID leaf 1 reports OSXSAVE and AVX, XCR0 has bits 1 (SSE) and 2
// (AVX) set, and CPUID leaf 7 reports AVX2 (EBX bit 5).
func HasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// addBlocks adds src to dst over the longest prefix of whole 32-float
// blocks and returns its length. src is at least as long as dst.
// Assembly has no bounds checks, so it indexes the last element each
// pointer reaches before the call.
func addBlocks(dst, src []float32) int {
	n := len(dst) &^ 31
	if n == 0 {
		return 0
	}
	_ = dst[n-1]
	_ = src[n-1]
	add32(&dst[0], &src[0], n/32)
	return n
}

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

//go:noescape
func add32(dst, src *float32, blocks int)
