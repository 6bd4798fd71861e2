//go:build !amd64

package simd

// HasAVX2 reports false: AVX2 is an amd64 extension.
func HasAVX2() bool { return false }

// addBlocks adds nothing: Add's Go leaf is the only leaf here.
func addBlocks(dst, src []float32) int { return 0 }
