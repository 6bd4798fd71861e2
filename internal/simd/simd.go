// Package simd holds the module's one CPU probe and the vector kernel
// the ring all-reduce's reduce runs through.
//
// HasAVX2 is the probe: internal/exec selects its AVX2 leaf from it at
// init, and so does this package. Add is the kernel, dst[i] += src[i],
// with two leaves picked from the CPU alone:
//
//   - on amd64 with AVX2, VADDPS over blocks of 32 floats (simd_amd64.s),
//     dst's register the first source operand, so when both inputs are
//     NaN dst's NaN survives, as in Go's compiled dst[k] += src[k]
//     (ADDSS (src), X(dst));
//   - the Go loop below, which runs the tail, every other CPU and every
//     -race build: the race detector sees no load or store an assembly
//     routine makes, and the channel ring's view hand-off, whose safety
//     rests on capacity-1 links, is exactly what -race guards.
//
// Both round each sum to float32 on its own, so they agree bit for bit,
// NaN payloads included (FuzzAdd holds both to the rings' former loop).
// There is no flag, environment variable or build tag to pick a leaf;
// tests flip the unexported avx2 switch.
package simd

import "convmeter/internal/testrace"

// avx2 selects Add's AVX2 leaf; tests flip it to run the Go leaf alone.
var avx2 = HasAVX2()

// Add computes dst[i] += src[i] for every i < len(dst). src must hold at
// least len(dst) floats; dst and src may be the same slice but must not
// otherwise overlap. Add allocates nothing.
func Add(dst, src []float32) {
	src = src[:len(dst)]
	n := 0
	if avx2 && !testrace.Enabled {
		n = addBlocks(dst, src)
	}
	addGo(dst[n:], src[n:])
}

// addGo is Add's Go leaf. It loads src[k] after dst[k], so that load is
// the one the compiler merges into ADDSS as its memory operand, and dst
// stays the first source, also under -race and fuzzing instrumentation,
// whose calls between the loads decide which one can be merged: there,
// `for k, x := range src { dst[k] += x }` merged dst's load instead and
// returned src's NaN for NaN + NaN.
func addGo(dst, src []float32) {
	src = src[:len(dst)]
	for k := range src {
		dst[k] += src[k]
	}
}
