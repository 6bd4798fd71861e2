package exec

import "convmeter/internal/simd"

// The AVX2 leaf: init selects it, and with it the backward's and the
// SGD update's kernels (backward_amd64.go), when the module's one CPU
// probe, simd.HasAVX2, reports that the CPU and OS support AVX2.
// gemmTask's micro-kernels (gemm_amd64.s) compute an 8-row ×
// {8,4,2,1}-column tile:
//
//	tile[8·j + r] = bias[r] + Σ_k panel[8·k + r]·b[k·ks + j·cs], k ascending
//
// with one YMM register per column holding the eight rows, VMULPS then
// VADDPS per k (no FMA), so every lane rounds exactly as Go's c += w·x.
// The panel is the item's eight weight rows packed k-major into the
// worker's scratch, eight k at a time by an in-register 8×8 transpose
// (transpose8). Assembly has no bounds checks, so tileAVX2 and packPanel
// index the last element each pointer reaches before every call: a
// geometry bug panics in Go instead of reading past a slice. The race detector
// does not see the kernels' loads and stores either; as for every pool
// task (pool.go), each item owns disjoint rows of C and its worker's
// panel, and that ownership is what keeps them race-free.

func init() {
	if simd.HasAVX2() {
		avx2Leaf = &avx2Kernels{gemmItem: avx2Item, taps: tapsAVX2, gradRow: gradRowAVX2, sgd: sgdAVX2,
			stage: stageAVX2, unstage: unstageAVX2}
	}
}

//go:noescape
func gemm8x8(a, b, bias, c *float32, k, ks, cs int)

//go:noescape
func gemm8x4(a, b, bias, c *float32, k, ks, cs int)

//go:noescape
func gemm8x2(a, b, bias, c *float32, k, ks, cs int)

//go:noescape
func gemm8x1(a, b, bias, c *float32, k, ks, cs int)

//go:noescape
func transpose8(panel, a *float32, k, blocks int)

//go:noescape
func transpose8x8(dst *float32, dOffs *[8]int, src *float32, sOffs *[8]int)

// avx2Item runs item i of t: it packs the item's weight panel, then
// sweeps every image's columns in tiles of 8, 4, 2 and 1.
func avx2Item(t *gemmTask, i int, sc *kernelScratch) {
	g, row0, rows := t.rows(i)
	k := t.k
	panel := sc.floats(8 * k)
	packPanel(panel, t.a[row0*k:(row0+rows)*k], k, rows)
	bias := t.biasBlock(row0, rows)
	var tile [64]float32
	for img := 0; img < t.images; img++ {
		p := img*t.bImg + g*t.bGrp
		q := img*t.cImg + row0*t.cRow
		for j := 0; j < t.n; {
			cols := 8
			for cols > t.n-j {
				cols /= 2
			}
			tileAVX2(panel, t.b, p+j*t.bCol, k, t.bK, t.bCol, cols, &bias, &tile)
			storeTile(t.c, &tile, q+j*t.cCol, t.cRow, t.cCol, rows, cols)
			j += cols
		}
	}
}

// packPanel packs rows weight rows of length k k-major into panel, eight
// floats per k, zero in the lanes past rows. A full panel's first k &^ 7
// floats per row go through the in-register transpose, transpose8, after
// indexing the last element it reads and writes; the k tail and partial
// panels take packCols.
func packPanel(panel, a []float32, k, rows int) {
	if rows < 8 {
		clear(panel)
		for r := 0; r < rows; r++ {
			for kk, w := range a[r*k : (r+1)*k] {
				panel[8*kk+r] = w
			}
		}
		return
	}
	k8 := k &^ 7
	if k8 > 0 {
		_ = panel[8*k8-1]
		_ = a[7*k+k8-1]
		transpose8(&panel[0], &a[0], k, k8/8)
	}
	packCols(panel, a, k, k8)
}

// packCols packs floats [k0, k) of eight weight rows of length k into
// panel k-major: it writes the panel in order while it reads the eight
// rows side by side. From k0 = 0 it packs a whole panel, the reference
// the tests hold transpose8 to.
func packCols(panel, a []float32, k, k0 int) {
	r0, r1, r2, r3 := a[k0:k], a[k+k0:2*k], a[2*k+k0:3*k], a[3*k+k0:4*k]
	r4, r5, r6, r7 := a[4*k+k0:5*k], a[5*k+k0:6*k], a[6*k+k0:7*k], a[7*k+k0:8*k]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	r4, r5, r6, r7 = r4[:len(r0)], r5[:len(r0)], r6[:len(r0)], r7[:len(r0)]
	panel = panel[8*k0:]
	for kk, w := range r0 {
		p := panel[8*kk : 8*kk+8 : 8*kk+8]
		p[0], p[1], p[2], p[3] = w, r1[kk], r2[kk], r3[kk]
		p[4], p[5], p[6], p[7] = r4[kk], r5[kk], r6[kk], r7[kk]
	}
}

// tileAVX2 runs the cols-column micro-kernel on B's columns starting at
// b[p], after indexing the last element each pointer reaches.
func tileAVX2(panel, b []float32, p, k, ks, cs, cols int, bias *[8]float32, tile *[64]float32) {
	if k < 1 || ks < 0 || cs < 0 {
		panic("exec: invalid GEMM tile geometry")
	}
	_ = panel[8*k-1]
	_ = b[p+(k-1)*ks+(cols-1)*cs]
	_ = tile[8*cols-1]
	switch cols {
	case 8:
		gemm8x8(&panel[0], &b[p], &bias[0], &tile[0], k, ks, cs)
	case 4:
		gemm8x4(&panel[0], &b[p], &bias[0], &tile[0], k, ks, cs)
	case 2:
		gemm8x2(&panel[0], &b[p], &bias[0], &tile[0], k, ks, cs)
	case 1:
		gemm8x1(&panel[0], &b[p], &bias[0], &tile[0], k, ks, cs)
	default:
		panic("exec: invalid GEMM tile width")
	}
}

// storeTile writes the first rows lanes of a tile's cols columns to C,
// row r of column j at c[q + r·rs + j·cs].
func storeTile(c []float32, tile *[64]float32, q, rs, cs, rows, cols int) {
	if rs == 1 {
		for j := 0; j < cols; j++ {
			copy(c[q+j*cs:q+j*cs+rows], tile[8*j:8*j+rows])
		}
		return
	}
	for r := 0; r < rows; r++ {
		o := q + r*rs
		for j := 0; j < cols; j++ {
			c[o+j*cs] = tile[(8*j+r)&63]
		}
	}
}
