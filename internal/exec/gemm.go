package exec

import "sync"

// Every matmul-shaped forward op runs through one task, gemmTask:
// non-depthwise conv2d after im2col, linear and tokenLinear. Each image
// of the batch contributes a C = bias + A·B product, where A is the op's
// weight rows [groups·m][k] (row-major, as the executor stores them), B
// a [k][n] operand per (image, group) and C the [m][n] output rows of
// that (image, group). B and C are addressed through strides, so
// contiguous output pixels, batch-folded 1×1 maps and linear rows share
// one code path:
//
//	B[k][j] of (image, group) = b[image·bImg + group·bGrp + k·bK + j·bCol]
//	C[r][j] of (image, row)   = c[image·cImg + row·cRow + j·cCol]
//
// Where every image has one column (1×1 output maps, linear), gemm folds
// the batch into the columns: one GEMM with n = batch.
//
// An item is one (group, block of eight output rows) over every image,
// so the AVX2 leaf packs each weight panel once per call. Items write
// disjoint rows of C, so any assignment of items to workers yields the
// same bits. Each output is bias + Σ_k w·x in one running float32 sum
// over k ascending, each product and each sum rounded on its own, in
// both leaves; the CPU alone picks the leaf, for every shape:
//
//   - the AVX2 micro-kernel (gemm_amd64.s): one YMM register holds eight
//     output rows, VMULPS then VADDPS, no FMA, on a weight panel packed
//     by an in-register transpose;
//   - the pure-Go 4×2/4×1 register tiles below, on CPUs without AVX2
//     and on other architectures.
type gemmTask struct {
	a, bias, b, c        []float32
	groups, m, k, blocks int
	images, n            int
	bImg, bGrp, bK, bCol int
	cImg, cRow, cCol     int
}

// avx2Leaf holds the AVX2 kernels of every hot loop that has one: the
// GEMM items here, the backward's taps, rows and staging
// (conv_backward.go) and the SGD update (backward.go). It is the one switch between the
// leaves: gemm_amd64.go sets it at init when the CPU and OS support
// AVX2, it stays nil elsewhere, and only tests change it, between calls.
var avx2Leaf *avx2Kernels

// avx2Kernels are the AVX2 leaf's entry points, each bit-identical to
// the Go loop it replaces.
type avx2Kernels struct {
	// gemmItem runs item i of a GEMM task.
	gemmItem func(t *gemmTask, i int, sc *kernelScratch)
	// taps runs tg.apply's first 8·blocks channels.
	taps func(tg tapGrad, rs []gradAt, x, dx, w, dw []float32, blocks int)
	// gradRow runs gradRow's first len(w) &^ 7 elements.
	gradRow func(d float32, x, w, dw, dx []float32)
	// sgd runs ApplySGD's first len(w) &^ 7 elements.
	sgd func(w, grads []float32, scale, lr float32)
	// stage and unstage fill the taps route's staged map from the input
	// planes and copy it back, for groups of eight channels or more.
	stage, unstage func(sl stageLayout, dst, src []float32)
}

var gemmTaskPool = sync.Pool{New: func() any { return new(gemmTask) }}

// gemm runs the product that spec describes over the worker pool; spec
// leaves blocks unset.
func gemm(spec gemmTask) {
	t := gemmTaskPool.Get().(*gemmTask)
	*t = spec
	if t.n == 1 {
		t.n, t.bCol, t.cCol = t.images, t.bImg, t.cImg
		t.images, t.bImg, t.cImg = 1, 0, 0
	}
	t.blocks = (t.m + 7) / 8
	parallelRun(t, t.groups*t.blocks)
	*t = gemmTask{}
	gemmTaskPool.Put(t)
}

// rows returns item i's group, first output row and row count.
func (t *gemmTask) rows(i int) (g, row0, rows int) {
	g, blk := i/t.blocks, i%t.blocks
	return g, g*t.m + 8*blk, min(8, t.m-8*blk)
}

// biasBlock returns the bias of rows [row0, row0+rows), zero-padded to
// eight lanes.
func (t *gemmTask) biasBlock(row0, rows int) (bias [8]float32) {
	if t.bias != nil {
		copy(bias[:rows], t.bias[row0:row0+rows])
	}
	return bias
}

func (t *gemmTask) run(i int, sc *kernelScratch) {
	if avx2Leaf != nil {
		avx2Leaf.gemmItem(t, i, sc)
		return
	}
	g, row0, rows := t.rows(i)
	k := t.k
	a := t.a[row0*k : (row0+rows)*k]
	bias := t.biasBlock(row0, rows)
	for img := 0; img < t.images; img++ {
		p := img*t.bImg + g*t.bGrp
		q := img*t.cImg + row0*t.cRow
		r := 0
		for ; r+4 <= rows; r += 4 {
			a4, b4, qr := a[r*k:(r+4)*k], (*[4]float32)(bias[r:r+4]), q+r*t.cRow
			j := 0
			for ; j+2 <= t.n; j += 2 {
				gemm4x2(a4, t.b, t.c, k, p+j*t.bCol, t.bK, t.bCol, qr+j*t.cCol, t.cRow, t.cCol, b4)
			}
			if j < t.n {
				gemm4x1(a4, t.b, t.c, k, p+j*t.bCol, t.bK, qr+j*t.cCol, t.cRow, b4)
			}
		}
		for ; r < rows; r++ {
			gemmRow(a[r*k:(r+1)*k], t.b, t.c, t.n, p, t.bK, t.bCol, q+r*t.cRow, t.cCol, bias[r])
		}
	}
}

// gemm4x2 computes the 4×2 tile of four output rows at two columns:
// eight running sums in locals, each bias + Σ_k a[r][k]·B[k][j] over k
// ascending, with B[k][j] = b[p + k·ks + j·cs] and the result of (r, j)
// stored at c[q + r·rs + j·cc]. Eight sums, two inputs and a weight fit
// amd64's 15 usable float registers; a 4×4 tile does not, and its spills
// halve throughput.
func gemm4x2(a, b, c []float32, k, p, ks, cs, q, rs, cc int, bias *[4]float32) {
	a0 := a[:k]
	a1, a2, a3 := a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	c00, c01 := bias[0], bias[0]
	c10, c11 := bias[1], bias[1]
	c20, c21 := bias[2], bias[2]
	c30, c31 := bias[3], bias[3]
	for kk, w0 := range a0 {
		x0, x1 := b[p], b[p+cs]
		p += ks
		c00 += w0 * x0
		c01 += w0 * x1
		w1 := a1[kk]
		c10 += w1 * x0
		c11 += w1 * x1
		w2 := a2[kk]
		c20 += w2 * x0
		c21 += w2 * x1
		w3 := a3[kk]
		c30 += w3 * x0
		c31 += w3 * x1
	}
	c[q], c[q+cc] = c00, c01
	c[q+rs], c[q+rs+cc] = c10, c11
	c[q+2*rs], c[q+2*rs+cc] = c20, c21
	c[q+3*rs], c[q+3*rs+cc] = c30, c31
}

// gemm4x1 computes one column of four output rows, as gemm4x2 does.
func gemm4x1(a, b, c []float32, k, p, ks, q, rs int, bias *[4]float32) {
	a0 := a[:k]
	a1, a2, a3 := a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	c0, c1, c2, c3 := bias[0], bias[1], bias[2], bias[3]
	for kk, w0 := range a0 {
		x := b[p]
		p += ks
		c0 += w0 * x
		c1 += a1[kk] * x
		c2 += a2[kk] * x
		c3 += a3[kk] * x
	}
	c[q], c[q+rs], c[q+2*rs], c[q+3*rs] = c0, c1, c2, c3
}

// gemmRow computes n columns of one output row, one running sum at a
// time: the rows of a block that a 4-row tile does not cover.
func gemmRow(a, b, c []float32, n, p, ks, cs, q, cc int, bias float32) {
	for j := 0; j < n; j++ {
		acc := bias
		pj := p + j*cs
		for _, w := range a {
			acc += w * b[pj]
			pj += ks
		}
		c[q+j*cc] = acc
	}
}
