package exec

import (
	"sync"

	"convmeter/internal/graph"
)

// Forward convolution runs one of two kernels, chosen from the shape:
//
//   - depthwise convs (one input channel per group, kernel larger than
//     1×1) run the direct kernel, convTask: there is no reduction over
//     channels for a GEMM to block;
//   - every other conv runs im2col + GEMM: the im2col phase unrolls each
//     (batch, group) input into a column matrix [K = icPerG·KH·KW][N =
//     outH·outW], and the GEMM phase multiplies it by the weight rows
//     [oc][K] in 4×2 register tiles. A 1×1 conv with stride 1 and no
//     padding skips im2col: its input planes already are that matrix.
//
// Both compute every output as bias + Σ_k w[k]·x[k] in one running sum
// over k = (ic, kh, kw) ascending, so they agree bit for bit: where the
// direct kernel skips a padded tap, the GEMM adds w·0 = ±0, which leaves
// a running sum unchanged. (The two differ only for non-finite weights
// at padded taps, and in the sign of an exactly-zero sum that a -0 bias
// starts.) Tests compare every GEMM shape against convTask.

// convTask is the direct conv2d kernel; item i enumerates the flattened
// (batch, out-channel) space.
type convTask struct {
	in, out        *Tensor
	op             *graph.Conv2dOp
	weight, bias   []float32
	icPerG, ocPerG int
	kArea          int
}

var convTaskPool = sync.Pool{New: func() any { return new(convTask) }}

func (t *convTask) run(i int, _ *kernelScratch) {
	b, oc := i/t.op.OutC, i%t.op.OutC
	in, out, op := t.in, t.out, t.op
	g := oc / t.ocPerG
	icBase := g * t.icPerG
	wBase := oc * t.icPerG * t.kArea
	outPlane := out.channel(b, oc)
	var bv float32
	if t.bias != nil {
		bv = t.bias[oc]
	}
	for oh := 0; oh < out.Shape.H; oh++ {
		for ow := 0; ow < out.Shape.W; ow++ {
			acc := bv
			for ic := 0; ic < t.icPerG; ic++ {
				inPlane := in.channel(b, icBase+ic)
				wRow := t.weight[wBase+ic*t.kArea:]
				for kh := 0; kh < op.KH; kh++ {
					ih := oh*op.StrideH - op.PadH + kh*op.DilationH
					if ih < 0 || ih >= in.Shape.H {
						continue
					}
					rowOff := ih * in.Shape.W
					kOff := kh * op.KW
					for kw := 0; kw < op.KW; kw++ {
						iw := ow*op.StrideW - op.PadW + kw*op.DilationW
						if iw < 0 || iw >= in.Shape.W {
							continue
						}
						acc += inPlane[rowOff+iw] * wRow[kOff+kw]
					}
				}
			}
			outPlane[oh*out.Shape.W+ow] = acc
		}
	}
}

// conv2d computes a grouped, strided, padded, dilated 2-D convolution.
// Weight layout: [outC][inC/groups][KH][KW]; bias may be nil.
func conv2d(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	icPerG, kArea := op.InC/op.Groups, op.KH*op.KW
	if icPerG == 1 && kArea > 1 {
		convDirect(in, op, weight, bias, out)
		return
	}
	k, n := icPerG*kArea, out.Shape.H*out.Shape.W
	cols := in.Data
	var sc *kernelScratch
	if kArea > 1 || op.StrideH != 1 || op.StrideW != 1 || op.PadH != 0 || op.PadW != 0 {
		sc = scratchPool.Get().(*kernelScratch)
		cols = sc.floats(in.Batch * op.Groups * k * n)
		t := im2colTaskPool.Get().(*im2colTask)
		*t = im2colTask{in: in, op: op, cols: cols, outH: out.Shape.H, outW: out.Shape.W}
		parallelRun(t, in.Batch*op.InC)
		*t = im2colTask{}
		im2colTaskPool.Put(t)
	}
	ocPerG := op.OutC / op.Groups
	t := gemmTaskPool.Get().(*gemmTask)
	*t = gemmTask{
		out: out, weight: weight, bias: bias, cols: cols,
		batch: in.Batch, groups: op.Groups, ocPerG: ocPerG, ocBlocks: (ocPerG + 3) / 4, k: k, n: n,
	}
	parallelRun(t, in.Batch*op.Groups*t.ocBlocks)
	*t = gemmTask{}
	gemmTaskPool.Put(t)
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// convDirect runs the direct kernel over the whole output.
func convDirect(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	t := convTaskPool.Get().(*convTask)
	*t = convTask{
		in: in, out: out, op: op, weight: weight, bias: bias,
		icPerG: op.InC / op.Groups, ocPerG: op.OutC / op.Groups,
		kArea: op.KH * op.KW,
	}
	parallelRun(t, in.Batch*op.OutC)
	*t = convTask{}
	convTaskPool.Put(t)
}

// im2colTask is the im2col phase; item i enumerates the flattened
// (batch, input-channel) space and fills that channel's KH·KW rows of
// its (batch, group) column matrix, with 0 at padded taps.
type im2colTask struct {
	in         *Tensor
	op         *graph.Conv2dOp
	cols       []float32
	outH, outW int
}

var im2colTaskPool = sync.Pool{New: func() any { return new(im2colTask) }}

func (t *im2colTask) run(i int, _ *kernelScratch) {
	op := t.op
	b, ic := i/op.InC, i%op.InC
	kArea, n := op.KH*op.KW, t.outH*t.outW
	inH, inW := t.in.Shape.H, t.in.Shape.W
	src := t.in.channel(b, ic)
	// Rows of channel ic start at row (ic mod icPerG)·kArea of matrix
	// (b, ic div icPerG); matrices are K·N = icPerG·kArea·N apart, so
	// the channel's first row is simply row (b·InC + ic)·kArea.
	rows := t.cols[i*kArea*n : (i+1)*kArea*n]
	for kh := 0; kh < op.KH; kh++ {
		offH := kh*op.DilationH - op.PadH
		ohLo, ohHi := validRange(t.outH, op.StrideH, offH, inH)
		for kw := 0; kw < op.KW; kw++ {
			offW := kw*op.DilationW - op.PadW
			owLo, owHi := validRange(t.outW, op.StrideW, offW, inW)
			row := rows[(kh*op.KW+kw)*n : (kh*op.KW+kw+1)*n]
			if owLo == owHi {
				clear(row)
				continue
			}
			clear(row[:ohLo*t.outW])
			clear(row[ohHi*t.outW:])
			for oh := ohLo; oh < ohHi; oh++ {
				dst := row[oh*t.outW : (oh+1)*t.outW]
				clear(dst[:owLo])
				clear(dst[owHi:])
				srcRow := src[(oh*op.StrideH+offH)*inW:]
				if op.StrideW == 1 {
					copy(dst[owLo:owHi], srcRow[owLo+offW:owHi+offW])
					continue
				}
				for ow := owLo; ow < owHi; ow++ {
					dst[ow] = srcRow[ow*op.StrideW+offW]
				}
			}
		}
	}
}

// validRange returns the output positions [lo, hi) of one axis, n long,
// whose input tap o·stride + off lies inside [0, size).
func validRange(n, stride, off, size int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := size - 1 - off; last >= 0 {
		hi = min(n, last/stride+1)
	}
	return min(lo, hi), hi
}

// gemmTask is the GEMM phase; item i enumerates the flattened (group,
// block of four output channels, batch) space and computes that block's
// output rows of one image as bias + A·B, where A is the block's weight
// rows [rows][K] and B the (batch, group) column matrix [K][N]. Batch
// varies fastest, so workers claiming neighbouring items read the same
// weight rows while they are still in cache.
type gemmTask struct {
	out                    *Tensor
	weight, bias           []float32
	cols                   []float32
	batch, groups          int
	ocPerG, ocBlocks, k, n int
}

var gemmTaskPool = sync.Pool{New: func() any { return new(gemmTask) }}

func (t *gemmTask) run(i int, _ *kernelScratch) {
	b, gblk := i%t.batch, i/t.batch
	g, blk := gblk/t.ocBlocks, gblk%t.ocBlocks
	k, n := t.k, t.n
	oc := g*t.ocPerG + 4*blk
	rows := min(4, t.ocPerG-4*blk)
	bg := b*t.groups + g
	bm := t.cols[bg*k*n : (bg+1)*k*n]
	a := t.weight[oc*k : (oc+rows)*k]
	cBase := (b*t.out.Shape.C + oc) * n
	c := t.out.Data[cBase : cBase+rows*n]
	var bias [4]float32
	if t.bias != nil {
		copy(bias[:], t.bias[oc:oc+rows])
	}
	j := 0
	if rows == 4 {
		for ; j+2 <= n; j += 2 {
			gemm4x2(a, bm, c, k, n, j, &bias)
		}
		if j < n {
			gemm4x1(a, bm, c, k, n, j, &bias)
			j++
		}
	}
	for r := 0; r < rows; r++ {
		gemmScalar(a[r*k:(r+1)*k], bm, c[r*n:(r+1)*n], n, j, bias[r])
	}
}

// gemm4x2 computes the 4×2 tile at columns j, j+1 of four output rows:
// eight running sums in locals, each bias + Σ_k a[r][k]·b[k][j+c] over k
// ascending. Eight sums, two pixels and a weight fit amd64's 15 usable
// float registers; a 4×4 tile does not, and its spills halve throughput.
func gemm4x2(a, b, c []float32, k, n, j int, bias *[4]float32) {
	a0 := a[:k]
	a1, a2, a3 := a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	c00, c01 := bias[0], bias[0]
	c10, c11 := bias[1], bias[1]
	c20, c21 := bias[2], bias[2]
	c30, c31 := bias[3], bias[3]
	p := j
	for kk, w0 := range a0 {
		x := b[p : p+2 : p+2]
		x0, x1 := x[0], x[1]
		p += n
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
	c[j], c[j+1] = c00, c01
	c[n+j], c[n+j+1] = c10, c11
	c[2*n+j], c[2*n+j+1] = c20, c21
	c[3*n+j], c[3*n+j+1] = c30, c31
}

// gemm4x1 computes column j of four output rows, as gemm4x2 does.
func gemm4x1(a, b, c []float32, k, n, j int, bias *[4]float32) {
	a0 := a[:k]
	a1, a2, a3 := a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	c0, c1, c2, c3 := bias[0], bias[1], bias[2], bias[3]
	p := j
	for kk, w0 := range a0 {
		x := b[p]
		p += n
		c0 += w0 * x
		c1 += a1[kk] * x
		c2 += a2[kk] * x
		c3 += a3[kk] * x
	}
	c[j], c[n+j], c[2*n+j], c[3*n+j] = c0, c1, c2, c3
}

// gemmScalar computes columns j.. of one output row, one running sum
// at a time: the leftover rows of a block narrower than four.
func gemmScalar(a, b, c []float32, n, j int, bias float32) {
	for ; j < n; j++ {
		acc := bias
		p := j
		for _, w := range a {
			acc += w * b[p]
			p += n
		}
		c[j] = acc
	}
}
