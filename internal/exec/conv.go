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
//     outH·outW], and the GEMM phase is the shared gemmTask (gemm.go),
//     which multiplies it by the weight rows [oc][K] on the AVX2
//     micro-kernel or the Go register tiles. A 1×1 conv with stride 1
//     and no padding skips im2col: its input planes already are that
//     matrix. A 1×1 output map folds the batch into the GEMM's columns.
//
// Both compute every output as bias + Σ_k w[k]·x[k] in one running sum
// over k = (ic, kh, kw) ascending, so they agree bit for bit: where the
// direct kernel skips a padded tap, the GEMM adds w·0 = ±0, which leaves
// a running sum unchanged. (The two differ only for non-finite weights
// at padded taps, and in the sign of an exactly-zero sum that a -0 bias
// starts.) Tests compare every GEMM shape, on both GEMM leaves, against
// convTask.

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
	gemm(gemmTask{
		a: weight, bias: bias, b: cols, c: out.Data,
		groups: op.Groups, m: op.OutC / op.Groups, k: k, images: in.Batch, n: n,
		bImg: op.Groups * k * n, bGrp: k * n, bK: n, bCol: 1,
		cImg: op.OutC * n, cRow: n, cCol: 1,
	})
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
