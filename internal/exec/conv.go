package exec

import (
	"sync"

	"convmeter/internal/graph"
)

// Forward convolution runs one of two kernels, chosen from the shape:
//
//   - depthwise convs (one input channel per group, kernel larger than
//     1×1) run the tap-ordered kernel, depthwiseTask: there is no
//     reduction over channels for a GEMM to block;
//   - every other conv runs im2col + GEMM: the im2col phase unrolls each
//     (batch, group) input into a column matrix [K = icPerG·KH·KW][N =
//     outH·outW], and the GEMM phase is the shared gemmTask (gemm.go),
//     which multiplies it by the weight rows [oc][K] on the AVX2
//     micro-kernel or the Go register tiles. A 1×1 conv with stride 1
//     and no padding skips im2col: its input planes already are that
//     matrix. A 1×1 output map folds the batch into the GEMM's columns.
//
// Both compute every output as bias + Σ_k w[k]·x[k] in one running sum
// over k = (ic, kh, kw) ascending, so they agree bit for bit with the
// direct kernel the tests keep as the reference (conv_test.go): the
// depthwise kernel adds the in-bounds taps in that order and skips the
// padded ones as the direct kernel does; where the direct kernel skips
// a padded tap, the GEMM adds w·0 = ±0, which leaves a running sum
// unchanged. (The GEMM differs only for non-finite weights at padded
// taps, and in the sign of an exactly-zero sum that a -0 bias starts.)

// depthwiseTask is the depthwise kernel; item i enumerates the flattened
// (batch, out-channel) space and computes that output plane tap by tap:
// it fills the plane with the bias, then, one output row at a time,
// adds x·w for each tap (kh, kw) in ascending order over the row's
// outputs where that tap lands inside the input, a contiguous axpy at
// stride 1. Each output so sums the bias and its in-bounds taps in the
// direct kernel's order. rows and cols hold those outputs per kh and per
// kw, computed once per call (two integer divisions per tap cost more
// than a 1×1 or 2×2 plane's work); the pooled task keeps their backing
// arrays between calls.
type depthwiseTask struct {
	in, out      *Tensor
	op           *graph.Conv2dOp
	weight, bias []float32
	ocPerG       int
	rows, cols   []tapRange
}

// tapRange is the output range [lo, hi) of one axis where a tap lands
// inside the input, at input position o·stride + off.
type tapRange struct{ lo, hi, off int }

var depthwiseTaskPool = sync.Pool{New: func() any { return new(depthwiseTask) }}

func (t *depthwiseTask) run(i int, _ *kernelScratch) {
	op := t.op
	b, oc := i/op.OutC, i%op.OutC
	src := t.in.channel(b, oc/t.ocPerG)
	dst := t.out.channel(b, oc)
	var bv float32
	if t.bias != nil {
		bv = t.bias[oc]
	}
	for j := range dst {
		dst[j] = bv
	}
	inW, outW, sh, sw := t.in.Shape.W, t.out.Shape.W, op.StrideH, op.StrideW
	kArea := op.KH * op.KW
	w := t.weight[oc*kArea : (oc+1)*kArea]
	for oh := 0; oh < t.out.Shape.H; oh++ {
		y := dst[oh*outW : (oh+1)*outW]
		for kh, r := range t.rows {
			if oh < r.lo || oh >= r.hi {
				continue
			}
			x := src[(oh*sh+r.off)*inW : (oh*sh+r.off+1)*inW]
			wk := w[kh*op.KW : (kh+1)*op.KW]
			for kw, c := range t.cols {
				if c.lo == c.hi {
					continue
				}
				wv, ys := wk[kw], y[c.lo:c.hi]
				if sw == 1 {
					xs := x[c.lo+c.off : c.hi+c.off]
					xs = xs[:len(ys)]
					for j, v := range xs {
						ys[j] += v * wv
					}
					continue
				}
				for j := range ys {
					ys[j] += x[(c.lo+j)*sw+c.off] * wv
				}
			}
		}
	}
}

// depthwise runs the depthwise kernel over the whole output.
func depthwise(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	t := depthwiseTaskPool.Get().(*depthwiseTask)
	rows, cols := t.rows[:0], t.cols[:0]
	for kh := 0; kh < op.KH; kh++ {
		off := kh*op.DilationH - op.PadH
		lo, hi := validRange(out.Shape.H, op.StrideH, off, in.Shape.H)
		rows = append(rows, tapRange{lo, hi, off})
	}
	for kw := 0; kw < op.KW; kw++ {
		off := kw*op.DilationW - op.PadW
		lo, hi := validRange(out.Shape.W, op.StrideW, off, in.Shape.W)
		cols = append(cols, tapRange{lo, hi, off})
	}
	*t = depthwiseTask{
		in: in, out: out, op: op, weight: weight, bias: bias,
		ocPerG: op.OutC / op.Groups, rows: rows, cols: cols,
	}
	parallelRun(t, in.Batch*op.OutC)
	*t = depthwiseTask{rows: rows[:0], cols: cols[:0]}
	depthwiseTaskPool.Put(t)
}

// conv2d computes a grouped, strided, padded, dilated 2-D convolution.
// Weight layout: [outC][inC/groups][KH][KW]; bias may be nil.
func conv2d(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	icPerG, kArea := op.InC/op.Groups, op.KH*op.KW
	if icPerG == 1 && kArea > 1 {
		depthwise(in, op, weight, bias, out)
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
