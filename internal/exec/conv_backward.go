package exec

import "convmeter/internal/graph"

// Backward convolution runs serially inside the calling replica:
// data-parallel training already keeps every core busy with one replica
// each, so splitting a replica's backward over the shared pool only adds
// contention. It visits only the nonzero output gradients — ReLU leaves
// 40–90% of them zero in squeezenet1_1 — and picks its loop structure
// from the shapes:
//
//   - a 1×1 output map (a classifier conv, a 3×3 conv on a 1×1 map) takes
//     linearBackward's form: per nonzero d, one pass over the weight row
//     of its output channel, contiguous when the kernel reads the whole
//     unpadded input in order. Output channels go outermost, so a row
//     serves every image while it is in cache;
//   - every larger map goes tap by tap: the nonzero gradients of one
//     output channel are gathered into a stack array, and for each input
//     channel and tap dW is a gathered dot product over them and dIn a
//     scattered axpy, four planes at a time. A conv with a tap outside
//     its input (padding, or a kernel overhanging the far edge) runs on
//     zero-padded copies of its group's input planes, so every tap is in
//     bounds. A 1×1 stride-1 unpadded conv is the one-tap case.
//
// Every route adds the same terms in the same order as the direct
// kernel, which tests keep as the reference: dB[oc] and dW[oc][ic][kh][kw]
// sum over (b, oh, ow) ascending, and dIn[b][ic][ih][iw] over (oc, oh, ow)
// ascending, starting from the values already there. Where the direct
// kernel skips a term, the routes either skip it too or add ±0 — a zero
// d to dB, d·0 at a padded tap to dW — which leaves a running sum
// unchanged, the forward GEMM's caveat. So the gradients agree bit for
// bit, and nothing allocates beyond the pooled scratch of a padded conv.

// gradChunk is how many nonzero gradients of one output channel are
// gathered before they are applied.
const gradChunk = 128

// conv2dBackward accumulates dIn, dW and dB for a convolution. dIn may be
// nil when nothing reads the input gradient (the graph input's); dB is
// nil for a conv without bias.
func conv2dBackward(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	if dOut.Shape.H == 1 && dOut.Shape.W == 1 {
		convBackwardPixel(in, op, weight, dOut, dIn, dW, dB)
		return
	}
	convBackwardTaps(in, op, weight, dOut, dIn, dW, dB)
}

// convBackwardPixel is the route for a 1×1 output map: every output
// channel holds one d per image, and every channel reads the same taps.
func convBackwardPixel(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	icPerG, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	kArea, inW := op.KH*op.KW, in.Shape.W
	inHW := in.Shape.H * inW
	k, groupLen := icPerG*kArea, icPerG*inHW
	kh0, kh1 := validRange(op.KH, op.DilationH, -op.PadH, in.Shape.H)
	kw0, kw1 := validRange(op.KW, op.DilationW, -op.PadW, inW)
	// The kernel reads the group's input in order when it is exactly as
	// large as the unpadded input and undilated: tap i reads element i.
	flat := op.PadH == 0 && op.PadW == 0 && op.KH == in.Shape.H && op.KW == inW &&
		(op.KH == 1 || op.DilationH == 1) && (op.KW == 1 || op.DilationW == 1)
	for oc := 0; oc < op.OutC; oc++ {
		w, dw := weight[oc*k:(oc+1)*k], dW[oc*k:(oc+1)*k]
		for b := 0; b < in.Batch; b++ {
			d := dOut.Data[b*op.OutC+oc]
			if d == 0 {
				continue
			}
			if dB != nil {
				dB[oc] += d
			}
			off := (b*op.Groups + oc/ocPerG) * groupLen
			x := in.Data[off : off+groupLen]
			var dx []float32
			if dIn != nil {
				dx = dIn.Data[off : off+groupLen]
			}
			if flat {
				gradRow(d, x, w, dw, dx)
				continue
			}
			for kh := kh0; kh < kh1; kh++ {
				for kw := kw0; kw < kw1; kw++ {
					t := kh*op.KW + kw
					xo := (kh*op.DilationH-op.PadH)*inW + kw*op.DilationW - op.PadW
					for ic := 0; ic < icPerG; ic++ {
						dw[ic*kArea+t] += d * x[ic*inHW+xo]
						if dx != nil {
							dx[ic*inHW+xo] += d * w[ic*kArea+t]
						}
					}
				}
			}
		}
	}
}

// gradRow adds d·x to dw and, when dx is non-nil, d·w to dx, elementwise:
// one output's share of a fully connected layer's gradients.
func gradRow(d float32, x, w, dw, dx []float32) {
	x, dw = x[:len(w)], dw[:len(w)]
	if dx == nil {
		for i, v := range x {
			dw[i] += d * v
		}
		return
	}
	dx = dx[:len(w)]
	for i, v := range x {
		dw[i] += d * v
		dx[i] += d * w[i]
	}
}

// gradAt is one nonzero output gradient d of the taps route, with the
// input offset p of its tap (0, 0).
type gradAt struct {
	d float32
	p int32
}

// tapGrad holds one conv's geometry for the taps route, over input
// planes planeLen long (padded or not).
type tapGrad struct {
	kArea, kw, planeLen int
	dilW, rowStep       int // input step between taps of a kernel row and between kernel rows
}

// convBackwardTaps is the route for every output map larger than 1×1.
// It works on one group at a time, gathering an output channel's
// nonzero gradients over every image, so that small maps still give the
// leaf kernels long runs. When some tap falls outside the input — the
// conv pads, or its kernel overhangs the input's far edge — it first
// copies the group's input planes, and input gradients, into zero-padded
// planes in scratch that hold every tap: an out-of-bounds tap then reads
// a 0 and writes dIn into the padding, which is dropped.
func convBackwardTaps(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	icPerG, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	inH, inW := in.Shape.H, in.Shape.W
	outH, outW := dOut.Shape.H, dOut.Shape.W
	// Staged planes run from tap row -PadH and column -PadW to the last
	// tap or the input's last row and column, whichever is further; with
	// no padding and no overhang they are the input planes themselves.
	hp := max(op.PadH+inH, (outH-1)*op.StrideH+(op.KH-1)*op.DilationH+1)
	wp := max(op.PadW+inW, (outW-1)*op.StrideW+(op.KW-1)*op.DilationW+1)
	staged := hp > inH || wp > inW
	tg := tapGrad{kArea: op.KH * op.KW, kw: op.KW, planeLen: hp * wp,
		dilW: op.DilationW, rowStep: op.DilationH * wp}
	k := icPerG * tg.kArea
	// Input planes of the group: image b's plane ic starts at
	// b·imgStride + ic·planeLen of x and dx.
	imgStride := op.InC * inH * inW
	var sc *kernelScratch
	var xs, dxs []float32
	if staged {
		imgStride = icPerG * tg.planeLen
		n := in.Batch * imgStride
		sc = scratchPool.Get().(*kernelScratch)
		buf := sc.floats(2 * n)
		xs, dxs = buf[:n], buf[n:]
	}
	pl := planeLayout{n: icPerG, h: inH, w: inW, wp: wp, plane: tg.planeLen, top: op.PadH, left: op.PadW}
	xLen := (in.Batch-1)*imgStride + icPerG*tg.planeLen
	var rs [gradChunk]gradAt
	for g := 0; g < op.Groups; g++ {
		gOff := g * icPerG * inH * inW
		var x, dx []float32
		if !staged {
			x = in.Data[gOff:][:xLen]
			if dIn != nil {
				dx = dIn.Data[gOff:][:xLen]
			}
		} else {
			x = xs
			for b := 0; b < in.Batch; b++ {
				pl.pad(xs[b*imgStride:], in.Data[gOff+b*op.InC*inH*inW:])
			}
			if dIn != nil {
				dx = dxs
				for b := 0; b < in.Batch; b++ {
					pl.pad(dxs[b*imgStride:], dIn.Data[gOff+b*op.InC*inH*inW:])
				}
			}
		}
		for oc := g * ocPerG; oc < (g+1)*ocPerG; oc++ {
			w, dw := weight[oc*k:(oc+1)*k], dW[oc*k:(oc+1)*k]
			var bias float32
			if dB != nil {
				bias = dB[oc]
			}
			n := 0
			for b := 0; b < in.Batch; b++ {
				plane := dOut.channel(b, oc)
				for oh := 0; oh < outH; oh++ {
					row := b*imgStride + oh*op.StrideH*wp
					// Every d is written, only a nonzero one is kept, and a
					// zero one adds ±0 to the bias sum.
					for ow, d := range plane[oh*outW : (oh+1)*outW] {
						bias += d
						rs[n] = gradAt{d: d, p: int32(row + ow*op.StrideW)}
						if d != 0 {
							n++
						}
						if n == gradChunk {
							tg.apply(rs[:n], x, dx, w, dw)
							n = 0
						}
					}
				}
			}
			tg.apply(rs[:n], x, dx, w, dw)
			if dB != nil {
				dB[oc] = bias
			}
		}
		if staged && dIn != nil {
			for b := 0; b < in.Batch; b++ {
				pl.unpad(dIn.Data[gOff+b*op.InC*inH*inW:], dxs[b*imgStride:])
			}
		}
	}
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// planeLayout places n planes of h×w inside zero-filled staged planes,
// each plane long and wp wide, top rows down and left columns in.
type planeLayout struct {
	n, h, w   int
	wp, plane int
	top, left int
}

// pad copies the n planes at the start of src into the start of dst as
// staged planes.
func (pl *planeLayout) pad(dst, src []float32) {
	clear(dst[:pl.n*pl.plane])
	for p := 0; p < pl.n; p++ {
		for r := 0; r < pl.h; r++ {
			copy(dst[p*pl.plane+(r+pl.top)*pl.wp+pl.left:][:pl.w], src[(p*pl.h+r)*pl.w:][:pl.w])
		}
	}
}

// unpad copies the interiors of the staged planes at the start of src
// back into the start of dst: pad in reverse.
func (pl *planeLayout) unpad(dst, src []float32) {
	for p := 0; p < pl.n; p++ {
		for r := 0; r < pl.h; r++ {
			copy(dst[(p*pl.h+r)*pl.w:][:pl.w], src[p*pl.plane+(r+pl.top)*pl.wp+pl.left:][:pl.w])
		}
	}
}

// apply adds the nonzero gradients rs of one output channel, in
// ascending (oh, ow) order, to the weight gradients dw and the input
// gradients dx (nil to skip them) of its group's input planes x. The
// leaf kernels take four planes at a time: four input channels at one
// tap, or, for the last channels of a group narrower than four (a stem,
// a depthwise conv), four taps of one channel as four shifted views of
// its plane. Taps go in descending order, each block over every
// gradient: two gradients p < p' reach the same input element only
// through taps t > t', so every input element still sees its terms in
// ascending output order.
func (tg *tapGrad) apply(rs []gradAt, x, dx, w, dw []float32) {
	if len(rs) == 0 {
		return
	}
	n, ka := tg.planeLen, tg.kArea
	nIC := len(w) / ka
	// Plane ic of every image: gradient p reads x[ic·n + p].
	l := len(x) - (nIC-1)*n
	ic := 0
	for ; ic+4 <= nIC; ic += 4 {
		x0, x1, x2, x3 := x[ic*n:][:l], x[(ic+1)*n:][:l], x[(ic+2)*n:][:l], x[(ic+3)*n:][:l]
		var d0, d1, d2, d3 []float32
		if dx != nil {
			d0, d1, d2, d3 = dx[ic*n:][:l], dx[(ic+1)*n:][:l], dx[(ic+2)*n:][:l], dx[(ic+3)*n:][:l]
		}
		for t := ka - 1; t >= 0; t-- {
			off, i := tg.tapOff(t), ic*ka+t
			a := [4]float32{dw[i], dw[i+ka], dw[i+2*ka], dw[i+3*ka]}
			gatherDot4(rs, off, x0, x1, x2, x3, &a)
			dw[i], dw[i+ka], dw[i+2*ka], dw[i+3*ka] = a[0], a[1], a[2], a[3]
			if dx != nil {
				ws := [4]float32{w[i], w[i+ka], w[i+2*ka], w[i+3*ka]}
				scatterAxpy4(rs, off, d0, d1, d2, d3, &ws)
			}
		}
	}
	for ; ic < nIC; ic++ {
		base := ic * n
		t := ka - 1
		for ; t >= 3; t -= 4 {
			o0, o1, o2, o3 := tg.tapOff(t), tg.tapOff(t-1), tg.tapOff(t-2), tg.tapOff(t-3)
			m, i := l-o0, ic*ka+t // o0 is the largest offset
			a := [4]float32{dw[i], dw[i-1], dw[i-2], dw[i-3]}
			gatherDot4(rs, 0, x[base+o0:][:m], x[base+o1:][:m], x[base+o2:][:m], x[base+o3:][:m], &a)
			dw[i], dw[i-1], dw[i-2], dw[i-3] = a[0], a[1], a[2], a[3]
			if dx != nil {
				ws := [4]float32{w[i], w[i-1], w[i-2], w[i-3]}
				scatterAxpy4(rs, 0, dx[base+o0:][:m], dx[base+o1:][:m], dx[base+o2:][:m], dx[base+o3:][:m], &ws)
			}
		}
		for ; t >= 0; t-- {
			off, i := tg.tapOff(t), ic*ka+t
			dw[i] = gatherDot(rs, off, x[base:][:l], dw[i])
			if dx != nil {
				scatterAxpy(rs, off, dx[base:][:l], w[i])
			}
		}
	}
}

// tapOff returns the input offset of tap t from tap (0, 0); it grows
// with t.
func (tg *tapGrad) tapOff(t int) int {
	return t/tg.kw*tg.rowStep + t%tg.kw*tg.dilW
}

// The leaf kernels below keep few enough values live that the compiler
// holds all of them in registers; the four-plane forms run four
// independent sums, and pin every plane to the first one's length so
// one bounds check covers all four.

// gatherDot4 adds Σ d·xc[p+off] over rs, in order, to a[c] for each of
// the four planes xc.
func gatherDot4(rs []gradAt, off int, x0, x1, x2, x3 []float32, a *[4]float32) {
	x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for _, r := range rs {
		i := int(r.p) + off
		a0 += r.d * x0[i]
		a1 += r.d * x1[i]
		a2 += r.d * x2[i]
		a3 += r.d * x3[i]
	}
	a[0], a[1], a[2], a[3] = a0, a1, a2, a3
}

// scatterAxpy4 adds d·w[c] to dc[p+off] for every gradient of rs and
// each of the four planes dc.
func scatterAxpy4(rs []gradAt, off int, d0, d1, d2, d3 []float32, w *[4]float32) {
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for _, r := range rs {
		i := int(r.p) + off
		d0[i] += r.d * w0
		d1[i] += r.d * w1
		d2[i] += r.d * w2
		d3[i] += r.d * w3
	}
}

// gatherDot returns a + Σ d·x[p+off] over rs, in order.
func gatherDot(rs []gradAt, off int, x []float32, a float32) float32 {
	for _, r := range rs {
		a += r.d * x[int(r.p)+off]
	}
	return a
}

// scatterAxpy adds d·w to dx[p+off] for every gradient of rs.
func scatterAxpy(rs []gradAt, off int, dx []float32, w float32) {
	for _, r := range rs {
		dx[int(r.p)+off] += r.d * w
	}
}
