package exec

import "convmeter/internal/graph"

// Backward convolution runs serially inside the calling replica:
// data-parallel training already keeps every core busy with one replica
// each, so splitting a replica's backward over the shared pool only adds
// contention. It visits only the nonzero output gradients — ReLU leaves
// 40–90% of them zero in squeezenet1_1 — and picks its route from the
// shapes:
//
//   - a 1×1 output map (the classifier conv, a fire module's convs on a
//     1×1 map) takes linearBackward's form: per nonzero d, one pass over
//     the weight row of its output channel. Output channels go
//     outermost, so a row serves every image while it is in cache. When
//     the kernel reads the whole unpadded input in order (a 1×1 conv on
//     a 1×1 map, the classifier) that pass is gradRow, an axpy pair over
//     contiguous rows; otherwise (a 3×3 padded conv on a 1×1 map) it
//     walks the in-bounds taps, whose weights lie a kernel area apart.
//   - every larger map goes tap by tap, 1×1 stride-1 convs included (one
//     tap): the nonzero gradients of one output channel are gathered
//     into the scratch, and for each tap, channel by channel, dW is a
//     gathered dot product over them and dIn a scattered axpy.
//
// The taps route stages each group's input, and its input gradient,
// channels-last in pooled scratch: the group's channels lie side by side
// at every position of a zero-padded map that holds every tap, so an
// out-of-bounds tap reads a 0 and writes dIn into padding, which is
// dropped when the input gradient is copied back. A gradient's dot
// products and axpys then read and write its channels contiguously.
//
// Both routes have two leaves behind avx2Leaf. The AVX2 leaf
// (backward_amd64.go) runs the taps route's channels in blocks of eight,
// one YMM register per block and four (tap, block) streams per pass over
// the gradients, and stages and unstages eight channels by eight
// positions per in-register transpose; it runs gradRow eight floats per
// step, and a 1×1 input's one in-bounds tap of the pixel route as a
// stream of the taps route. The channels past the last block of eight,
// and every channel on the Go leaf, run the Go kernels below four at a
// time (four channels at one tap, or four taps of one channel). So:
// 3×3 and strided convs, and 1×1 stride-1 convs on maps larger than
// 1×1, take the taps route; the classifier and 1×1 convs on a 1×1 map
// take gradRow; a padded 3×3 conv on a 1×1 map takes the pixel route's
// taps.
//
// Every route and leaf adds the same terms in the same order as the
// direct kernel, which tests keep as the reference: dB[oc] and
// dW[oc][ic][kh][kw] sum over (b, oh, ow) ascending, and
// dIn[b][ic][ih][iw] over (oc, oh, ow) ascending, starting from the
// values already there; each product and each sum rounds on its own, the
// AVX2 leaf's VMULPS then VADDPS as Go's scalar d*x then +=. Where the
// direct kernel skips a term, the routes either skip it too or add ±0 —
// a zero d to dB, d·0 at a padded tap to dW — which leaves a running sum
// unchanged, the forward GEMM's caveat. So the gradients agree bit for
// bit on either leaf, and nothing allocates beyond the pooled scratch.

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
	// On the AVX2 leaf, a 1×1 input's one in-bounds tap t runs as a
	// stream of the taps route (pixelTap): there every image's channels
	// already lie side by side.
	if !flat && avx2Leaf != nil && inHW == 1 && icPerG >= 8 && kh0 < kh1 && kw0 < kw1 {
		pixelTap(in, op, weight, dOut, dIn, dW, dB, kh0*op.KW+kw0)
		return
	}
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

// pixelTap is convBackwardPixel for a 1×1 input map on the AVX2 leaf,
// whose one in-bounds tap is t: per output channel, its nonzero
// gradients over the images, in order, run as that one tap of the taps
// route.
func pixelTap(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32, t int) {
	c, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	k := c * op.KH * op.KW
	tg := tapGrad{kArea: op.KH * op.KW, taps: 1, kw: 1, c: c}
	var dx []float32
	if dIn != nil {
		dx = dIn.Data
	}
	sc := scratchPool.Get().(*kernelScratch)
	rs := &sc.grads
	for oc := 0; oc < op.OutC; oc++ {
		w, dw := weight[oc*k+t:(oc+1)*k], dW[oc*k+t:(oc+1)*k]
		m := 0
		for b := 0; b < in.Batch; b++ {
			d := dOut.Data[b*op.OutC+oc]
			if d == 0 {
				continue
			}
			if dB != nil {
				dB[oc] += d
			}
			rs[m] = gradAt{d: d, p: int32((b*op.Groups + oc/ocPerG) * c)}
			if m++; m == gradChunk {
				tg.applyTap(rs[:m], in.Data, dx, w, dw)
				m = 0
			}
		}
		tg.applyTap(rs[:m], in.Data, dx, w, dw)
	}
	scratchPool.Put(sc)
}

// applyTap adds the gradients rs to the weight gradients dw and the
// input gradients dx (nil to skip them) at tap 0 of w: the AVX2 leaf's
// channel blocks, then the channels past the last block, in Go.
func (tg *tapGrad) applyTap(rs []gradAt, x, dx, w, dw []float32) {
	if len(rs) == 0 {
		return
	}
	avx2Leaf.taps(*tg, rs, x, dx, w, dw, tg.c/8)
	ka := tg.kArea
	for _, r := range rs {
		for ic := tg.c &^ 7; ic < tg.c; ic++ {
			dw[ic*ka] += r.d * x[int(r.p)+ic]
			if dx != nil {
				dx[int(r.p)+ic] += r.d * w[ic*ka]
			}
		}
	}
}

// gradRow adds d·x to dw and, when dx is non-nil, d·w to dx, elementwise:
// one output's share of a fully connected layer's gradients. The AVX2
// leaf runs the first len(w) &^ 7 elements.
func gradRow(d float32, x, w, dw, dx []float32) {
	x, dw = x[:len(w)], dw[:len(w)]
	if dx != nil {
		dx = dx[:len(w)]
	}
	i := 0
	if avx2Leaf != nil && len(w) >= 8 {
		avx2Leaf.gradRow(d, x, w, dw, dx)
		i = len(w) &^ 7
	}
	if dx == nil {
		for ; i < len(w); i++ {
			dw[i] += d * x[i]
		}
		return
	}
	for ; i < len(w); i++ {
		dw[i] += d * x[i]
		dx[i] += d * w[i]
	}
}

// gradAt is one nonzero output gradient d of the taps route, with the
// staged offset p of its tap (0, 0): its position times the channel
// count.
type gradAt struct {
	d float32
	p int32
}

// tapGrad holds one conv's geometry for the taps route, over a staged
// map with c channels per position. Offsets are in floats. A channel's
// weights lie kArea apart; the taps route runs all kArea taps, the
// AVX2 leaf the first taps of them (all, or pixelTap's one).
type tapGrad struct {
	kArea, taps, kw, c int
	dilW, rowStep      int // offset between taps of a kernel row and between kernel rows
}

// convBackwardTaps is the route for every output map larger than 1×1.
// It works on one group at a time, gathering an output channel's
// nonzero gradients over every image into the scratch, so that small
// maps still give the leaf kernels long runs.
func convBackwardTaps(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	icPerG, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	inH, inW := in.Shape.H, in.Shape.W
	outH, outW := dOut.Shape.H, dOut.Shape.W
	// The staged map runs from tap row -PadH and column -PadW to the last
	// tap or the input's last row and column, whichever is further.
	hp := max(op.PadH+inH, (outH-1)*op.StrideH+(op.KH-1)*op.DilationH+1)
	wp := max(op.PadW+inW, (outW-1)*op.StrideW+(op.KW-1)*op.DilationW+1)
	c := icPerG
	tg := tapGrad{kArea: op.KH * op.KW, taps: op.KH * op.KW, kw: op.KW, c: c,
		dilW: op.DilationW * c, rowStep: op.DilationH * wp * c}
	k := icPerG * tg.kArea
	sl := stageLayout{c: c, h: inH, w: inW, wp: wp, top: op.PadH, left: op.PadW, img: hp * wp * c}
	n := in.Batch * sl.img
	sc := scratchPool.Get().(*kernelScratch)
	var xs, dxs []float32
	if dIn != nil {
		buf := sc.floats(2 * n)
		xs, dxs = buf[:n], buf[n:]
	} else {
		xs = sc.floats(n)
	}
	imgIn := op.InC * inH * inW // an image's input floats, every group
	rs := &sc.grads
	for g := 0; g < op.Groups; g++ {
		gOff := g * icPerG * inH * inW
		for b := 0; b < in.Batch; b++ {
			sl.stage(xs[b*sl.img:], in.Data[gOff+b*imgIn:])
			if dIn != nil {
				sl.stage(dxs[b*sl.img:], dIn.Data[gOff+b*imgIn:])
			}
		}
		for oc := g * ocPerG; oc < (g+1)*ocPerG; oc++ {
			w, dw := weight[oc*k:(oc+1)*k], dW[oc*k:(oc+1)*k]
			var bias float32
			if dB != nil {
				bias = dB[oc]
			}
			m := 0
			for b := 0; b < in.Batch; b++ {
				plane := dOut.channel(b, oc)
				for oh := 0; oh < outH; oh++ {
					row := (b*hp + oh*op.StrideH) * wp * c
					// Every d is written, only a nonzero one is kept, and a
					// zero one adds ±0 to the bias sum.
					for ow, d := range plane[oh*outW : (oh+1)*outW] {
						bias += d
						rs[m] = gradAt{d: d, p: int32(row + ow*op.StrideW*c)}
						if d != 0 {
							m++
						}
						if m == gradChunk {
							tg.apply(rs[:m], xs, dxs, w, dw)
							m = 0
						}
					}
				}
			}
			tg.apply(rs[:m], xs, dxs, w, dw)
			if dB != nil {
				dB[oc] = bias
			}
		}
		if dIn != nil {
			for b := 0; b < in.Batch; b++ {
				sl.unstage(dIn.Data[gOff+b*imgIn:], dxs[b*sl.img:])
			}
		}
	}
	scratchPool.Put(sc)
}

// stageLayout places a group's c input planes of h×w channels-last in a
// staged map wp positions wide and img floats long: input element (ic,
// r, j) lands at ((r+top)·wp + j+left)·c + ic, and the padding around
// the input is zero.
type stageLayout struct {
	c, h, w   int
	wp, img   int
	top, left int
}

// at returns the staged offset of input position q = r·w + j.
func (sl *stageLayout) at(q int) int {
	return ((q/sl.w+sl.top)*sl.wp + q%sl.w + sl.left) * sl.c
}

// stage copies the c planes at the start of src into the staged map at
// the start of dst, and zeroes its padding. The AVX2 leaf transposes
// blocks of eight channels by eight positions in registers.
func (sl *stageLayout) stage(dst, src []float32) {
	dst = dst[:sl.img]
	c, plane := sl.c, sl.h*sl.w
	end := 0 // the end of the last row
	for r := 0; r < sl.h; r++ {
		start := ((r+sl.top)*sl.wp + sl.left) * c
		clear(dst[end:start])
		end = start + sl.w*c
	}
	clear(dst[end:])
	if avx2Leaf != nil && c >= 8 {
		avx2Leaf.stage(*sl, dst, src)
		return
	}
	for r := 0; r < sl.h; r++ {
		row := dst[((r+sl.top)*sl.wp+sl.left)*c:][:sl.w*c]
		if c == 1 {
			copy(row, src[r*sl.w:][:sl.w])
			continue
		}
		src := src[r*sl.w:]
		ic := 0
		for ; ic+4 <= c; ic += 4 {
			s0 := src[ic*plane:][:sl.w]
			s1, s2, s3 := src[(ic+1)*plane:][:len(s0)], src[(ic+2)*plane:][:len(s0)], src[(ic+3)*plane:][:len(s0)]
			for j, v := range s0 {
				p := row[j*c+ic : j*c+ic+4 : j*c+ic+4]
				p[0], p[1], p[2], p[3] = v, s1[j], s2[j], s3[j]
			}
		}
		for ; ic < c; ic++ {
			for j, v := range src[ic*plane:][:sl.w] {
				row[j*c+ic] = v
			}
		}
	}
}

// unstage copies the input positions of the staged map at the start of
// src back into the c planes at the start of dst: stage in reverse.
func (sl *stageLayout) unstage(dst, src []float32) {
	c, plane := sl.c, sl.h*sl.w
	if avx2Leaf != nil && c >= 8 {
		avx2Leaf.unstage(*sl, dst, src)
		return
	}
	for r := 0; r < sl.h; r++ {
		row := src[((r+sl.top)*sl.wp+sl.left)*c:][:sl.w*c]
		if c == 1 {
			copy(dst[r*sl.w:][:sl.w], row)
			continue
		}
		dst := dst[r*sl.w:]
		ic := 0
		for ; ic+4 <= c; ic += 4 {
			d0 := dst[ic*plane:][:sl.w]
			d1, d2, d3 := dst[(ic+1)*plane:][:len(d0)], dst[(ic+2)*plane:][:len(d0)], dst[(ic+3)*plane:][:len(d0)]
			for j := range d0 {
				p := row[j*c+ic : j*c+ic+4 : j*c+ic+4]
				d0[j], d1[j], d2[j], d3[j] = p[0], p[1], p[2], p[3]
			}
		}
		for ; ic < c; ic++ {
			out := dst[ic*plane:][:sl.w]
			for j := range out {
				out[j] = row[j*c+ic]
			}
		}
	}
}

// copyIn and copyOut are stage's and unstage's copies for the positions
// [q0, q1) and channels [ic0, ic1) alone: the AVX2 leaf's tails.
func (sl *stageLayout) copyIn(dst, src []float32, q0, q1, ic0, ic1 int) {
	plane := sl.h * sl.w
	for q := q0; q < q1; q++ {
		pos := dst[sl.at(q):][:sl.c]
		for ic := ic0; ic < ic1; ic++ {
			pos[ic] = src[ic*plane+q]
		}
	}
}

func (sl *stageLayout) copyOut(dst, src []float32, q0, q1, ic0, ic1 int) {
	plane := sl.h * sl.w
	for q := q0; q < q1; q++ {
		pos := src[sl.at(q):][:sl.c]
		for ic := ic0; ic < ic1; ic++ {
			dst[ic*plane+q] = pos[ic]
		}
	}
}

// apply adds the nonzero gradients rs of one output channel, in
// ascending (oh, ow) order, to the weight gradients dw and the input
// gradients dx (nil to skip them) of its group's staged input x. Taps go
// in descending order, each over every gradient: two gradients p < p'
// reach the same input element only through taps t > t', so every input
// element still sees its terms in ascending output order. Channels are
// independent, so the AVX2 leaf takes them in blocks of eight and the
// Go kernels the rest, four at a time: four channels at one tap, or, for
// the last channels of a group narrower than four (a stem, a depthwise
// conv), four taps of one channel, each tap a view of the map shifted by
// its offset.
func (tg *tapGrad) apply(rs []gradAt, x, dx, w, dw []float32) {
	if len(rs) == 0 {
		return
	}
	c, ka := tg.c, tg.kArea
	ic := 0
	if avx2Leaf != nil && c >= 8 {
		avx2Leaf.taps(*tg, rs, x, dx, w, dw, c/8)
		ic = c &^ 7
	}
	// Channel ic of every position: gradient p reads x[ic + p].
	l := len(x) - (c - 1)
	for ; ic+4 <= c; ic += 4 {
		x0, x1, x2, x3 := x[ic:][:l], x[ic+1:][:l], x[ic+2:][:l], x[ic+3:][:l]
		var d0, d1, d2, d3 []float32
		if dx != nil {
			d0, d1, d2, d3 = dx[ic:][:l], dx[ic+1:][:l], dx[ic+2:][:l], dx[ic+3:][:l]
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
	for ; ic < c; ic++ {
		t := ka - 1
		for ; t >= 3; t -= 4 {
			o0, o1, o2, o3 := tg.tapOff(t), tg.tapOff(t-1), tg.tapOff(t-2), tg.tapOff(t-3)
			m, i := l-o0, ic*ka+t // o0 is the largest offset
			a := [4]float32{dw[i], dw[i-1], dw[i-2], dw[i-3]}
			gatherDot4(rs, 0, x[ic+o0:][:m], x[ic+o1:][:m], x[ic+o2:][:m], x[ic+o3:][:m], &a)
			dw[i], dw[i-1], dw[i-2], dw[i-3] = a[0], a[1], a[2], a[3]
			if dx != nil {
				ws := [4]float32{w[i], w[i-1], w[i-2], w[i-3]}
				scatterAxpy4(rs, 0, dx[ic+o0:][:m], dx[ic+o1:][:m], dx[ic+o2:][:m], dx[ic+o3:][:m], &ws)
			}
		}
		for ; t >= 0; t-- {
			off, i := tg.tapOff(t), ic*ka+t
			dw[i] = gatherDot(rs, off, x[ic:][:l], dw[i])
			if dx != nil {
				scatterAxpy(rs, off, dx[ic:][:l], w[i])
			}
		}
	}
}

// tapOff returns the staged offset of tap t from tap (0, 0); it grows
// with t.
func (tg *tapGrad) tapOff(t int) int {
	return t/tg.kw*tg.rowStep + t%tg.kw*tg.dilW
}

// The Go kernels below keep few enough values live that the compiler
// holds all of them in registers; the four-view forms run four
// independent sums, and pin every view to the first one's length so
// one bounds check covers all four.

// gatherDot4 adds Σ d·xc[p+off] over rs, in order, to a[c] for each of
// the four views xc.
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
// each of the four views dc.
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
