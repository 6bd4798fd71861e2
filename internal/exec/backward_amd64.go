package exec

// The AVX2 leaf of the training step: the taps route's channel blocks
// (tapGrad4, tapGrad1), gradRow (gradRow8) and the SGD update (sgd8), in
// backward_amd64.s. Each lane of a YMM register carries one element's
// own running sum or update, VMULPS then VADDPS or VSUBPS with no FMA,
// with the operands in the Go loop's order, so every lane rounds exactly
// as the scalar code does. Assembly has no bounds checks, so each
// wrapper indexes the last element every pointer reaches before the
// call.

//go:noescape
func tapGrad4(rs *gradAt, n int, x, dx *float32, offs *[4]int, dw, w *float32, at *[4]int, lanes *[8]int32)

//go:noescape
func tapGrad1(rs *gradAt, n int, x, dx *float32, off int, dw, w *float32, lanes *[8]int32)

//go:noescape
func gradRow8(d float32, x, w, dw, dx *float32, n int)

//go:noescape
func sgd8(w, grads *float32, n int, scale, lr float32)

// tapsAVX2 runs tg.apply's first 8·blocks channels. A stream is one
// (tap, block of eight channels): its eight dW sums in one register, its
// eight weights in another, both gathered a kernel area apart. Streams
// go taps descending, blocks ascending, four to a pass over the
// gradients (tapGrad4), the last one to three one to a pass (tapGrad1):
// each block still takes its taps in descending order, each over the
// gradients in ascending order.
func tapsAVX2(tg tapGrad, rs []gradAt, x, dx, w, dw []float32, blocks int) {
	ka := tg.kArea
	var lanes [8]int32
	for r := range lanes {
		lanes[r] = int32(r * ka)
	}
	var offs, at [4]int
	s := 0
	for t := tg.taps - 1; t >= 0; t-- {
		off := tg.tapOff(t)
		for blk := 0; blk < blocks; blk++ {
			offs[s], at[s] = off+8*blk, 8*blk*ka+t
			s++
			if s < 4 {
				continue
			}
			lastX := int(rs[len(rs)-1].p) + max(offs[0], offs[1], offs[2], offs[3]) + 7
			lastW := max(at[0], at[1], at[2], at[3]) + 7*ka
			tapGrad4(&rs[0], len(rs), pointer(x, lastX), pointer(dx, lastX), &offs,
				pointer(dw, lastW), pointer(w, lastW), &at, &lanes)
			s = 0
		}
	}
	for j := 0; j < s; j++ {
		lastX := int(rs[len(rs)-1].p) + offs[j] + 7
		_, _ = dw[at[j]+7*ka], w[at[j]+7*ka]
		tapGrad1(&rs[0], len(rs), pointer(x, lastX), pointer(dx, lastX), offs[j], &dw[at[j]], &w[at[j]], &lanes)
	}
}

// stageAVX2 fills the staged map as stageLayout.stage does, each block
// of eight positions by eight channels in one transpose8x8: rows are
// the channels' planes, columns the positions' staged channels. The
// last positions and channels past the blocks take copyIn.
func stageAVX2(sl stageLayout, dst, src []float32) {
	plane, c := sl.h*sl.w, sl.c
	q8, c8 := plane&^7, c&^7
	var rows, cols [8]int
	for q0 := 0; q0 < q8; q0 += 8 {
		for j := range cols {
			cols[j] = sl.at(q0 + j)
		}
		for ic := 0; ic < c8; ic += 8 {
			for i := range rows {
				rows[i] = (ic+i)*plane + q0
			}
			_, _ = src[rows[7]+7], dst[ic+cols[7]+7]
			transpose8x8(&dst[ic], &cols, &src[0], &rows)
		}
	}
	sl.copyIn(dst, src, 0, q8, c8, c)
	sl.copyIn(dst, src, q8, plane, 0, c)
}

// unstageAVX2 copies the staged map back as stageLayout.unstage does:
// stageAVX2 with rows and columns exchanged.
func unstageAVX2(sl stageLayout, dst, src []float32) {
	plane, c := sl.h*sl.w, sl.c
	q8, c8 := plane&^7, c&^7
	var rows, cols [8]int
	for q0 := 0; q0 < q8; q0 += 8 {
		for j := range rows {
			rows[j] = sl.at(q0 + j)
		}
		for ic := 0; ic < c8; ic += 8 {
			for i := range cols {
				cols[i] = (ic+i)*plane + q0
			}
			_, _ = src[ic+rows[7]+7], dst[cols[7]+7]
			transpose8x8(&dst[0], &cols, &src[ic], &rows)
		}
	}
	sl.copyOut(dst, src, 0, q8, c8, c)
	sl.copyOut(dst, src, q8, plane, 0, c)
}

// pointer returns &v[0] after indexing v[last], or nil for a nil v.
func pointer(v []float32, last int) *float32 {
	if v == nil {
		return nil
	}
	_ = v[last]
	return &v[0]
}

// gradRowAVX2 runs gradRow's first len(w) &^ 7 elements; dx may be nil.
func gradRowAVX2(d float32, x, w, dw, dx []float32) {
	n := len(w) &^ 7
	gradRow8(d, pointer(x, n-1), pointer(w, n-1), pointer(dw, n-1), pointer(dx, n-1), n)
}

// sgdAVX2 runs ApplySGD's first len(w) &^ 7 elements.
func sgdAVX2(w, grads []float32, scale, lr float32) {
	n := len(w) &^ 7
	if n == 0 {
		return
	}
	sgd8(pointer(w, n-1), pointer(grads, n-1), n, scale, lr)
}
