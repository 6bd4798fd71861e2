package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/graph"
)

// conv2dBackwardDirect is the reference backward convolution: one pass
// over every nonzero output gradient d in (b, oc, oh, ow) order, adding
// d·x to dW and d·w to dIn at every in-bounds tap. conv2dBackward must
// match it bit for bit.
func conv2dBackwardDirect(in *Tensor, op *graph.Conv2dOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	icPerG := op.InC / op.Groups
	ocPerG := op.OutC / op.Groups
	kArea := op.KH * op.KW
	outH, outW := dOut.Shape.H, dOut.Shape.W
	for b := 0; b < in.Batch; b++ {
		for oc := 0; oc < op.OutC; oc++ {
			g := oc / ocPerG
			icBase := g * icPerG
			wBase := oc * icPerG * kArea
			dOutPlane := dOut.channel(b, oc)
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					d := dOutPlane[oh*outW+ow]
					if d == 0 {
						continue
					}
					if dB != nil {
						dB[oc] += d
					}
					for ic := 0; ic < icPerG; ic++ {
						inPlane := in.channel(b, icBase+ic)
						dInPlane := dIn.channel(b, icBase+ic)
						for kh := 0; kh < op.KH; kh++ {
							ih := oh*op.StrideH - op.PadH + kh*op.DilationH
							if ih < 0 || ih >= in.Shape.H {
								continue
							}
							for kw := 0; kw < op.KW; kw++ {
								iw := ow*op.StrideW - op.PadW + kw*op.DilationW
								if iw < 0 || iw >= in.Shape.W {
									continue
								}
								wIdx := wBase + ic*kArea + kh*op.KW + kw
								dW[wIdx] += d * inPlane[ih*in.Shape.W+iw]
								dInPlane[ih*in.Shape.W+iw] += d * weight[wIdx]
							}
						}
					}
				}
			}
		}
	}
}

// backwardShapes extends gemmShapes with squeezenet1_1's backward shapes
// at 32×32, depthwise convs, kernels that overhang the input, and
// channel counts around the AVX2 leaf's blocks of eight: a block and a
// tail, two blocks and a tail, two groups of two blocks.
var backwardShapes = append(append([]convCase{
	{"sq-stem-3x3-s2", graph.Shape{C: 3, H: 32, W: 32}, convShape(3, 64, 1, 3, 2, 0, 1, true)},
	{"sq-squeeze-1x1-7x7", graph.Shape{C: 64, H: 7, W: 7}, convShape(64, 16, 1, 1, 1, 0, 1, true)},
	{"sq-expand-1x1-7x7", graph.Shape{C: 16, H: 7, W: 7}, convShape(16, 64, 1, 1, 1, 0, 1, true)},
	{"sq-squeeze-1x1-3x3", graph.Shape{C: 128, H: 3, W: 3}, convShape(128, 32, 1, 1, 1, 0, 1, true)},
	{"sq-expand-3x3-p1-7x7", graph.Shape{C: 16, H: 7, W: 7}, convShape(16, 64, 1, 3, 1, 1, 1, true)},
	{"sq-expand-3x3-p1-3x3", graph.Shape{C: 32, H: 3, W: 3}, convShape(32, 128, 1, 3, 1, 1, 1, true)},
	{"sq-expand-3x3-p1-1x1", graph.Shape{C: 48, H: 1, W: 1}, convShape(48, 192, 1, 3, 1, 1, 1, true)},
	{"sq-classifier-1x1-1x1", graph.Shape{C: 512, H: 1, W: 1}, convShape(512, 1000, 1, 1, 1, 0, 1, true)},
	{"dw-3x3-p1", graph.Shape{C: 6, H: 6, W: 6}, convShape(6, 6, 6, 3, 1, 1, 1, true)},
	{"dw-5x5-s2-p2", graph.Shape{C: 4, H: 9, W: 9}, convShape(4, 8, 4, 5, 2, 2, 1, false)},
	// Output sizes round toward zero, so a kernel may overhang the
	// input's far edge by more than the padding.
	{"overhang-padded", graph.Shape{C: 8, H: 3, W: 3}, graph.Conv2dOp{InC: 8, OutC: 10, KH: 3, KW: 3,
		StrideH: 3, StrideW: 1, PadH: 1, PadW: 1, DilationH: 3, DilationW: 1, Groups: 1, Bias: true}},
	{"overhang-unpadded", graph.Shape{C: 3, H: 2, W: 5}, graph.Conv2dOp{InC: 3, OutC: 4, KH: 3, KW: 3,
		StrideH: 3, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}},
}, gemmShapes...),
	convCase{"c12-3x3-p1", graph.Shape{C: 12, H: 6, W: 6}, convShape(12, 10, 1, 3, 1, 1, 1, true)},
	convCase{"c20-3x3", graph.Shape{C: 20, H: 6, W: 5}, convShape(20, 9, 1, 3, 1, 0, 1, false)},
	convCase{"g2-c16-3x3-p1", graph.Shape{C: 32, H: 5, W: 5}, convShape(32, 12, 2, 3, 1, 1, 1, true)},
	convCase{"c16-3x3-s2-p1", graph.Shape{C: 16, H: 9, W: 9}, convShape(16, 8, 1, 3, 2, 1, 1, true)},
	convCase{"c24-3x3-p1-1x1", graph.Shape{C: 24, H: 1, W: 1}, convShape(24, 16, 1, 3, 1, 1, 1, true)},
)

// compareBackwardToDirect runs op's backward through conv2dBackward and
// through the reference on seeded normal inputs, weights and starting
// gradients, with a share zeroFrac of the output gradients set to ±0,
// and returns the first gradient whose bits differ. With nilDIn,
// conv2dBackward gets no input gradient and only dW and dB are compared.
func compareBackwardToDirect(batch int, inShape graph.Shape, op *graph.Conv2dOp, zeroFrac float64, nilDIn bool, seed int64) error {
	outShape, err := op.OutShape([]graph.Shape{inShape})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	normal := func(v []float32) {
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
	}
	in := NewTensor(batch, inShape)
	normal(in.Data)
	w := make([]float32, op.OutC*(op.InC/op.Groups)*op.KH*op.KW)
	normal(w)
	dOut := NewTensor(batch, outShape)
	normal(dOut.Data)
	for i := range dOut.Data {
		if rng.Float64() < zeroFrac {
			dOut.Data[i] *= 0 // ±0, as ReLU's backward leaves them
		}
	}
	var dB, wantDB []float32
	if op.Bias {
		dB = make([]float32, op.OutC)
		normal(dB)
		wantDB = append([]float32(nil), dB...)
	}
	dW := make([]float32, len(w))
	normal(dW)
	wantDW := append([]float32(nil), dW...)
	wantDIn := NewTensor(batch, inShape)
	normal(wantDIn.Data)
	var dIn *Tensor
	if !nilDIn {
		dIn = NewTensor(batch, inShape)
		copy(dIn.Data, wantDIn.Data)
	}
	conv2dBackward(in, op, w, dOut, dIn, dW, dB)
	conv2dBackwardDirect(in, op, w, dOut, wantDIn, wantDW, wantDB)
	check := func(name string, got, want []float32) error {
		for i, v := range want {
			if math.Float32bits(got[i]) != math.Float32bits(v) {
				return fmt.Errorf("%s[%d] = %g (%#08x), direct kernel %g (%#08x)",
					name, i, got[i], math.Float32bits(got[i]), v, math.Float32bits(v))
			}
		}
		return nil
	}
	if err := check("dW", dW, wantDW); err != nil {
		return err
	}
	if err := check("dB", dB, wantDB); err != nil {
		return err
	}
	if nilDIn {
		return nil
	}
	return check("dIn", dIn.Data, wantDIn.Data)
}

// TestConv2dBackwardMatchesDirect pins the numerics contract of every
// backward route on every leaf: dIn, dW and dB bit-identical to the
// direct kernel on every shape of the matrix, at batch 1 and 3, with
// none, half and 90% of the output gradients zero, from nonzero starting
// gradients — and with no input gradient, where dW and dB must still
// match.
func TestConv2dBackwardMatchesDirect(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		for i, c := range backwardShapes {
			op := c.op
			for _, batch := range []int{1, 3} {
				for _, zf := range []float64{0, 0.5, 0.9} {
					if err := compareBackwardToDirect(batch, c.in, &op, zf, false, int64(i)); err != nil {
						t.Errorf("%s batch %d zero share %.1f: %v", c.name, batch, zf, err)
					}
				}
			}
			if err := compareBackwardToDirect(2, c.in, &op, 0.5, true, int64(i)); err != nil {
				t.Errorf("%s nil dIn: %v", c.name, err)
			}
		}
	})
}

// FuzzConv2dBackwardShapes extends the matrix to arbitrary small
// geometries, depthwise included: every valid shape must match the
// direct kernel bit for bit on every leaf. Parameters are folded into
// small ranges as in FuzzConv2dShapes, input channels per group into
// 1–24, so a group holds up to three of the AVX2 leaf's blocks of
// eight and a tail; the seed corpus is the matrix.
func FuzzConv2dBackwardShapes(f *testing.F) {
	for i, c := range backwardShapes {
		op := c.op
		f.Add(uint8(2*(i%2)), uint8(op.Groups-1), uint8(op.InC/op.Groups-1), uint8(op.OutC/op.Groups-1),
			uint8(c.in.H-1), uint8(c.in.W-1), uint8(op.KH-1), uint8(op.KW-1),
			uint8(op.StrideH-1), uint8(op.StrideW-1), uint8(op.PadH), uint8(op.PadW),
			uint8(op.DilationH-1), uint8(op.DilationW-1), op.Bias, uint8(i*5), i%4 == 3, int64(i))
	}
	f.Fuzz(func(t *testing.T, batch, groups, icPerG, ocPerG, h, w, kh, kw, sh, sw, ph, pw, dh, dw uint8, bias bool, zero uint8, nilDIn bool, seed int64) {
		g := int(groups%8) + 1
		in := graph.Shape{C: g * (int(icPerG%24) + 1), H: int(h%16) + 1, W: int(w%16) + 1}
		op := graph.Conv2dOp{
			InC: in.C, OutC: g * (int(ocPerG%12) + 1), Groups: g,
			KH: int(kh%7) + 1, KW: int(kw%7) + 1,
			StrideH: int(sh%3) + 1, StrideW: int(sw%3) + 1,
			PadH: int(ph % 4), PadW: int(pw % 4),
			DilationH: int(dh%3) + 1, DilationW: int(dw%3) + 1,
			Bias: bias,
		}
		if _, err := op.OutShape([]graph.Shape{in}); err != nil {
			t.Skip(err)
		}
		zf := float64(zero%11) / 10
		for _, leaf := range hostLeaves() {
			var err error
			withLeaf(leaf, func() { err = compareBackwardToDirect(int(batch%3)+1, in, &op, zf, nilDIn, seed) })
			if err != nil {
				t.Fatalf("%s leaf: %+v on %v, zero share %.1f, nil dIn %v: %v", leaf.name, op, in, zf, nilDIn, err)
			}
		}
	})
}
