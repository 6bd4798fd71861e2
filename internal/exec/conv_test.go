package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"convmeter/internal/graph"
)

// convTask is the direct conv2d kernel, the reference every forward
// conv is compared with: one running sum per output, bias first, then
// every in-bounds tap over (ic, kh, kw) ascending. Item i enumerates the
// flattened (batch, out-channel) space.
type convTask struct {
	in, out        *Tensor
	op             *graph.Conv2dOp
	weight, bias   []float32
	icPerG, ocPerG int
	kArea          int
}

func (t *convTask) run(i int) {
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

// convDirect runs the direct kernel over the whole output.
func convDirect(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	t := convTask{
		in: in, out: out, op: op, weight: weight, bias: bias,
		icPerG: op.InC / op.Groups, ocPerG: op.OutC / op.Groups,
		kArea: op.KH * op.KW,
	}
	for i := 0; i < in.Batch*op.OutC; i++ {
		t.run(i)
	}
}

// convShape builds a square-kernel conv op with equal strides, padding
// and dilation on both axes.
func convShape(inC, outC, groups, k, stride, pad, dil int, bias bool) graph.Conv2dOp {
	return graph.Conv2dOp{InC: inC, OutC: outC, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		DilationH: dil, DilationW: dil, Groups: groups, Bias: bias}
}

// convCase is one conv shape of a test matrix.
type convCase struct {
	name string
	in   graph.Shape
	op   graph.Conv2dOp
}

// gemmShapes is the ConvBench-style matrix of GEMM-routed conv shapes.
var gemmShapes = []convCase{
	{"1x1-s1", graph.Shape{C: 8, H: 5, W: 5}, convShape(8, 12, 1, 1, 1, 0, 1, true)},
	{"1x1-s2", graph.Shape{C: 6, H: 7, W: 7}, convShape(6, 8, 1, 1, 2, 0, 1, false)},
	{"1x1-pad1", graph.Shape{C: 4, H: 3, W: 3}, convShape(4, 4, 1, 1, 1, 1, 1, true)},
	{"3x3-p1", graph.Shape{C: 5, H: 6, W: 6}, convShape(5, 8, 1, 3, 1, 1, 1, true)},
	{"7x7-s2-p3-stem", graph.Shape{C: 3, H: 16, W: 16}, convShape(3, 8, 1, 7, 2, 3, 1, false)},
	{"3x3-d2-p2", graph.Shape{C: 4, H: 7, W: 7}, convShape(4, 6, 1, 3, 1, 2, 2, true)},
	{"3x3-g2", graph.Shape{C: 6, H: 6, W: 6}, convShape(6, 8, 2, 3, 1, 1, 1, true)},
	{"3x3-g3", graph.Shape{C: 6, H: 5, W: 5}, convShape(6, 9, 3, 3, 2, 1, 1, false)},
	{"1x1-g2-pointwise", graph.Shape{C: 2, H: 3, W: 3}, convShape(2, 6, 2, 1, 1, 0, 1, true)},
	{"KN-not-mult4", graph.Shape{C: 3, H: 7, W: 5}, convShape(3, 7, 1, 3, 1, 0, 1, true)},
	{"kernel-covers-input", graph.Shape{C: 4, H: 1, W: 1}, convShape(4, 8, 1, 3, 1, 1, 1, true)},
	{"tap-never-in-bounds", graph.Shape{C: 2, H: 2, W: 2}, convShape(2, 4, 1, 3, 1, 3, 3, false)},
	{"1x3-s2x1-asym", graph.Shape{C: 3, H: 6, W: 5}, graph.Conv2dOp{InC: 3, OutC: 5, KH: 1, KW: 3,
		StrideH: 2, StrideW: 1, PadH: 0, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1, Bias: true}},
}

// depthwiseShapes is the matrix of depthwise shapes, which run the
// tap-ordered kernel: strides, padding and dilation of the zoo's
// depthwise convs, a channel multiplier, a 1×1 map with padding and a
// tap that is never in bounds.
var depthwiseShapes = []convCase{
	{"dw-3x3-s1-p1", graph.Shape{C: 4, H: 6, W: 6}, convShape(4, 4, 4, 3, 1, 1, 1, true)},
	{"dw-3x3-s2-p1", graph.Shape{C: 3, H: 7, W: 7}, convShape(3, 3, 3, 3, 2, 1, 1, false)},
	{"dw-5x5-p2", graph.Shape{C: 2, H: 8, W: 8}, convShape(2, 2, 2, 5, 1, 2, 1, true)},
	{"dw-7x7-p3", graph.Shape{C: 3, H: 9, W: 9}, convShape(3, 3, 3, 7, 1, 3, 1, true)},
	{"dw-3x3-d2-p2", graph.Shape{C: 2, H: 7, W: 7}, convShape(2, 2, 2, 3, 1, 2, 2, true)},
	{"dw-3x3-mult2", graph.Shape{C: 3, H: 5, W: 5}, convShape(3, 6, 3, 3, 1, 1, 1, true)},
	{"dw-1x1-map-p1", graph.Shape{C: 4, H: 1, W: 1}, convShape(4, 4, 4, 3, 1, 1, 1, true)},
	{"dw-tap-never-in-bounds", graph.Shape{C: 2, H: 2, W: 2}, convShape(2, 2, 2, 3, 1, 3, 3, false)},
}

// forwardShapes is every forward conv matrix: the GEMM shapes, then the
// depthwise shapes.
var forwardShapes = append(append([]convCase(nil), gemmShapes...), depthwiseShapes...)

// compareConvToDirect runs op through conv2d and through the direct
// kernel on seeded normal inputs and returns the first output whose
// bits differ.
func compareConvToDirect(batch int, inShape graph.Shape, op *graph.Conv2dOp, seed int64) error {
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
	var bias []float32
	if op.Bias {
		bias = make([]float32, op.OutC)
		normal(bias)
	}
	got, want := NewTensor(batch, outShape), NewTensor(batch, outShape)
	conv2d(in, op, w, bias, got)
	convDirect(in, op, w, bias, want)
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			return fmt.Errorf("out[%d] = %g (%#08x), direct kernel %g (%#08x)",
				i, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
		}
	}
	return nil
}

// TestConv2dGEMMMatchesDirect pins the numerics contract of the
// im2col + GEMM path and of the depthwise kernel: bit-identical to the
// direct kernel on every shape of both matrices, at batch 1 and 3, on
// every GEMM leaf.
func TestConv2dGEMMMatchesDirect(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		for _, c := range forwardShapes {
			for _, batch := range []int{1, 3} {
				op := c.op
				if err := compareConvToDirect(batch, c.in, &op, int64(batch)); err != nil {
					t.Errorf("%s batch %d: %v", c.name, batch, err)
				}
			}
		}
	})
}

// TestConv2dConcurrentCallers runs the matrix from several goroutines at
// once, as data-parallel replicas do on the shared worker pool: every
// call's column buffer and tap ranges, and every worker's packed panel,
// must stay its own.
func TestConv2dConcurrentCallers(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, c := range forwardShapes {
					op := c.op
					if err := compareConvToDirect(1+w, c.in, &op, int64(w)); err != nil {
						t.Errorf("%s batch %d: %v", c.name, 1+w, err)
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// FuzzConv2dShapes extends the matrices to arbitrary small geometries:
// every valid shape, depthwise ones included, must match the direct
// kernel bit for bit, on every GEMM leaf. The ranges cover panel tails
// (1–12 output channels per group), up to 256 columns per image,
// batch-folded 1×1 output maps (batch 1–3) and depthwise channel
// multipliers. Each parameter is folded into a small range, so one case
// stays cheap; the seed corpus is the matrices at batch 1 and 3.
func FuzzConv2dShapes(f *testing.F) {
	for i, c := range forwardShapes {
		op := c.op
		f.Add(uint8(2*(i%2)), uint8(op.Groups-1), uint8(op.InC/op.Groups-1), uint8(op.OutC/op.Groups-1),
			uint8(c.in.H-1), uint8(c.in.W-1), uint8(op.KH-1), uint8(op.KW-1),
			uint8(op.StrideH-1), uint8(op.StrideW-1), uint8(op.PadH), uint8(op.PadW),
			uint8(op.DilationH-1), uint8(op.DilationW-1), op.Bias, int64(i))
	}
	f.Fuzz(func(t *testing.T, batch, groups, icPerG, ocPerG, h, w, kh, kw, sh, sw, ph, pw, dh, dw uint8, bias bool, seed int64) {
		g := int(groups%3) + 1
		in := graph.Shape{C: g * (int(icPerG%8) + 1), H: int(h%16) + 1, W: int(w%16) + 1}
		op := graph.Conv2dOp{
			InC: in.C, OutC: g * (int(ocPerG%12) + 1), Groups: g,
			KH: int(kh%7) + 1, KW: int(kw%7) + 1,
			StrideH: int(sh%3) + 1, StrideW: int(sw%3) + 1,
			PadH: int(ph % 4), PadW: int(pw % 4),
			DilationH: int(dh%3) + 1, DilationW: int(dw%3) + 1,
			Bias: bias,
		}
		_, err := op.OutShape([]graph.Shape{in})
		if err != nil {
			t.Skip(err)
		}
		for _, leaf := range hostLeaves() {
			withLeaf(leaf, func() { err = compareConvToDirect(int(batch%3)+1, in, &op, seed) })
			if err != nil {
				t.Fatalf("%s leaf: %+v on %v: %v", leaf.name, op, in, err)
			}
		}
	})
}
