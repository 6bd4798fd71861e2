package exec

import (
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/graph"
)

func almost(a, b float32) bool {
	return math.Abs(float64(a-b)) <= 1e-4*math.Max(1, math.Abs(float64(b)))
}

func TestConv2dIdentityKernel(t *testing.T) {
	// A 1x1 convolution with weight 1 must copy the input.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1}, nil, out)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv mismatch at %d: %g", i, out.Data[i])
		}
	}
}

func TestConv2dHandComputed(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad → 2x2 sums.
	in := NewTensor(1, graph.Shape{C: 1, H: 3, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1, 1, 1, 1}, []float32{0.5}, out)
	want := []float32{1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5, 4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("conv out[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
}

func TestConv2dPaddingAndStride(t *testing.T) {
	// 2x2 input, 3x3 kernel of ones, pad 1, stride 2 → 1x1 output = sum.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	conv2d(in, op, w, nil, out)
	if !almost(out.Data[0], 10) {
		t.Fatalf("padded conv = %g, want 10", out.Data[0])
	}
}

func TestConv2dGrouped(t *testing.T) {
	// Depthwise 2-channel conv: each channel scaled independently.
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	copy(in.Data, []float32{3, 5})
	op := &graph.Conv2dOp{InC: 2, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 2}
	out := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	conv2d(in, op, []float32{2, 10}, nil, out)
	if out.Data[0] != 6 || out.Data[1] != 50 {
		t.Fatalf("grouped conv = %v", out.Data)
	}
}

func TestConv2dDilated(t *testing.T) {
	// Dilation 2 with a 2x2 kernel of ones samples corners of a 3x3 grid.
	in := NewTensor(1, graph.Shape{C: 1, H: 3, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	conv2d(in, op, []float32{1, 1, 1, 1}, nil, out)
	if !almost(out.Data[0], 1+3+7+9) {
		t.Fatalf("dilated conv = %g, want 20", out.Data[0])
	}
}

func TestConv2dAsymmetricKernel(t *testing.T) {
	// A 1x3 kernel of ones with pad (0,1): row sums with zero padding —
	// the Inception factorised-convolution shape.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 3})
	conv2d(in, op, []float32{1, 1, 1}, nil, out)
	want := []float32{
		0 + 1 + 2, 1 + 2 + 3, 2 + 3 + 0,
		0 + 4 + 5, 4 + 5 + 6, 5 + 6 + 0,
	}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("asymmetric conv out = %v, want %v", out.Data, want)
		}
	}
}

func TestConv2dStridedAsymmetric(t *testing.T) {
	// Different strides per axis: 1x1 kernel, stride (2,1).
	in := NewTensor(1, graph.Shape{C: 1, H: 4, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 2, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1}, nil, out)
	want := []float32{1, 2, 5, 6}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("strided conv out = %v, want %v", out.Data, want)
		}
	}
}

func TestLinearKernel(t *testing.T) {
	in := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	copy(in.Data, []float32{1, 2, 3 /* batch 1 */, 4, 5, 6 /* batch 2 */})
	op := &graph.LinearOp{In: 3, Out: 2, Bias: true}
	// W = [[1,0,0],[0,1,1]], b = [10, 20]
	w := []float32{1, 0, 0, 0, 1, 1}
	b := []float32{10, 20}
	out := NewTensor(2, graph.Shape{C: 2, H: 1, W: 1})
	linear(in, op, w, b, out)
	want := []float32{11, 25, 14, 31}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("linear out = %v, want %v", out.Data, want)
		}
	}
}

func TestTokenLinearKernel(t *testing.T) {
	// 2 tokens, dim 2 → out dim 1 with W=[1,1]: per-token sums.
	in := NewTensor(1, graph.Shape{C: 2, H: 2, W: 1})
	// layout: channel-major — c0: tokens [1, 2]; c1: tokens [3, 4]
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.TokenLinearOp{In: 2, Out: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 1})
	tokenLinear(in, op, []float32{1, 1}, nil, out)
	if !almost(out.Data[0], 4) || !almost(out.Data[1], 6) {
		t.Fatalf("token linear = %v, want [4 6]", out.Data)
	}
}

func TestBatchNormKernel(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	out := NewTensor(1, in.Shape)
	batchNorm(in, []float32{2, 0.5}, []float32{1, -1}, out)
	want := []float32{3, 5, 0.5, 1}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("bn out = %v, want %v", out.Data, want)
		}
	}
}

func TestLayerNormKernel(t *testing.T) {
	// One token with values [1, 3]: mean 2, var 1 → normalised [-1, 1].
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	copy(in.Data, []float32{1, 3})
	out := NewTensor(1, in.Shape)
	layerNorm(in, []float32{1, 1}, []float32{0, 0}, out)
	if !almost(out.Data[0], -1) || !almost(out.Data[1], 1) {
		t.Fatalf("ln out = %v, want [-1 1]", out.Data)
	}
}

func TestActivationNumerics(t *testing.T) {
	cases := []struct {
		fn   graph.ActFunc
		x    float32
		want float32
	}{
		{graph.ReLU, -2, 0},
		{graph.ReLU, 2, 2},
		{graph.ReLU6, 7, 6},
		{graph.Sigmoid, 0, 0.5},
		{graph.SiLU, 0, 0},
		{graph.HardSigmoid, 3, 1},
		{graph.HardSigmoid, -3, 0},
		{graph.HardSwish, 3, 3},
		{graph.Tanh, 0, 0},
		{graph.GELU, 0, 0},
	}
	for _, c := range cases {
		if got := applyAct(c.fn, c.x); !almost(got, c.want) {
			t.Errorf("%s(%g) = %g, want %g", c.fn, c.x, got, c.want)
		}
	}
	// GELU(x) ≈ x for large positive x, ≈ 0 for large negative.
	if g := applyAct(graph.GELU, 10); !almost(g, 10) {
		t.Errorf("GELU(10) = %g", g)
	}
	if g := applyAct(graph.GELU, -10); math.Abs(float64(g)) > 1e-3 {
		t.Errorf("GELU(-10) = %g", g)
	}
	// activation's own ReLU and ReLU6 loops must match applyAct bit for
	// bit, on both sides of every bit-pattern boundary they select on:
	// ±0, the smallest negative subnormal, 6, ±Inf and NaNs of both signs.
	edge := []float32{float32(math.Copysign(0, -1)), 0, -1, 3, 6, 6.5,
		math.Float32frombits(0x80000001), math.Nextafter32(6, 7), math.Nextafter32(6, 0),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0x7F800001), math.Float32frombits(0xFF800001), math.Float32frombits(0xFFC00000)}
	in := NewTensor(1, graph.Shape{C: len(edge), H: 1, W: 1})
	copy(in.Data, edge)
	out := NewTensor(1, in.Shape)
	for _, fn := range []graph.ActFunc{graph.ReLU, graph.ReLU6, graph.HardSwish} {
		activation(in, fn, out)
		for i, x := range edge {
			if want := applyAct(fn, x); math.Float32bits(out.Data[i]) != math.Float32bits(want) {
				t.Errorf("activation %s(%g) = %g, applyAct %g", fn, x, out.Data[i], want)
			}
		}
	}
}

// pool2dRef is the serial pool loop, the reference for pool2d's split:
// one pass over every (image, channel) plane on the caller.
func pool2dRef(in *Tensor, op *graph.Pool2dOp, out *Tensor) {
	kArea := float32(op.KH * op.KW)
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					var acc float32
					if op.PoolKind == graph.MaxPool {
						acc = float32(math.Inf(-1))
					}
					for kh := 0; kh < op.KH; kh++ {
						ih := oh*op.StrideH - op.PadH + kh
						if ih < 0 || ih >= in.Shape.H {
							continue
						}
						for kw := 0; kw < op.KW; kw++ {
							iw := ow*op.StrideW - op.PadW + kw
							if iw < 0 || iw >= in.Shape.W {
								continue
							}
							v := src[ih*in.Shape.W+iw]
							if op.PoolKind == graph.MaxPool {
								if v > acc {
									acc = v
								}
							} else {
								acc += v
							}
						}
					}
					if op.PoolKind == graph.AvgPool {
						acc /= kArea // count_include_pad, PyTorch default
					}
					dst[oh*out.Shape.W+ow] = acc
				}
			}
		}
	}
}

// splitInputs returns tensors of at least splitMinElems floats, so the
// kernels take their split path: 11×13 planes (one item each), 1×1
// and 2×2 planes (16 and 4 to an item, the last item short), filled
// with seeded normal values with NaNs of both signs and a signalling
// payload, ±Inf, ±0 and the smallest subnormals spread through them.
func splitInputs() []*Tensor {
	special := []float32{float32(math.NaN()), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.Float32frombits(1), math.Float32frombits(0x80000001)}
	var ins []*Tensor
	for _, shape := range []graph.Shape{{C: 33, H: 11, W: 13}, {C: 4163, H: 1, W: 1}, {C: 1041, H: 2, W: 2}} {
		in := NewTensor(2, shape)
		if len(in.Data) < splitMinElems {
			panic("splitInputs is below the split cutoff")
		}
		normalFill(rand.New(rand.NewSource(3)), in.Data)
		for i := range in.Data {
			if i%97 < len(special) {
				in.Data[i] = special[i%97]
			}
		}
		ins = append(ins, in)
	}
	return ins
}

// TestActivationSplitMatchesApplyAct runs every activation function over
// tensors that take the split path: every output must equal applyAct of
// its input bit for bit.
func TestActivationSplitMatchesApplyAct(t *testing.T) {
	for _, in := range splitInputs() {
		out := NewTensor(in.Batch, in.Shape)
		for _, fn := range allActFuncs {
			activation(in, fn, out)
			for i, x := range in.Data {
				if want := applyAct(fn, x); math.Float32bits(out.Data[i]) != math.Float32bits(want) {
					t.Errorf("activation %s on %v: out[%d] = %#08x for %#08x, applyAct %#08x",
						fn, in.Shape, i, math.Float32bits(out.Data[i]), math.Float32bits(x), math.Float32bits(want))
					break
				}
			}
		}
	}
}

// TestPool2dSplitMatchesSerial runs both pooling kinds over tensors that
// take the split path, in the zoo's geometries where the planes hold
// them: every output must equal the serial loop's bit for bit.
func TestPool2dSplitMatchesSerial(t *testing.T) {
	for _, in := range splitInputs() {
		for _, kind := range []graph.PoolKind{graph.MaxPool, graph.AvgPool} {
			for _, op := range []graph.Pool2dOp{
				{PoolKind: kind, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
				{PoolKind: kind, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
				{PoolKind: kind, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
			} {
				outShape, err := op.OutShape([]graph.Shape{in.Shape})
				if err != nil || outShape.H < 1 || outShape.W < 1 {
					continue // the kernel does not fit these planes
				}
				got, want := NewTensor(in.Batch, outShape), NewTensor(in.Batch, outShape)
				pool2d(in, &op, got)
				pool2dRef(in, &op, want)
				if err := firstBitDiff(got.Data, want.Data); err != nil {
					t.Errorf("%s %dx%d s%d p%d on %v: %v", kind, op.KH, op.KW, op.StrideH, op.PadH, in.Shape, err)
				}
			}
		}
	}
}

func TestMaxAndAvgPool(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	mp := &graph.Pool2dOp{PoolKind: graph.MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	pool2d(in, mp, out)
	if out.Data[0] != 4 {
		t.Fatalf("maxpool = %g", out.Data[0])
	}
	ap := &graph.Pool2dOp{PoolKind: graph.AvgPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	pool2d(in, ap, out)
	if !almost(out.Data[0], 2.5) {
		t.Fatalf("avgpool = %g", out.Data[0])
	}
}

func TestAdaptiveAvgPoolGlobal(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	adaptiveAvgPool(in, out)
	if !almost(out.Data[0], 2.5) {
		t.Fatalf("global pool = %g", out.Data[0])
	}
}

func TestAdaptiveAvgPoolUpsample(t *testing.T) {
	// 1x1 → 2x2 replication (the AlexNet-at-small-image case).
	in := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	in.Data[0] = 7
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	adaptiveAvgPool(in, out)
	for _, v := range out.Data {
		if v != 7 {
			t.Fatalf("upsampled pool = %v", out.Data)
		}
	}
}

func TestAttentionUniformValues(t *testing.T) {
	// If all keys are equal, attention weights are uniform and the output
	// equals the mean of the values.
	dim, T := 2, 3
	in := NewTensor(1, graph.Shape{C: 3 * dim, H: T, W: 1})
	// q arbitrary, k identical per token, v = token index.
	for d := 0; d < dim; d++ {
		for tok := 0; tok < T; tok++ {
			in.Set(0, d, tok, 0, float32(d+1))       // q
			in.Set(0, dim+d, tok, 0, 1)              // k constant
			in.Set(0, 2*dim+d, tok, 0, float32(tok)) // v
		}
	}
	op := &graph.AttentionCoreOp{Dim: dim, Heads: 1}
	out := NewTensor(1, graph.Shape{C: dim, H: T, W: 1})
	attentionCore(in, op, out)
	wantMean := float32(0+1+2) / 3
	for d := 0; d < dim; d++ {
		for tok := 0; tok < T; tok++ {
			if !almost(out.At(0, d, tok, 0), wantMean) {
				t.Fatalf("attention out[%d,%d] = %g, want %g", d, tok, out.At(0, d, tok, 0), wantMean)
			}
		}
	}
}

func TestAttentionSoftmaxSelectivity(t *testing.T) {
	// With one key aligned to the query and others orthogonal, the output
	// must lean strongly toward the aligned token's value.
	dim, T := 2, 2
	in := NewTensor(1, graph.Shape{C: 3 * dim, H: T, W: 1})
	// Query for token 0 = [10, 0]; keys: token0=[10,0], token1=[-10,0].
	in.Set(0, 0, 0, 0, 10)
	in.Set(0, dim, 0, 0, 10)
	in.Set(0, dim, 1, 0, -10)
	// Values: token0 = 1, token1 = -1 in channel 0.
	in.Set(0, 2*dim, 0, 0, 1)
	in.Set(0, 2*dim, 1, 0, -1)
	op := &graph.AttentionCoreOp{Dim: dim, Heads: 1}
	out := NewTensor(1, graph.Shape{C: dim, H: T, W: 1})
	attentionCore(in, op, out)
	if out.At(0, 0, 0, 0) < 0.99 {
		t.Fatalf("attention not selective: %g", out.At(0, 0, 0, 0))
	}
}

func TestToTokensLayout(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 2}) // 2 patches, dim 2
	copy(in.Data, []float32{1, 2, 3, 4})              // c0: [1,2], c1: [3,4]
	op := &graph.ToTokensOp{Dim: 2, Tokens: 3}
	pos := make([]float32, 3*2) // zero positions
	cls := []float32{9, 8}
	out := NewTensor(1, graph.Shape{C: 2, H: 3, W: 1})
	toTokens(in, op, cls, pos, out)
	// token 0 = class token; tokens 1,2 = patches.
	if out.At(0, 0, 0, 0) != 9 || out.At(0, 1, 0, 0) != 8 {
		t.Fatal("class token misplaced")
	}
	if out.At(0, 0, 1, 0) != 1 || out.At(0, 0, 2, 0) != 2 {
		t.Fatal("patch channel 0 misplaced")
	}
	if out.At(0, 1, 1, 0) != 3 || out.At(0, 1, 2, 0) != 4 {
		t.Fatal("patch channel 1 misplaced")
	}
}
