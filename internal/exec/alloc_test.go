package exec

import (
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/testrace"
)

// assertZeroAllocs warms f (pool start, task pools, amortised scratch
// growth) and then pins 0 allocs/op.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		f()
	}
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s allocates %.2f/op, want 0", name, n)
	}
}

// TestKernelsZeroAllocs pins the steady-state allocation contract of
// every forward kernel, on every branch: each activation function and
// both pooling kinds.
func TestKernelsZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	convOp := &graph.Conv2dOp{InC: 2, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		DilationH: 1, DilationW: 1, Groups: 1, Bias: true}
	convIn := NewTensor(2, graph.Shape{C: 2, H: 4, W: 4})
	convOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	convW := make([]float32, 3*2*3*3)
	convB := make([]float32, 3)
	fill(convIn.Data)
	fill(convW)
	assertZeroAllocs(t, "conv2d k×k GEMM", func() {
		conv2d(convIn, convOp, convW, convB, convOut)
	})
	pointOp := &graph.Conv2dOp{InC: 2, OutC: 4, KH: 1, KW: 1,
		StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	pointOut := NewTensor(2, graph.Shape{C: 4, H: 4, W: 4})
	pointW := make([]float32, 4*2)
	fill(pointW)
	assertZeroAllocs(t, "conv2d 1×1 GEMM", func() {
		conv2d(convIn, pointOp, pointW, nil, pointOut)
	})
	dwOp := &graph.Conv2dOp{InC: 2, OutC: 2, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		DilationH: 1, DilationW: 1, Groups: 2, Bias: true}
	dwOut := NewTensor(2, graph.Shape{C: 2, H: 4, W: 4})
	dwW := make([]float32, 2*3*3)
	fill(dwW)
	assertZeroAllocs(t, "conv2d depthwise", func() {
		conv2d(convIn, dwOp, dwW, convB[:2], dwOut)
	})

	gemmAllocCases(t)

	normIn := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	normOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	scale := []float32{1, 2, 0.5}
	shift := []float32{0, 1, -1}
	fill(normIn.Data)
	assertZeroAllocs(t, "batchNorm", func() {
		batchNorm(normIn, scale, shift, normOut)
	})
	assertZeroAllocs(t, "layerNorm", func() {
		layerNorm(normIn, scale, shift, normOut)
	})
	for _, fn := range allActFuncs {
		assertZeroAllocs(t, "activation "+string(fn), func() {
			activation(normIn, fn, normOut)
		})
	}

	poolOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	for _, kind := range []graph.PoolKind{graph.MaxPool, graph.AvgPool} {
		poolOp := &graph.Pool2dOp{PoolKind: kind, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
		assertZeroAllocs(t, "pool2d "+string(kind), func() {
			pool2d(normIn, poolOp, poolOut)
		})
	}

	// The split branches of activation and pool2d, which start at
	// splitMinElems floats.
	bigIn := NewTensor(2, graph.Shape{C: 16, H: 16, W: 16})
	bigOut := NewTensor(2, graph.Shape{C: 16, H: 16, W: 16})
	if len(bigIn.Data) < splitMinElems {
		t.Fatalf("split case has %d floats, below the cutoff %d", len(bigIn.Data), splitMinElems)
	}
	fill(bigIn.Data)
	for _, fn := range allActFuncs {
		assertZeroAllocs(t, "activation "+string(fn)+" split", func() {
			activation(bigIn, fn, bigOut)
		})
	}
	bigPoolOut := NewTensor(2, graph.Shape{C: 16, H: 8, W: 8})
	for _, kind := range []graph.PoolKind{graph.MaxPool, graph.AvgPool} {
		poolOp := &graph.Pool2dOp{PoolKind: kind, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
		assertZeroAllocs(t, "pool2d "+string(kind)+" split", func() {
			pool2d(bigIn, poolOp, bigPoolOut)
		})
	}
	gapOut := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	assertZeroAllocs(t, "adaptiveAvgPool", func() {
		adaptiveAvgPool(normIn, gapOut)
	})

	attnOp := &graph.AttentionCoreOp{Dim: 4, Heads: 2}
	attnIn := NewTensor(2, graph.Shape{C: 12, H: 3, W: 1})
	attnOut := NewTensor(2, graph.Shape{C: 4, H: 3, W: 1})
	fill(attnIn.Data)
	assertZeroAllocs(t, "attentionCore", func() {
		attentionCore(attnIn, attnOp, attnOut)
	})

	tokensOp := &graph.ToTokensOp{Dim: 3, Tokens: 5}
	tokensIn := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	tokensOut := NewTensor(2, graph.Shape{C: 3, H: 5, W: 1})
	cls := make([]float32, 3)
	pos := make([]float32, 3*5)
	fill(tokensIn.Data)
	assertZeroAllocs(t, "toTokens", func() {
		toTokens(tokensIn, tokensOp, cls, pos, tokensOut)
	})
}

// gemmAllocCases pins the shared GEMM task on every host leaf: columns
// of a tile and a tail (n ≥ 8) with a partial 8-row panel, a batch-folded
// 1×1 map, linear at batch 1 (a one-column GEMM) and 5, and tokenLinear.
func gemmAllocCases(t *testing.T) {
	wideOp := &graph.Conv2dOp{InC: 3, OutC: 11, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		DilationH: 1, DilationW: 1, Groups: 1, Bias: true}
	wideIn := NewTensor(2, graph.Shape{C: 3, H: 5, W: 5})
	wideOut := NewTensor(2, graph.Shape{C: 11, H: 5, W: 5})
	wideW := make([]float32, 11*3*3*3)
	wideB := make([]float32, 11)
	fill(wideIn.Data)
	fill(wideW)

	foldOp := &graph.Conv2dOp{InC: 4, OutC: 10, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1,
		DilationH: 1, DilationW: 1, Groups: 1}
	foldIn := NewTensor(3, graph.Shape{C: 4, H: 2, W: 2})
	foldOut := NewTensor(3, graph.Shape{C: 10, H: 1, W: 1})
	foldW := make([]float32, 10*4*3*3)
	fill(foldIn.Data)
	fill(foldW)

	linOp := &graph.LinearOp{In: 13, Out: 9, Bias: true}
	linIn1 := NewTensor(1, graph.Shape{C: 13, H: 1, W: 1})
	linOut1 := NewTensor(1, graph.Shape{C: 9, H: 1, W: 1})
	linIn5 := NewTensor(5, graph.Shape{C: 13, H: 1, W: 1})
	linOut5 := NewTensor(5, graph.Shape{C: 9, H: 1, W: 1})
	linW := make([]float32, 13*9)
	linB := make([]float32, 9)
	fill(linIn1.Data)
	fill(linIn5.Data)
	fill(linW)

	tokOp := &graph.TokenLinearOp{In: 4, Out: 6, Bias: true}
	tokIn := NewTensor(2, graph.Shape{C: 4, H: 3, W: 1})
	tokOut := NewTensor(2, graph.Shape{C: 6, H: 3, W: 1})
	tokW := make([]float32, 4*6)
	tokB := make([]float32, 6)
	fill(tokIn.Data)
	fill(tokW)

	for _, leaf := range hostLeaves() {
		withLeaf(leaf, func() {
			assertZeroAllocs(t, leaf.name+" conv2d n≥8 OutC 11", func() {
				conv2d(wideIn, wideOp, wideW, wideB, wideOut)
			})
			assertZeroAllocs(t, leaf.name+" conv2d 1×1 map batch 3", func() {
				conv2d(foldIn, foldOp, foldW, nil, foldOut)
			})
			assertZeroAllocs(t, leaf.name+" linear batch 1", func() {
				linear(linIn1, linOp, linW, linB, linOut1)
			})
			assertZeroAllocs(t, leaf.name+" linear batch 5", func() {
				linear(linIn5, linOp, linW, linB, linOut5)
			})
			assertZeroAllocs(t, leaf.name+" tokenLinear", func() {
				tokenLinear(tokIn, tokOp, tokW, tokB, tokOut)
			})
		})
	}
}

// TestBackwardKernelsZeroAllocs pins the same contract on the backward
// kernels used by the training path.
func TestBackwardKernelsZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	// One conv2dBackward case per route and staging (conv_backward.go),
	// on every host leaf, with groups narrower than the AVX2 leaf's
	// blocks of eight channels and as wide as one or more, with and
	// without an input gradient.
	for _, c := range []struct {
		name   string
		in     graph.Shape
		op     graph.Conv2dOp
		nilDIn bool
	}{
		{"taps padded", graph.Shape{C: 2, H: 4, W: 4}, convShape(2, 3, 1, 3, 1, 1, 1, true), false},
		{"taps 1×1", graph.Shape{C: 6, H: 5, W: 5}, convShape(6, 8, 1, 1, 1, 0, 1, true), false},
		{"taps strided", graph.Shape{C: 3, H: 9, W: 9}, convShape(3, 8, 1, 3, 2, 0, 1, true), false},
		{"taps depthwise", graph.Shape{C: 4, H: 5, W: 5}, convShape(4, 4, 4, 3, 1, 1, 1, false), false},
		{"pixel flat", graph.Shape{C: 8, H: 1, W: 1}, convShape(8, 6, 1, 1, 1, 0, 1, true), false},
		{"pixel taps", graph.Shape{C: 4, H: 1, W: 1}, convShape(4, 6, 1, 3, 1, 1, 1, true), false},
		{"taps padded nil dIn", graph.Shape{C: 6, H: 5, W: 5}, convShape(6, 8, 1, 3, 1, 1, 1, true), true},
		{"pixel flat nil dIn", graph.Shape{C: 8, H: 1, W: 1}, convShape(8, 6, 1, 1, 1, 0, 1, true), true},
		{"taps padded 20 channels", graph.Shape{C: 20, H: 5, W: 5}, convShape(20, 6, 1, 3, 1, 1, 1, true), false},
		{"taps padded 20 channels nil dIn", graph.Shape{C: 20, H: 5, W: 5}, convShape(20, 6, 1, 3, 1, 1, 1, true), true},
		{"taps 1×1 16 channels", graph.Shape{C: 16, H: 4, W: 4}, convShape(16, 6, 1, 1, 1, 0, 1, false), false},
		{"taps 1×1 16 channels nil dIn", graph.Shape{C: 16, H: 4, W: 4}, convShape(16, 6, 1, 1, 1, 0, 1, false), true},
		{"taps 2 groups of 8", graph.Shape{C: 16, H: 5, W: 5}, convShape(16, 4, 2, 3, 2, 0, 1, true), false},
		{"pixel taps 12 channels", graph.Shape{C: 12, H: 1, W: 1}, convShape(12, 6, 1, 3, 1, 1, 1, true), false},
		{"pixel taps 12 channels nil dIn", graph.Shape{C: 12, H: 1, W: 1}, convShape(12, 6, 1, 3, 1, 1, 1, true), true},
	} {
		op := c.op
		outShape, err := op.OutShape([]graph.Shape{c.in})
		if err != nil {
			t.Fatal(err)
		}
		rIn, rDOut := NewTensor(2, c.in), NewTensor(2, outShape)
		fill(rIn.Data)
		fill(rDOut.Data)
		var rDIn *Tensor
		if !c.nilDIn {
			rDIn = NewTensor(2, c.in)
		}
		rW := make([]float32, op.OutC*op.InC/op.Groups*op.KH*op.KW)
		rDW := make([]float32, len(rW))
		var rDB []float32
		if op.Bias {
			rDB = make([]float32, op.OutC)
		}
		fill(rW)
		for _, leaf := range hostLeaves() {
			withLeaf(leaf, func() {
				assertZeroAllocs(t, leaf.name+" conv2dBackward "+c.name, func() {
					conv2dBackward(rIn, &op, rW, rDOut, rDIn, rDW, rDB)
				})
			})
		}
	}

	linOp := &graph.LinearOp{In: 8, Out: 4, Bias: true}
	linIn := NewTensor(2, graph.Shape{C: 8, H: 1, W: 1})
	linDIn := NewTensor(2, graph.Shape{C: 8, H: 1, W: 1})
	linDOut := NewTensor(2, graph.Shape{C: 4, H: 1, W: 1})
	linW := make([]float32, 8*4)
	linDW := make([]float32, len(linW))
	linDB := make([]float32, 4)
	fill(linIn.Data)
	fill(linDOut.Data)
	fill(linW)
	for _, leaf := range hostLeaves() {
		withLeaf(leaf, func() {
			assertZeroAllocs(t, leaf.name+" linearBackward", func() {
				linearBackward(linIn, linOp, linW, linDOut, linDIn, linDW, linDB)
			})
		})
	}

	act := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actDOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actDIn := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	fill(act.Data)
	fill(actDOut.Data)
	for _, fn := range allActFuncs {
		if fn == graph.Softmax {
			continue // activationBackward rejects a standalone softmax
		}
		activation(act, fn, actOut)
		assertZeroAllocs(t, "activationBackward "+string(fn), func() {
			if err := activationBackward(fn, act, actOut, actDOut, actDIn); err != nil {
				t.Fatal(err)
			}
		})
	}

	scale := []float32{1, 2, 0.5}
	dScale := make([]float32, 3)
	dShift := make([]float32, 3)
	assertZeroAllocs(t, "batchNormBackward", func() {
		batchNormBackward(act, scale, actDOut, actDIn, dScale, dShift)
	})

	poolOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	poolDOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	fill(poolDOut.Data)
	for _, kind := range []graph.PoolKind{graph.MaxPool, graph.AvgPool} {
		poolOp := &graph.Pool2dOp{PoolKind: kind, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
		pool2d(act, poolOp, poolOut)
		assertZeroAllocs(t, "pool2dBackward "+string(kind), func() {
			pool2dBackward(act, poolOp, poolOut, poolDOut, actDIn)
		})
	}

	gapDOut := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	fill(gapDOut.Data)
	assertZeroAllocs(t, "adaptiveAvgPoolBackward", func() {
		adaptiveAvgPoolBackward(act, gapDOut, actDIn)
	})

	gate := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	dFull := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	dGate := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	fill(gate.Data)
	assertZeroAllocs(t, "mulBackward", func() {
		mulBackward(act, gate, actDOut, dFull, dGate)
	})
}

// TestOptimizersZeroAllocs pins the fused updates: one pass over the
// vectors, nothing allocated.
func TestOptimizersZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	e, err := NewExecutor(tinyCNN(t, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]float32, len(e.params))
	fill(grads)
	for _, leaf := range hostLeaves() {
		withLeaf(leaf, func() {
			assertZeroAllocs(t, leaf.name+" ApplySGD", func() { e.ApplySGD(grads, 0.5, 1e-3) })
		})
	}
	st := e.NewAdamState()
	assertZeroAllocs(t, "ApplyAdam", func() { e.ApplyAdam(st, grads, 0.5, 1e-3) })
}

// allActFuncs lists every activation function graph accepts.
var allActFuncs = []graph.ActFunc{
	graph.ReLU, graph.ReLU6, graph.SiLU, graph.HardSwish, graph.HardSigmoid,
	graph.Sigmoid, graph.Tanh, graph.Softmax, graph.GELU,
}

// fill writes a deterministic non-trivial pattern.
func fill(v []float32) {
	for i := range v {
		v[i] = float32(i%7) - 3
	}
}
