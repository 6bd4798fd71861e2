// Package exec is a real execution engine for ConvMeter graphs: float32
// tensor kernels for every graph operation (convolution with
// groups/stride/padding/dilation, pooling, linear and token-linear
// layers, batch/layer normalisation, activations, attention, residual and
// concat plumbing), plus a graph executor with deterministic weight
// initialisation.
//
// The paper's measurement substrate is PyTorch actually *running* the
// networks; exec is this repository's equivalent. It serves three roles:
//
//  1. semantic validation — the kernels are unit-tested against
//     hand-computed cases, so the graph definitions are known to be
//     executable networks, not just FLOPs bookkeeping;
//  2. a *real* measurement backend — internal/hwreal times these kernels
//     on the host CPU and feeds genuine wall-clock samples into the
//     unchanged fitting pipeline (see the "gocpu" device);
//  3. an oracle for shape/accounting invariants (output shapes of real
//     execution must match static inference exactly).
//
// Kernels favour clarity with reasonable cache behaviour; the parallel
// kernels (convolution, linear, attention, and activations and pooling
// from a size cutoff up) split flattened index spaces over a persistent
// worker pool, whose workers claim items in runs, and allocate nothing
// per invocation — testing.AllocsPerRun pins the discipline on every
// kernel.
//
// Forward convolution, where nearly all inference time goes, runs as
// im2col + GEMM (conv.go), with the column matrix in a pooled
// kernelScratch buffer; a 1×1 stride-1 unpadded conv multiplies its
// input planes directly. linear and tokenLinear run the same GEMM task
// (gemm.go). Its leaf is an AVX2 micro-kernel in Go assembly
// (gemm_amd64.s), fed weight panels packed by an in-register transpose,
// where the CPU has AVX2, and pure-Go register tiles elsewhere.
// Depthwise convs run a tap-ordered kernel over each output plane. The
// contract is bit-identity with the direct kernel, the tests' reference
// (conv_test.go): every path sums bias + Σ w·x over (ic, kh, kw)
// ascending in one running float32 sum, rounding each product and each
// sum on its own (no FMA); the depthwise kernel skips padded taps as
// the direct kernel does, and the GEMM adds w·0 there, so outputs and
// every golden built on them are unchanged.
// Backward convolution (conv_backward.go) keeps the same contract
// against its own direct reference. It runs serially in the calling
// replica — data-parallel training already keeps every core busy with
// one replica each — and visits only the nonzero output
// gradients ReLU leaves, in a loop structure picked from the shapes: a
// 1×1 output map in linearBackward's row form, every larger map tap by
// tap over the gathered nonzeros of each output channel, on a
// channels-last copy of the input. The same switch that picks the GEMM
// leaf picks the backward's and the SGD update's: AVX2 kernels
// (backward_amd64.s) eight channels or eight floats at a time, or the
// Go loops.
//
// An Executor holds its parameters in one vector, node by node in graph
// order with each node's W before its B; the per-node weights are views
// into it. Training adds a gradient vector of the same layout, which the
// first Gradients call allocates, so inference never pays for it.
// Gradients clears and refills that vector on every call and returns it
// rather than a copy: it, and every NodeGrads view into it, stays valid
// only until the next Gradients call. A data-parallel trainer hands it
// straight to the all-reduce, and ApplySGD and ApplyAdam average and
// step in one pass over the vectors.
package exec

import (
	"fmt"
	"math"

	"convmeter/internal/graph"
)

// Tensor is a batched NCHW float32 tensor.
type Tensor struct {
	Batch int
	Shape graph.Shape
	Data  []float32 // len == Batch * Shape.Elems()
}

// NewTensor allocates a zero tensor.
func NewTensor(batch int, shape graph.Shape) *Tensor {
	if batch <= 0 || !shape.Valid() {
		panic(fmt.Sprintf("exec: invalid tensor %d x %v", batch, shape))
	}
	return &Tensor{Batch: batch, Shape: shape, Data: make([]float32, int64(batch)*shape.Elems())}
}

// At returns the element (b, c, h, w).
func (t *Tensor) At(b, c, h, w int) float32 {
	return t.Data[t.index(b, c, h, w)]
}

// Set assigns the element (b, c, h, w).
func (t *Tensor) Set(b, c, h, w int, v float32) {
	t.Data[t.index(b, c, h, w)] = v
}

func (t *Tensor) index(b, c, h, w int) int {
	s := t.Shape
	return ((b*s.C+c)*s.H+h)*s.W + w
}

// image returns the slice holding one image (batch element).
func (t *Tensor) image(b int) []float32 {
	n := int(t.Shape.Elems())
	return t.Data[b*n : (b+1)*n]
}

// channel returns the slice holding one image's channel plane.
func (t *Tensor) channel(b, c int) []float32 {
	hw := t.Shape.H * t.Shape.W
	img := t.image(b)
	return img[c*hw : (c+1)*hw]
}

// mean returns the arithmetic mean of the data (test helper and layer
// norm building block).
func mean32(v []float32) float32 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return float32(s / float64(len(v)))
}

// variance32 returns the population variance.
func variance32(v []float32) float32 {
	if len(v) == 0 {
		return 0
	}
	mu := float64(mean32(v))
	var s float64
	for _, x := range v {
		d := float64(x) - mu
		s += d * d
	}
	return float32(s / float64(len(v)))
}

// applyAct evaluates an activation function on a scalar.
func applyAct(fn graph.ActFunc, x float32) float32 {
	switch fn {
	case graph.ReLU:
		if x < 0 {
			return 0
		}
		return x
	case graph.ReLU6:
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
		return x
	case graph.Sigmoid:
		return float32(1 / (1 + math.Exp(-float64(x))))
	case graph.SiLU:
		return x * float32(1/(1+math.Exp(-float64(x))))
	case graph.HardSigmoid:
		v := x/6 + 0.5
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	case graph.HardSwish:
		return x * applyAct(graph.HardSigmoid, x)
	case graph.Tanh:
		return float32(math.Tanh(float64(x)))
	case graph.GELU:
		// tanh approximation of GELU.
		const c = 0.7978845608028654 // sqrt(2/pi)
		x64 := float64(x)
		return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
	case graph.Softmax:
		// Elementwise placeholder — the real softmax lives in the
		// attention kernel; standalone softmax activations in the zoo are
		// absent, but keep the function total.
		return x
	default:
		panic(fmt.Sprintf("exec: unknown activation %q", fn))
	}
}
