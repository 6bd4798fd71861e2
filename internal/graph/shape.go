// Package graph models a ConvNet as a directed acyclic graph of tensor
// operations. It provides shape inference, per-op FLOPs / parameter /
// element accounting, a builder API used by the model zoo, and a JSON
// serialisation so external tools can feed graphs to ConvMeter.
//
// All shapes and counts are for a single image (batch size 1); the
// performance model scales them by the batch size analytically, as in the
// paper (§3: "inputs, outputs, and FLOPs scale linearly with the batch
// size").
package graph

import "fmt"

// Shape is a CHW tensor shape for one image. Fully connected tensors are
// represented as C×1×1.
type Shape struct {
	C, H, W int
}

// Elems returns the number of scalar elements in the shape.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool { return s.C > 0 && s.H > 0 && s.W > 0 }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Flat returns the shape collapsed to a vector (C·H·W)×1×1, as produced by
// a flatten operation.
func (s Shape) Flat() Shape { return Shape{C: s.C * s.H * s.W, H: 1, W: 1} }

// convOut computes one spatial output dimension of a convolution or
// pooling window: (in + 2·pad − dilation·(k−1) − 1)/stride + 1, the
// division truncating toward zero as Go's / does. That is floor for a
// window that fits the input, but an input shorter than the dilated
// kernel by less than the stride still yields one output, whose window
// overhangs the input (PyTorch rejects such shapes). The zoo relies on
// it: squeezenet1_0 builds at 32 px only through this truncation.
func convOut(in, k, stride, pad, dilation int) int {
	eff := dilation*(k-1) + 1
	return (in+2*pad-eff)/stride + 1
}
