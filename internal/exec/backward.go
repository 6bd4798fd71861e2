package exec

import (
	"fmt"
	"math"

	"convmeter/internal/graph"
)

// WeightGrads is one node's slice of the gradient vector, shaped like
// its parameters (W: main tensor, B: bias/shift; nil where the node has
// none).
type WeightGrads struct {
	W, B []float32
}

// Gradients runs a full training computation: forward pass, softmax
// cross-entropy loss against the labels, and a backward pass producing
// parameter gradients for every trainable node. It returns the mean loss
// over the batch and the gradient vector, laid out like the parameter
// vector: node order, each node's W before its B.
//
// The gradient vector is the executor's own. The first call allocates
// it; every call clears it and accumulates into it. It, and every view
// NodeGrads hands out, stays valid only until the next Gradients call.
//
// The supported backward op set covers plain ConvNets (convolution,
// linear, ReLU, batch norm, max/avg/adaptive pooling, add, concat,
// channel slice, flatten, dropout); ops outside it return an error. This
// is the real counterpart of trainsim's *modelled* backward pass, used by
// the data-parallel reference trainer (internal/train).
func (e *Executor) Gradients(input *Tensor, labels []int) (float64, []float32, error) {
	inShape, err := e.g.InputShape()
	if err != nil {
		return 0, nil, err
	}
	if input.Shape != inShape {
		return 0, nil, fmt.Errorf("exec: input shape %v, graph expects %v", input.Shape, inShape)
	}
	if len(labels) != input.Batch {
		return 0, nil, fmt.Errorf("exec: %d labels for batch %d", len(labels), input.Batch)
	}
	batch := input.Batch

	// Forward pass, keeping every activation.
	acts := make([]*Tensor, len(e.g.Nodes))
	fwdSp := e.o.Start("fwd")
	if _, err := e.runInternal(input, acts); err != nil {
		fwdSp.End()
		return 0, nil, err
	}
	fwdSp.End()
	logits := acts[len(acts)-1]
	classes := int(logits.Shape.Elems())
	for _, l := range labels {
		if l < 0 || l >= classes {
			return 0, nil, fmt.Errorf("exec: label %d out of range [0,%d)", l, classes)
		}
	}

	// Softmax cross-entropy loss and its gradient w.r.t. the logits.
	dActs := make([]*Tensor, len(e.g.Nodes))
	dLogits := NewTensor(batch, logits.Shape)
	loss := 0.0
	probs := make([]float64, classes)
	for b := 0; b < batch; b++ {
		row := logits.image(b)
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for i, v := range row {
			probs[i] = math.Exp(float64(v - maxV))
			sum += probs[i]
		}
		for i := range probs {
			probs[i] /= sum
		}
		loss += -math.Log(math.Max(probs[labels[b]], 1e-12))
		dRow := dLogits.image(b)
		for i := range dRow {
			g := probs[i]
			if i == labels[b] {
				g -= 1
			}
			dRow[i] = float32(g / float64(batch))
		}
	}
	loss /= float64(batch)
	dActs[len(dActs)-1] = dLogits

	// Backward pass in reverse topological order.
	bwdSp := e.o.Start("bwd")
	defer bwdSp.End()
	if e.grads == nil {
		e.grads = make([]float32, len(e.params))
	} else {
		clear(e.grads)
	}
	for i := len(e.g.Nodes) - 1; i >= 1; i-- {
		n := e.g.Nodes[i]
		dOut := dActs[i]
		if dOut == nil {
			continue // activation feeds nothing that needs gradients
		}
		ins := make([]*Tensor, len(n.Inputs))
		dIns := make([]*Tensor, len(n.Inputs))
		_, isConv := n.Op.(*graph.Conv2dOp)
		for j, id := range n.Inputs {
			ins[j] = acts[id]
			if id == 0 && isConv {
				continue // nothing reads the graph input's gradient: a conv skips it
			}
			if dActs[id] == nil {
				dActs[id] = NewTensor(batch, e.g.Nodes[id].Out)
			}
			dIns[j] = dActs[id]
		}
		nw := e.weights[i]
		g := e.NodeGrads(i)
		switch op := n.Op.(type) {
		case *graph.Conv2dOp:
			conv2dBackward(ins[0], op, nw.w, dOut, dIns[0], g.W, g.B)
		case *graph.LinearOp:
			linearBackward(ins[0], op, nw.w, dOut, dIns[0], g.W, g.B)
		case *graph.BatchNormOp:
			batchNormBackward(ins[0], nw.w, dOut, dIns[0], g.W, g.B)
		case *graph.ActivationOp:
			if err := activationBackward(op.Fn, ins[0], acts[i], dOut, dIns[0]); err != nil {
				return 0, nil, err
			}
		case *graph.Pool2dOp:
			pool2dBackward(ins[0], op, acts[i], dOut, dIns[0])
		case *graph.AdaptiveAvgPoolOp:
			adaptiveAvgPoolBackward(ins[0], dOut, dIns[0])
		case *graph.AddOp:
			for _, d := range dIns {
				for k, v := range dOut.Data {
					d.Data[k] += v
				}
			}
		case *graph.ConcatOp:
			off := 0
			for j, in := range ins {
				for b := 0; b < batch; b++ {
					for c := 0; c < in.Shape.C; c++ {
						src := dOut.channel(b, off+c)
						dst := dIns[j].channel(b, c)
						for k, v := range src {
							dst[k] += v
						}
					}
				}
				off += in.Shape.C
			}
		case *graph.SliceChannelsOp:
			for b := 0; b < batch; b++ {
				for c := op.From; c < op.To; c++ {
					src := dOut.channel(b, c-op.From)
					dst := dIns[0].channel(b, c)
					for k, v := range src {
						dst[k] += v
					}
				}
			}
		case *graph.FlattenOp, *graph.DropoutOp:
			for k, v := range dOut.Data {
				dIns[0].Data[k] += v
			}
		case *graph.MulOp:
			mulBackward(ins[0], ins[1], dOut, dIns[0], dIns[1])
		case *graph.ScaleOp:
			for b := 0; b < batch; b++ {
				for c := 0; c < op.C; c++ {
					gv := nw.w[c]
					src := ins[0].channel(b, c)
					d := dOut.channel(b, c)
					di := dIns[0].channel(b, c)
					for k, v := range d {
						di[k] += v * gv
						g.W[c] += v * src[k]
					}
				}
			}
		case *graph.ShuffleChannelsOp:
			// Invert the forward permutation gi·cpg+k → k·groups+gi.
			cpg := dOut.Shape.C / op.Groups
			for b := 0; b < batch; b++ {
				for c := 0; c < dOut.Shape.C; c++ {
					gi, k := c/cpg, c%cpg
					src := dOut.channel(b, k*op.Groups+gi)
					dst := dIns[0].channel(b, c)
					for j, v := range src {
						dst[j] += v
					}
				}
			}
		default:
			return 0, nil, fmt.Errorf("exec: backward for op kind %q not supported", n.Op.Kind())
		}
	}
	return loss, e.grads, nil
}

// NodeGrads returns node i's views into the gradient vector. Like the
// vector, they stay valid only until the next Gradients call; before the
// first one there is no vector and both views are nil.
func (e *Executor) NodeGrads(i int) WeightGrads {
	nw := e.weights[i]
	if e.grads == nil || nw.w == nil {
		return WeightGrads{}
	}
	end := nw.off + len(nw.w)
	g := WeightGrads{W: e.grads[nw.off:end:end]}
	if nw.b != nil {
		g.B = e.grads[end : end+len(nw.b) : end+len(nw.b)]
	}
	return g
}

// activationBackward accumulates input gradients through an elementwise
// nonlinearity, using the stored input (in) and output (out) activations.
// Attention-internal softmax is handled inside the attention kernel; the
// standalone Softmax activation is the only unsupported case.
func activationBackward(fn graph.ActFunc, in, out, dOut, dIn *Tensor) error {
	switch fn {
	case graph.ReLU:
		stepBackward(in.Data, dOut.Data, dIn.Data, posInfBits)
		return nil
	case graph.ReLU6:
		stepBackward(in.Data, dOut.Data, dIn.Data, sixBits-1)
		return nil
	}
	return derivBackward(fn, in, out, dOut, dIn)
}

// derivBackward is activationBackward for every other function: dIn +=
// dOut·f'(x), f' computed per element. Where dIn and the product are
// both NaN, which one survives is fixed by the compiled loop's operand
// order, not by the source; the tests hold this loop to the branching
// loop it came from.
func derivBackward(fn graph.ActFunc, in, out, dOut, dIn *Tensor) error {
	for k, x := range in.Data {
		var deriv float32
		switch fn {
		case graph.Sigmoid:
			s := out.Data[k]
			deriv = s * (1 - s)
		case graph.SiLU:
			s := applyAct(graph.Sigmoid, x)
			deriv = s * (1 + x*(1-s))
		case graph.HardSigmoid:
			if x > -3 && x < 3 {
				deriv = 1.0 / 6
			}
		case graph.HardSwish:
			switch {
			case x <= -3:
				deriv = 0
			case x >= 3:
				deriv = 1
			default:
				deriv = x/3 + 0.5
			}
		case graph.Tanh:
			o := out.Data[k]
			deriv = 1 - o*o
		case graph.GELU:
			// Derivative of the tanh approximation.
			const c = 0.7978845608028654
			x64 := float64(x)
			u := c * (x64 + 0.044715*x64*x64*x64)
			t := math.Tanh(u)
			du := c * (1 + 3*0.044715*x64*x64)
			deriv = float32(0.5*(1+t) + 0.5*x64*(1-t*t)*du)
		default:
			return fmt.Errorf("exec: backward for activation %q not supported", fn)
		}
		dIn.Data[k] += dOut.Data[k] * deriv
	}
	return nil
}

// stepBackward adds dOut·deriv to dIn, where deriv is 1 for an x whose
// bit pattern lies in [1, hi] and 0 otherwise: ReLU's derivative (x > 0)
// with hi the bits of +Inf, ReLU6's (0 < x < 6) with hi just below 6.
// Like actSlice it selects on the bits without a branch, since a
// normalised tensor's signs are random; the product and the sum are the
// branching loop's, so dIn agrees bit for bit, NaN, ±Inf, ±0 and
// subnormals included.
func stepBackward(x, dOut, dIn []float32, hi uint32) {
	dOut, dIn = dOut[:len(x)], dIn[:len(x)]
	for k, v := range x {
		deriv := math.Float32frombits(oneBits & bitsIn(math.Float32bits(v), 1, hi))
		dIn[k] += dOut[k] * deriv
	}
}

// mulBackward differentiates the broadcast product used by SE gates:
// dFull = dOut·gate, dGate[c] = Σ dOut·full over the channel plane.
func mulBackward(full, gate, dOut, dFull, dGate *Tensor) {
	if gate.Shape == full.Shape {
		for k, v := range dOut.Data {
			dFull.Data[k] += v * gate.Data[k]
			dGate.Data[k] += v * full.Data[k]
		}
		return
	}
	for b := 0; b < full.Batch; b++ {
		for c := 0; c < full.Shape.C; c++ {
			g := gate.At(b, c, 0, 0)
			src := full.channel(b, c)
			d := dOut.channel(b, c)
			df := dFull.channel(b, c)
			var acc float32
			for k, v := range d {
				df[k] += v * g
				acc += v * src[k]
			}
			dGate.Set(b, c, 0, 0, dGate.At(b, c, 0, 0)+acc)
		}
	}
}

// linearBackward accumulates dIn, dW and dB for a fully connected layer.
func linearBackward(in *Tensor, op *graph.LinearOp, weight []float32, dOut, dIn *Tensor, dW, dB []float32) {
	for b := 0; b < in.Batch; b++ {
		x := in.image(b)
		dy := dOut.image(b)
		dx := dIn.image(b)
		for o := 0; o < op.Out; o++ {
			d := dy[o]
			if d == 0 {
				continue
			}
			if dB != nil {
				dB[o] += d
			}
			gradRow(d, x, weight[o*op.In:(o+1)*op.In], dW[o*op.In:(o+1)*op.In], dx)
		}
	}
}

// batchNormBackward treats the layer as the affine transform it is at
// inference (scale/shift with frozen statistics), the standard choice for
// fine-tuning: dIn = dOut·scale, dScale = Σ dOut·in, dShift = Σ dOut.
func batchNormBackward(in *Tensor, scale []float32, dOut, dIn *Tensor, dScale, dShift []float32) {
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			s := scale[c]
			src := in.channel(b, c)
			d := dOut.channel(b, c)
			di := dIn.channel(b, c)
			for k, v := range d {
				di[k] += v * s
				dScale[c] += v * src[k]
				dShift[c] += v
			}
		}
	}
}

// pool2dBackward routes gradients through max pooling (to the argmax
// position, recomputed from the forward output) or distributes them for
// average pooling.
func pool2dBackward(in *Tensor, op *graph.Pool2dOp, out, dOut, dIn *Tensor) {
	kArea := float32(op.KH * op.KW)
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			src := in.channel(b, c)
			fwd := out.channel(b, c)
			d := dOut.channel(b, c)
			di := dIn.channel(b, c)
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					g := d[oh*out.Shape.W+ow]
					if g == 0 {
						continue
					}
					if op.PoolKind == graph.AvgPool {
						g /= kArea
					}
					routed := false
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
							idx := ih*in.Shape.W + iw
							if op.PoolKind == graph.AvgPool {
								di[idx] += g
							} else if !routed && src[idx] == fwd[oh*out.Shape.W+ow] { //lint:ignore floatcmp max-pool argmax routing: the forward pass stored exactly this value, bit-equality is the intended test
								di[idx] += g
								routed = true
							}
						}
					}
				}
			}
		}
	}
}

// adaptiveAvgPoolBackward distributes gradients uniformly over each
// pooling region.
func adaptiveAvgPoolBackward(in *Tensor, dOut, dIn *Tensor) {
	inH, inW := in.Shape.H, in.Shape.W
	outH, outW := dOut.Shape.H, dOut.Shape.W
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			d := dOut.channel(b, c)
			di := dIn.channel(b, c)
			for oh := 0; oh < outH; oh++ {
				h0 := oh * inH / outH
				h1 := ((oh+1)*inH + outH - 1) / outH
				for ow := 0; ow < outW; ow++ {
					w0 := ow * inW / outW
					w1 := ((ow+1)*inW + outW - 1) / outW
					g := d[oh*outW+ow] / float32((h1-h0)*(w1-w0))
					for h := h0; h < h1; h++ {
						for w := w0; w < w1; w++ {
							di[h*inW+w] += g
						}
					}
				}
			}
		}
	}
}

// ApplySGD performs one SGD step on the parameter vector from grads, a
// vector laid out like it: w -= lr·(scale·g), element by element in one
// pass, eight at a time on the AVX2 leaf. With grads the sum of N
// replicas' gradients and scale = 1/N it steps on their average; scale =
// 1 steps on grads as given.
func (e *Executor) ApplySGD(grads []float32, scale, lr float32) {
	w := e.params
	if len(grads) != len(w) {
		panic("exec: gradient vector does not match the parameter vector")
	}
	if avx2Leaf != nil {
		avx2Leaf.sgd(w, grads, scale, lr)
		k := len(w) &^ 7
		w, grads = w[k:], grads[k:]
	}
	for k, v := range grads {
		g := float32(v * scale)
		w[k] -= lr * g
	}
}

// AdamState holds the Adam optimizer's step count and moment vectors,
// laid out like the parameter vector. Adam is the optimizer of the
// paper's training setup ("we deploy Horovod with PyTorch and Adam as
// the optimizer").
type AdamState struct {
	step int
	m, v []float32
}

// NewAdamState returns zero moments sized to the executor's parameters.
func (e *Executor) NewAdamState() *AdamState {
	return &AdamState{m: make([]float32, len(e.params)), v: make([]float32, len(e.params))}
}

// ApplyAdam performs one Adam step with the standard defaults (β₁ = 0.9,
// β₂ = 0.999, ε = 1e-8) and bias correction, taking the gradient as
// scale·grads like ApplySGD, in one pass over the vectors. The update is
// fully deterministic, so data-parallel replicas applying identical
// averaged gradients stay identical.
func (e *Executor) ApplyAdam(st *AdamState, grads []float32, scale, lr float32) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	w, m, v := e.params, st.m, st.v
	if len(grads) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("exec: gradient or moment vector does not match the parameter vector")
	}
	st.step++
	bc1 := 1 - float32(math.Pow(beta1, float64(st.step)))
	bc2 := 1 - float32(math.Pow(beta2, float64(st.step)))
	for k, gv := range grads {
		g := float32(gv * scale)
		m[k] = beta1*m[k] + (1-beta1)*g
		v[k] = beta2*v[k] + (1-beta2)*g*g
		mHat := m[k] / bc1
		vHat := v[k] / bc2
		w[k] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + eps)
	}
}

// WeightChecksum returns a deterministic digest of all weights, used to
// verify that data-parallel replicas stay synchronised.
func (e *Executor) WeightChecksum() float64 {
	sum := 0.0
	for _, nw := range e.weights {
		for k, v := range nw.w {
			sum += float64(v) * float64(k%97+1)
		}
		for k, v := range nw.b {
			sum += float64(v) * float64(k%89+1)
		}
	}
	return sum
}
