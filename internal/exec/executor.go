package exec

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"convmeter/internal/graph"
	"convmeter/internal/obs"
)

// nodeWeights holds one node's parameters as views into the executor's
// parameter vector (nil slices for parameter-free ops). off is where w
// starts in that vector, and so where the node's gradient starts in the
// gradient vector.
type nodeWeights struct {
	w, b []float32 // conv/linear weight+bias, bn/ln scale+shift, tokens pos+cls, scale gamma
	off  int
}

// Executor runs a validated graph with deterministic, seeded weights.
// It is safe for sequential reuse; Run allocates fresh activations.
type Executor struct {
	g       *graph.Graph
	weights []nodeWeights
	// params holds every parameter in node order, each node's w before
	// its b. grads mirrors its layout; the first Gradients call allocates
	// it, so an inference-only executor never pays for it.
	params, grads []float32
	seed          int64

	// Telemetry (see SetObs). opTime holds per-node handles indexed like
	// g.Nodes; nil when telemetry is detached.
	o      *obs.Obs
	opTime []*obs.Counter
}

// NewExecutor validates the graph and initialises every parameterised
// node with He-style random weights from the seed. All parameters live
// in one vector of the graph's W floats, in node order with each node's
// w before its b; the weights are drawn straight into it, from one RNG
// per node. The same (graph, seed) pair always yields identical numerics.
func NewExecutor(g *graph.Graph, seed int64) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{g: g, weights: make([]nodeWeights, len(g.Nodes)),
		params: make([]float32, g.TotalParams()), seed: seed}
	// take hands out the next n parameters. Every op takes exactly its
	// Params() count, so the views tile the vector.
	off := 0
	take := func(n int) []float32 {
		v := e.params[off : off+n : off+n]
		off += n
		return v
	}
	// Biases, shifts and the class token start at zero.
	for i, n := range g.Nodes {
		nw := &e.weights[i]
		nw.off = off
		switch op := n.Op.(type) {
		case *graph.Conv2dOp:
			fanIn := op.InC / op.Groups * op.KH * op.KW
			nw.w = heInit(take(op.OutC*fanIn), fanIn, nodeRNG(seed, i))
			if op.Bias {
				nw.b = take(op.OutC)
			}
		case *graph.LinearOp:
			nw.w = heInit(take(op.Out*op.In), op.In, nodeRNG(seed, i))
			if op.Bias {
				nw.b = take(op.Out)
			}
		case *graph.TokenLinearOp:
			nw.w = heInit(take(op.Out*op.In), op.In, nodeRNG(seed, i))
			if op.Bias {
				nw.b = take(op.Out)
			}
		case *graph.BatchNormOp:
			nw.w, nw.b = ones(take(op.C)), take(op.C)
		case *graph.LayerNormOp:
			nw.w, nw.b = ones(take(op.Dim)), take(op.Dim)
		case *graph.ToTokensOp:
			nw.w = take(op.Tokens * op.Dim)
			rng := nodeRNG(seed, i)
			for j := range nw.w {
				nw.w[j] = float32(rng.NormFloat64()) * 0.02
			}
			nw.b = take(op.Dim)
		case *graph.ScaleOp:
			nw.w = ones(take(op.C))
		}
	}
	return e, nil
}

// nodeRNG returns node i's own weight stream, so a node's draws do not
// depend on any other node's.
func nodeRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)*1000003))
}

// heInit fills w with He-normal draws for the given fan-in and returns it.
func heInit(w []float32, fanIn int, rng *rand.Rand) []float32 {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	for j := range w {
		w[j] = float32(rng.NormFloat64()) * std
	}
	return w
}

// ones sets every element of v to 1 and returns it.
func ones(v []float32) []float32 {
	for j := range v {
		v[j] = 1
	}
	return v
}

// RandomInput builds a deterministic pseudo-random input tensor for the
// graph at the given batch size.
func (e *Executor) RandomInput(batch int) (*Tensor, error) {
	in, err := e.g.InputShape()
	if err != nil {
		return nil, err
	}
	t := NewTensor(batch, in)
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t, nil
}

// Run executes the graph on the given input and returns the final node's
// output tensor.
func (e *Executor) Run(input *Tensor) (*Tensor, error) {
	sp := e.o.Start("fwd")
	defer sp.End()
	acts := make([]*Tensor, len(e.g.Nodes))
	return e.runInternal(input, acts)
}

// runInternal executes the graph, filling acts with every node's output
// (retained for the backward pass).
func (e *Executor) runInternal(input *Tensor, acts []*Tensor) (*Tensor, error) {
	inShape, err := e.g.InputShape()
	if err != nil {
		return nil, err
	}
	if input.Shape != inShape {
		return nil, fmt.Errorf("exec: input shape %v, graph expects %v", input.Shape, inShape)
	}
	batch := input.Batch
	maxIns := 0
	for _, n := range e.g.Nodes {
		if len(n.Inputs) > maxIns {
			maxIns = len(n.Inputs)
		}
	}
	insBuf := make([]*Tensor, maxIns)
	for i, n := range e.g.Nodes {
		ins := insBuf[:len(n.Inputs)]
		for j, id := range n.Inputs {
			ins[j] = acts[id]
		}
		out := NewTensor(batch, n.Out)
		nw := e.weights[i]
		var t0 time.Time
		if e.opTime != nil {
			t0 = time.Now()
		}
		switch op := n.Op.(type) {
		case *graph.InputOp:
			copy(out.Data, input.Data)
		case *graph.Conv2dOp:
			conv2d(ins[0], op, nw.w, nw.b, out)
		case *graph.LinearOp:
			linear(ins[0], op, nw.w, nw.b, out)
		case *graph.TokenLinearOp:
			tokenLinear(ins[0], op, nw.w, nw.b, out)
		case *graph.BatchNormOp:
			batchNorm(ins[0], nw.w, nw.b, out)
		case *graph.LayerNormOp:
			layerNorm(ins[0], nw.w, nw.b, out)
		case *graph.ActivationOp:
			activation(ins[0], op.Fn, out)
		case *graph.Pool2dOp:
			pool2d(ins[0], op, out)
		case *graph.AdaptiveAvgPoolOp:
			adaptiveAvgPool(ins[0], out)
		case *graph.AddOp:
			copy(out.Data, ins[0].Data)
			for _, other := range ins[1:] {
				for k, v := range other.Data {
					out.Data[k] += v
				}
			}
		case *graph.MulOp:
			mulBroadcast(ins[0], ins[1], out)
		case *graph.ConcatOp:
			concatChannels(ins, out)
		case *graph.FlattenOp, *graph.DropoutOp:
			copy(out.Data, ins[0].Data)
		case *graph.TakeTokenOp:
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					out.Set(b, c, 0, 0, ins[0].At(b, c, 0, 0))
				}
			}
		case *graph.ToTokensOp:
			toTokens(ins[0], op, nw.b, nw.w, out)
		case *graph.AttentionCoreOp:
			attentionCore(ins[0], op, out)
		case *graph.ScaleOp:
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					gv := nw.w[c]
					src := ins[0].channel(b, c)
					dst := out.channel(b, c)
					for k, v := range src {
						dst[k] = v * gv
					}
				}
			}
		case *graph.SliceChannelsOp:
			for b := 0; b < batch; b++ {
				for c := op.From; c < op.To; c++ {
					copy(out.channel(b, c-op.From), ins[0].channel(b, c))
				}
			}
		case *graph.ShuffleChannelsOp:
			// PyTorch channel_shuffle: view (groups × C/groups), transpose,
			// flatten — input channel gi·cpg+k lands at k·groups+gi.
			cpg := out.Shape.C / op.Groups
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					gi, k := c/cpg, c%cpg
					copy(out.channel(b, k*op.Groups+gi), ins[0].channel(b, c))
				}
			}
		default:
			return nil, fmt.Errorf("exec: no kernel for op kind %q", n.Op.Kind())
		}
		if e.opTime != nil {
			e.opTime[i].Add(time.Since(t0).Seconds())
		}
		acts[i] = out
	}
	return acts[len(acts)-1], nil
}

// mulBroadcast multiplies a full tensor by either an equally shaped
// tensor or a per-channel C×1×1 gate.
func mulBroadcast(full, gate *Tensor, out *Tensor) {
	if gate.Shape == full.Shape {
		for i, v := range full.Data {
			out.Data[i] = v * gate.Data[i]
		}
		return
	}
	for b := 0; b < full.Batch; b++ {
		for c := 0; c < full.Shape.C; c++ {
			g := gate.At(b, c, 0, 0)
			src := full.channel(b, c)
			dst := out.channel(b, c)
			for i, v := range src {
				dst[i] = v * g
			}
		}
	}
}

// concatChannels concatenates inputs along the channel dimension.
func concatChannels(ins []*Tensor, out *Tensor) {
	for b := 0; b < out.Batch; b++ {
		oc := 0
		for _, in := range ins {
			for c := 0; c < in.Shape.C; c++ {
				copy(out.channel(b, oc), in.channel(b, c))
				oc++
			}
		}
	}
}
