package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/graph"
)

// tinyCNN is a small trainable network covering the supported backward
// op set: conv, bn, relu, maxpool, avgpool via head, add, linear.
func tinyCNN(t *testing.T, classes int) *graph.Graph {
	t.Helper()
	b, x := graph.NewBuilder("tinycnn", graph.Shape{C: 2, H: 8, W: 8})
	x = b.Conv(x, "conv1", 4, 3, 1, 1)
	x = b.BatchNorm(x, "bn1")
	x = b.ReLU(x, "relu1")
	skip := x
	x = b.Conv(x, "conv2", 4, 3, 1, 1)
	x = b.ReLU(x, "relu2")
	x = b.Add("add", x, skip)
	x = b.MaxPool2d(x, "pool", 2, 2, 0)
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "flat")
	x = b.Linear(x, "fc", classes)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGradientsLossFinite(t *testing.T) {
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(4)
	if err != nil {
		t.Fatal(err)
	}
	loss, grads, err := e.Gradients(in, []int{0, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("loss = %g", loss)
	}
	if int64(len(grads)) != g.TotalParams() {
		t.Fatalf("gradient vector has %d entries, want %d", len(grads), g.TotalParams())
	}
	for k, v := range grads {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("gradient %d is non-finite", k)
		}
	}
}

// numericalCheck compares sampled analytic gradients with central finite
// differences of the loss, trials samples per weight tensor, walking the
// nodes in graph order so every run checks the same weights. It copies
// the analytic gradients first: lossAt re-runs Gradients, which
// overwrites the executor's gradient vector. It returns the number of
// checks made.
func numericalCheck(t *testing.T, e *Executor, in *Tensor, labels []int, rngSeed int64, tol float64) int {
	t.Helper()
	if _, _, err := e.Gradients(in, labels); err != nil {
		t.Fatal(err)
	}
	analytic := make([][]float32, len(e.g.Nodes))
	for id := range e.g.Nodes {
		analytic[id] = append([]float32(nil), e.NodeGrads(id).W...)
	}
	lossAt := func() float64 {
		l, _, err := e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	rng := rand.New(rand.NewSource(rngSeed))
	const eps = 1e-3
	checked := 0
	for id, gw := range analytic {
		nw := e.weights[id]
		for trial := 0; trial < 3 && len(gw) > 0; trial++ {
			k := rng.Intn(len(gw))
			orig := nw.w[k]
			nw.w[k] = orig + eps
			up := lossAt()
			nw.w[k] = orig - eps
			down := lossAt()
			nw.w[k] = orig
			numeric := (up - down) / (2 * eps)
			a := float64(gw[k])
			diff := math.Abs(numeric - a)
			scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(a)))
			if diff/scale > tol {
				t.Fatalf("node %d (%s) weight %d: analytic %g vs numeric %g",
					id, e.g.Nodes[id].Name, k, a, numeric)
			}
			checked++
		}
	}
	return checked
}

func TestGradientsNumericalCheck(t *testing.T) {
	// Finite-difference validation of the analytic gradients across every
	// trainable node of the tiny CNN.
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	if checked := numericalCheck(t, e, in, []int{1, 2}, 9, 0.08); checked < 10 {
		t.Fatalf("only %d gradient checks performed", checked)
	}
}

// mobileStyleNet covers the extended backward set: depthwise conv, SE
// gate (SiLU + sigmoid broadcast mul), hard-swish, layer scale, channel
// shuffle, average pooling.
func mobileStyleNet(t *testing.T) *graph.Graph {
	t.Helper()
	b, x := graph.NewBuilder("mobilestyle", graph.Shape{C: 4, H: 8, W: 8})
	x = b.Conv(x, "expand", 8, 1, 1, 0)
	x = b.Act(x, "hs", graph.HardSwish)
	x = b.DWConv(x, "dw", 3, 1, 1)
	x = b.Act(x, "silu", graph.SiLU)
	// Squeeze-and-excitation gate.
	gate := b.GlobalAvgPool(x, "squeeze")
	gate = b.Conv2d(gate, "fc1", graph.ConvSpec{Out: 2, Bias: true})
	gate = b.ReLU(gate, "fc1act")
	gate = b.Conv2d(gate, "fc2", graph.ConvSpec{Out: 8, Bias: true})
	gate = b.Act(gate, "gateact", graph.Sigmoid)
	x = b.Mul("se", x, gate)
	x = b.ShuffleChannels(x, "shuffle", 2)
	x = b.Scale(x, "layer_scale")
	x = b.AvgPool2d(x, "avg", 2, 2, 0)
	x = b.Act(x, "tanh", graph.Tanh)
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "flat")
	x = b.Linear(x, "fc", 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGradientsNumericalCheckMobileOps(t *testing.T) {
	g := mobileStyleNet(t)
	e, err := NewExecutor(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	if checked := numericalCheck(t, e, in, []int{0, 2}, 31, 0.1); checked < 12 {
		t.Fatalf("only %d gradient checks performed", checked)
	}
}

func TestSGDTrainsMobileStyleNet(t *testing.T) {
	g := mobileStyleNet(t)
	e, err := NewExecutor(g, 13)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(6)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0, 1, 2, 0, 1, 2}
	first, grads, err := e.Gradients(in, labels)
	if err != nil {
		t.Fatal(err)
	}
	// The tanh/SE squashing makes this tiny net slow to optimise; a
	// higher rate over more steps still has to overfit the fixed batch.
	loss := first
	for step := 0; step < 250; step++ {
		e.ApplySGD(grads, 1, 0.5)
		loss, grads, err = e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
	}
	if loss >= first*0.6 {
		t.Fatalf("mobile-style net did not learn: %g -> %g", first, loss)
	}
}

func TestGradientsValidation(t *testing.T) {
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Gradients(in, []int{0}); err == nil {
		t.Fatal("expected label-count error")
	}
	if _, _, err := e.Gradients(in, []int{0, 99}); err == nil {
		t.Fatal("expected label-range error")
	}
	wrong := NewTensor(2, graph.Shape{C: 3, H: 8, W: 8})
	if _, _, err := e.Gradients(wrong, []int{0, 1}); err == nil {
		t.Fatal("expected input-shape error")
	}
}

func TestGradientsUnsupportedOp(t *testing.T) {
	// Attention backward is intentionally unsupported (training
	// transformers is out of scope); the error must surface cleanly.
	b, x := graph.NewBuilder("attnnet", graph.Shape{C: 4, H: 2, W: 2})
	x = b.ToTokens(x, "tokens")
	x = b.TokenLinear(x, "qkv", 12, true)
	x = b.AttentionCore(x, "attn", 4, 2)
	x = b.TakeToken(x, "cls")
	x = b.Flatten(x, "f")
	x = b.Linear(x, "fc", 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Gradients(in, []int{0}); err == nil {
		t.Fatal("expected unsupported-op error")
	}
}

func TestSGDStepReducesLossOnFixedBatch(t *testing.T) {
	// Overfitting a single batch: repeated SGD steps must drive the loss
	// down — end-to-end proof that forward, backward and update compose.
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(6)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0, 1, 2, 0, 1, 2}
	first, grads, err := e.Gradients(in, labels)
	if err != nil {
		t.Fatal(err)
	}
	loss := first
	for step := 0; step < 40; step++ {
		e.ApplySGD(grads, 1, 0.1)
		loss, grads, err = e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
	}
	if loss >= first*0.5 {
		t.Fatalf("loss did not halve: %g -> %g", first, loss)
	}
}

// TestGradientVectorLayout pins the layout the trainer and the ring rely
// on: parameters and gradients are one vector each, node by node in
// graph order with W before B, and the gradient vector exists only once
// Gradients has run.
func TestGradientVectorLayout(t *testing.T) {
	g := mobileStyleNet(t)
	e, err := NewExecutor(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	if e.grads != nil || e.NodeGrads(1).W != nil {
		t.Fatal("an inference-only executor holds a gradient vector")
	}
	_, grads, err := e.Gradients(in, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(e.params)) != g.TotalParams() || len(grads) != len(e.params) {
		t.Fatalf("%d parameters and %d gradients, graph has %d", len(e.params), len(grads), g.TotalParams())
	}
	off := 0
	for i := range g.Nodes {
		nw, ng := e.weights[i], e.NodeGrads(i)
		for _, v := range []struct {
			name       string
			param, grd []float32
		}{{"W", nw.w, ng.W}, {"B", nw.b, ng.B}} {
			if len(v.param) != len(v.grd) {
				t.Fatalf("node %d %s: %d parameters, %d gradients", i, v.name, len(v.param), len(v.grd))
			}
			if len(v.param) == 0 {
				continue
			}
			if &v.param[0] != &e.params[off] || &v.grd[0] != &grads[off] {
				t.Fatalf("node %d %s is not the view at offset %d", i, v.name, off)
			}
			off += len(v.param)
		}
	}
	if off != len(e.params) {
		t.Fatalf("node views cover %d of %d parameters", off, len(e.params))
	}
}

// TestGradientsRepeatable: a second Gradients call on the same input
// clears the vector before accumulating, so it returns the same vector
// holding the same bits.
func TestGradientsRepeatable(t *testing.T) {
	e, err := NewExecutor(tinyCNN(t, 3), 6)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := e.Gradients(in, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), first...)
	_, again, err := e.Gradients(in, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &first[0] {
		t.Fatal("Gradients handed out a new vector")
	}
	for k := range want {
		if math.Float32bits(again[k]) != math.Float32bits(want[k]) {
			t.Fatalf("gradient %d: %g, then %g", k, want[k], again[k])
		}
	}
}

// TestFusedUpdatesMatchTwoPasses: ApplySGD and ApplyAdam fold averaging
// into the step; every weight must come out bit-identical to scaling the
// summed vector first and then stepping, as separate passes.
func TestFusedUpdatesMatchTwoPasses(t *testing.T) {
	forEachLeaf(t, testFusedUpdatesMatchTwoPasses)
}

func testFusedUpdatesMatchTwoPasses(t *testing.T) {
	g := tinyCNN(t, 3)
	fused, err := NewExecutor(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float32, len(fused.params))
	rng := rand.New(rand.NewSource(4))
	for k := range sum {
		sum[k] = float32(rng.NormFloat64())
	}
	const scale, lr = float32(1) / 3, float32(0.01)
	avg := make([]float32, len(sum))
	for k, v := range sum {
		avg[k] = v * scale
	}

	ref := append([]float32(nil), fused.params...)
	for k := range ref {
		ref[k] -= lr * avg[k]
	}
	fused.ApplySGD(sum, scale, lr)
	equalBits(t, "ApplySGD", fused.params, ref)

	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	m, v := make([]float32, len(sum)), make([]float32, len(sum))
	st := fused.NewAdamState()
	for step := 1; step <= 3; step++ {
		bc1 := 1 - float32(math.Pow(beta1, float64(step)))
		bc2 := 1 - float32(math.Pow(beta2, float64(step)))
		for k := range ref {
			m[k] = beta1*m[k] + (1-beta1)*avg[k]
			v[k] = beta2*v[k] + (1-beta2)*avg[k]*avg[k]
			mHat := m[k] / bc1
			vHat := v[k] / bc2
			ref[k] -= lr * mHat / (float32(math.Sqrt(float64(vHat))) + eps)
		}
		fused.ApplyAdam(st, sum, scale, lr)
		equalBits(t, fmt.Sprintf("ApplyAdam step %d", step), fused.params, ref)
	}
}

// specialFloats returns n seeded normal floats with NaNs of both signs
// (quiet and signalling payloads), ±Inf, ±0, ±subnormals and values at
// ReLU6's edges mixed in, at positions that depend on the seed.
func specialFloats(n int, seed int64) []float32 {
	special := []float32{float32(math.NaN()), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800123),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007fffff),
		6, math.Nextafter32(6, 0), math.Nextafter32(6, 7), -6}
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64()) * 4
		if rng.Intn(3) == 0 {
			v[i] = special[rng.Intn(len(special))]
		}
	}
	return v
}

// sgdRef is ApplySGD's scalar loop, the reference its AVX2 leaf is held
// to.
func sgdRef(w, grads []float32, scale, lr float32) {
	for k, v := range grads {
		g := float32(v * scale)
		w[k] -= lr * g
	}
}

// TestApplySGDMatchesScalarLoop holds ApplySGD on every leaf to the
// scalar loop bit for bit, on vectors whose lengths are not all
// multiples of 8 and whose weights and gradients both carry special
// values, NaN against NaN included: the operand order decides which NaN
// survives.
func TestApplySGDMatchesScalarLoop(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		for _, n := range []int{1, 7, 8, 13, 64, 1003} {
			for _, c := range []struct{ scale, lr float32 }{{0.5, 1e-3}, {1, 0.05}, {1.0 / 3, -2}} {
				w, grads := specialFloats(n, int64(n)), specialFloats(n, int64(n)+100)
				want := append([]float32(nil), w...)
				sgdRef(want, grads, c.scale, c.lr)
				e := &Executor{params: w}
				e.ApplySGD(grads, c.scale, c.lr)
				if err := firstBitDiff(w, want); err != nil {
					t.Errorf("n %d scale %g lr %g: %v", n, c.scale, c.lr, err)
				}
			}
		}
	})
}

// activationBackwardRef is activationBackward as it was before ReLU and
// ReLU6 had their branch-free loop, kept verbatim as the reference. Its
// compiled form fixes which NaN survives where dIn and dOut·deriv are
// both NaN: ADDSS keeps its first operand's, and which operand comes
// first is the compiler's choice, not the source's order.
func activationBackwardRef(fn graph.ActFunc, in, out, dOut, dIn *Tensor) error {
	for k, x := range in.Data {
		var deriv float32
		switch fn {
		case graph.ReLU:
			if x > 0 {
				deriv = 1
			}
		case graph.ReLU6:
			if x > 0 && x < 6 {
				deriv = 1
			}
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

// TestActivationBackwardMatchesBranchingLoop holds activationBackward to
// its branching reference bit for bit, for every function it supports,
// with special values in the inputs, the output gradients and the input
// gradients they add to: the branch-free ReLU and ReLU6 loops, and the
// loop the other functions keep.
func TestActivationBackwardMatchesBranchingLoop(t *testing.T) {
	for _, fn := range allActFuncs {
		if fn == graph.Softmax {
			continue // activationBackward rejects a standalone softmax
		}
		for _, n := range []int{1, 7, 13, 1003} {
			shape := graph.Shape{C: n, H: 1, W: 1}
			in, out, dOut, dIn := NewTensor(1, shape), NewTensor(1, shape), NewTensor(1, shape), NewTensor(1, shape)
			copy(in.Data, specialFloats(n, 1))
			activation(in, fn, out)
			copy(dOut.Data, specialFloats(n, 2))
			copy(dIn.Data, specialFloats(n, 3))
			want := NewTensor(1, shape)
			copy(want.Data, dIn.Data)
			if err := activationBackwardRef(fn, in, out, dOut, want); err != nil {
				t.Fatal(err)
			}
			if err := activationBackward(fn, in, out, dOut, dIn); err != nil {
				t.Fatal(err)
			}
			if err := firstBitDiff(dIn.Data, want.Data); err != nil {
				t.Errorf("%s n %d: %v", fn, n, err)
			}
		}
	}
}

// equalBits fails the test unless got and want hold the same bits.
func equalBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("%s: element %d is %g, want %g", name, k, got[k], want[k])
		}
	}
}

func TestWeightChecksumTracksChanges(t *testing.T) {
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := e.WeightChecksum()
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	_, grads, err := e.Gradients(in, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	e.ApplySGD(grads, 1, 0.05)
	if e.WeightChecksum() == a {
		t.Fatal("checksum unchanged after an SGD step")
	}
}
