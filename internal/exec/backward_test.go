package exec

import (
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
	if len(grads) == 0 {
		t.Fatal("no gradients produced")
	}
	for id, wg := range grads {
		for _, v := range append(append([]float32{}, wg.W...), wg.B...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("node %d: non-finite gradient", id)
			}
		}
	}
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
	labels := []int{1, 2}
	_, grads, err := e.Gradients(in, labels)
	if err != nil {
		t.Fatal(err)
	}
	lossAt := func() float64 {
		l, _, err := e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	rng := rand.New(rand.NewSource(9))
	const eps = 1e-3
	checked := 0
	for id, wg := range grads {
		nw := e.weights[id]
		// Sample a few weights per node.
		for trial := 0; trial < 3 && len(wg.W) > 0; trial++ {
			k := rng.Intn(len(wg.W))
			orig := nw.w[k]
			nw.w[k] = orig + eps
			up := lossAt()
			nw.w[k] = orig - eps
			down := lossAt()
			nw.w[k] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(wg.W[k])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.08 {
				t.Fatalf("node %d weight %d: analytic %g vs numeric %g", id, k, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 10 {
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
	labels := []int{0, 2}
	_, grads, err := e.Gradients(in, labels)
	if err != nil {
		t.Fatal(err)
	}
	lossAt := func() float64 {
		l, _, err := e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	rng := rand.New(rand.NewSource(31))
	const eps = 1e-3
	checked := 0
	for id, wg := range grads {
		nw := e.weights[id]
		for trial := 0; trial < 3 && len(wg.W) > 0; trial++ {
			k := rng.Intn(len(wg.W))
			orig := nw.w[k]
			nw.w[k] = orig + eps
			up := lossAt()
			nw.w[k] = orig - eps
			down := lossAt()
			nw.w[k] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(wg.W[k])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-3, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.1 {
				t.Fatalf("node %d (%s) weight %d: analytic %g vs numeric %g",
					id, g.Nodes[id].Name, k, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 12 {
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
		e.ApplySGD(grads, 0.5)
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
		e.ApplySGD(grads, 0.1)
		loss, grads, err = e.Gradients(in, labels)
		if err != nil {
			t.Fatal(err)
		}
	}
	if loss >= first*0.5 {
		t.Fatalf("loss did not halve: %g -> %g", first, loss)
	}
}

func TestFlattenUnflattenGradsRoundTrip(t *testing.T) {
	g := tinyCNN(t, 3)
	e, err := NewExecutor(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	_, grads, err := e.Gradients(in, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	vec := e.FlattenGrads(grads)
	if int64(len(vec)) != g.TotalParams() {
		t.Fatalf("gradient vector has %d entries, want %d", len(vec), g.TotalParams())
	}
	// Scale the vector, write it back, and verify the maps changed.
	for i := range vec {
		vec[i] *= 2
	}
	if err := e.UnflattenGrads(vec, grads); err != nil {
		t.Fatal(err)
	}
	back := e.FlattenGrads(grads)
	for i := range vec {
		if back[i] != vec[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	// Length errors.
	if err := e.UnflattenGrads(vec[:len(vec)-1], grads); err == nil {
		t.Fatal("expected short-vector error")
	}
	if err := e.UnflattenGrads(append(vec, 0), grads); err == nil {
		t.Fatal("expected long-vector error")
	}
}

// TestFlattenGradsAllocatesOnce pins FlattenGrads to one allocation,
// the exactly sized vector, where growing it by append reallocated.
func TestFlattenGradsAllocatesOnce(t *testing.T) {
	e, err := NewExecutor(tinyCNN(t, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(2)
	if err != nil {
		t.Fatal(err)
	}
	_, grads, err := e.Gradients(in, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { e.FlattenGrads(grads) }); n != 1 {
		t.Errorf("FlattenGrads allocates %.2f/op, want 1", n)
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
	e.ApplySGD(grads, 0.05)
	if e.WeightChecksum() == a {
		t.Fatal("checksum unchanged after an SGD step")
	}
}
