package graph

import (
	"encoding/json"
	"testing"
)

// tinyNet builds a minimal conv-bn-relu-pool-fc network used across tests.
func tinyNet(t *testing.T) *Graph {
	t.Helper()
	b, x := NewBuilder("tiny", Shape{C: 3, H: 32, W: 32})
	x = b.Conv(x, "conv1", 8, 3, 1, 1)
	x = b.BatchNorm(x, "bn1")
	x = b.ReLU(x, "relu1")
	x = b.MaxPool2d(x, "pool1", 2, 2, 0)
	x = b.GlobalAvgPool(x, "gap")
	x = b.Flatten(x, "flatten")
	x = b.Linear(x, "fc", 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{C: 3, H: 224, W: 224}
	if s.Elems() != 3*224*224 {
		t.Fatalf("Elems = %d", s.Elems())
	}
	if !s.Valid() {
		t.Fatal("valid shape reported invalid")
	}
	if (Shape{C: 0, H: 1, W: 1}).Valid() {
		t.Fatal("invalid shape reported valid")
	}
	if s.Flat() != (Shape{C: 3 * 224 * 224, H: 1, W: 1}) {
		t.Fatalf("Flat = %v", s.Flat())
	}
	if s.String() != "3x224x224" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestConvOutFormula(t *testing.T) {
	// 224 input, 7x7 kernel, stride 2, pad 3 → 112 (ResNet stem).
	if got := convOut(224, 7, 2, 3, 1); got != 112 {
		t.Fatalf("convOut = %d, want 112", got)
	}
	// 56 input, 3x3, stride 1, pad 1 → 56.
	if got := convOut(56, 3, 1, 1, 1); got != 56 {
		t.Fatalf("convOut = %d, want 56", got)
	}
	// Dilation 2: effective kernel 5.
	if got := convOut(32, 3, 1, 2, 2); got != 32 {
		t.Fatalf("dilated convOut = %d, want 32", got)
	}
	// An input shorter than the kernel by less than the stride: the
	// division truncates toward zero, so one output remains where floor
	// would leave none (squeezenet1_0's last pool at 32 px).
	if got := convOut(2, 3, 2, 0, 1); got != 1 {
		t.Fatalf("convOut(2, 3, 2, 0, 1) = %d, want 1", got)
	}
	if got := convOut(1, 2, 2, 0, 1); got != 1 {
		t.Fatalf("convOut(1, 2, 2, 0, 1) = %d, want 1", got)
	}
}

func TestTinyNetShapes(t *testing.T) {
	g := tinyNet(t)
	out, err := g.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 10, H: 1, W: 1}) {
		t.Fatalf("output shape = %v", out)
	}
	in, err := g.InputShape()
	if err != nil {
		t.Fatal(err)
	}
	if in != (Shape{C: 3, H: 32, W: 32}) {
		t.Fatalf("input shape = %v", in)
	}
}

func TestConvFLOPsAndParams(t *testing.T) {
	op := &Conv2dOp{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	in := []Shape{{C: 3, H: 32, W: 32}}
	out, err := op.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 8, H: 32, W: 32}) {
		t.Fatalf("out = %v", out)
	}
	wantFLOPs := int64(2 * 8 * 32 * 32 * 3 * 3 * 3)
	if got := op.FLOPs(in, out); got != wantFLOPs {
		t.Fatalf("FLOPs = %d, want %d", got, wantFLOPs)
	}
	if got := op.Params(); got != 8*3*3*3 {
		t.Fatalf("Params = %d, want %d", got, 8*3*3*3)
	}
	op.Bias = true
	if got := op.Params(); got != 8*3*3*3+8 {
		t.Fatalf("Params with bias = %d", got)
	}
}

func TestGroupedConvFLOPs(t *testing.T) {
	// Depthwise: groups == channels → FLOPs shrink by factor C.
	dw := &Conv2dOp{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilationH: 1, DilationW: 1, Groups: 16}
	in := []Shape{{C: 16, H: 8, W: 8}}
	out, err := dw.OutShape(in)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * 16 * 8 * 8 * 1 * 3 * 3)
	if got := dw.FLOPs(in, out); got != want {
		t.Fatalf("depthwise FLOPs = %d, want %d", got, want)
	}
	if got := dw.Params(); got != 16*1*3*3 {
		t.Fatalf("depthwise Params = %d", got)
	}
}

func TestConvErrors(t *testing.T) {
	cases := []struct {
		name string
		op   *Conv2dOp
		in   []Shape
	}{
		{"zero groups", &Conv2dOp{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 0}, []Shape{{C: 3, H: 8, W: 8}}},
		{"indivisible groups", &Conv2dOp{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 2}, []Shape{{C: 3, H: 8, W: 8}}},
		{"channel mismatch", &Conv2dOp{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}, []Shape{{C: 3, H: 8, W: 8}}},
		{"kernel too large", &Conv2dOp{InC: 3, OutC: 8, KH: 9, KW: 9, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}, []Shape{{C: 3, H: 4, W: 4}}},
		{"wrong arity", &Conv2dOp{InC: 3, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}, nil},
	}
	for _, c := range cases {
		if _, err := c.op.OutShape(c.in); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestLinearOp(t *testing.T) {
	op := &LinearOp{In: 512, Out: 10, Bias: true}
	out, err := op.OutShape([]Shape{{C: 512, H: 1, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 10, H: 1, W: 1}) {
		t.Fatalf("out = %v", out)
	}
	if got := op.FLOPs(nil, out); got != 2*512*10+10 {
		t.Fatalf("FLOPs = %d", got)
	}
	if got := op.Params(); got != 512*10+10 {
		t.Fatalf("Params = %d", got)
	}
	if _, err := op.OutShape([]Shape{{C: 100, H: 1, W: 1}}); err == nil {
		t.Fatal("expected feature mismatch error")
	}
}

func TestBatchNormOp(t *testing.T) {
	op := &BatchNormOp{C: 64}
	in := Shape{C: 64, H: 10, W: 10}
	out, err := op.OutShape([]Shape{in})
	if err != nil || out != in {
		t.Fatalf("out = %v, err = %v", out, err)
	}
	if op.Params() != 128 {
		t.Fatalf("Params = %d", op.Params())
	}
	if op.FLOPs(nil, out) != 2*in.Elems() {
		t.Fatalf("FLOPs = %d", op.FLOPs(nil, out))
	}
	if _, err := op.OutShape([]Shape{{C: 32, H: 1, W: 1}}); err == nil {
		t.Fatal("expected channel mismatch")
	}
}

func TestActivationOps(t *testing.T) {
	in := Shape{C: 4, H: 2, W: 2}
	for _, fn := range []ActFunc{ReLU, ReLU6, SiLU, HardSwish, HardSigmoid, Sigmoid, Tanh, Softmax, GELU} {
		op := &ActivationOp{Fn: fn}
		out, err := op.OutShape([]Shape{in})
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if out != in {
			t.Fatalf("%s: shape changed", fn)
		}
		if op.FLOPs(nil, out) <= 0 {
			t.Fatalf("%s: non-positive FLOPs", fn)
		}
		if op.Params() != 0 {
			t.Fatalf("%s: activations have no params", fn)
		}
	}
	if _, err := (&ActivationOp{Fn: "bogus"}).OutShape([]Shape{in}); err == nil {
		t.Fatal("expected unknown-activation error")
	}
}

func TestPoolingOps(t *testing.T) {
	in := Shape{C: 8, H: 16, W: 16}
	mp := &Pool2dOp{PoolKind: MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	out, err := mp.OutShape([]Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 8, H: 8, W: 8}) {
		t.Fatalf("maxpool out = %v", out)
	}
	if mp.FLOPs(nil, out) != out.Elems()*4 {
		t.Fatalf("maxpool FLOPs = %d", mp.FLOPs(nil, out))
	}
	ap := &AdaptiveAvgPoolOp{OutH: 1, OutW: 1}
	out, err = ap.OutShape([]Shape{in})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 8, H: 1, W: 1}) {
		t.Fatalf("adaptive out = %v", out)
	}
	if _, err := ap.OutShape([]Shape{{C: 8, H: 1, W: 1}}); err != nil {
		t.Fatalf("1x1→1x1 adaptive pool should be legal: %v", err)
	}
	// PyTorch semantics: upsampling targets are legal.
	up := &AdaptiveAvgPoolOp{OutH: 7, OutW: 7}
	if out, err := up.OutShape([]Shape{{C: 8, H: 3, W: 3}}); err != nil || out != (Shape{C: 8, H: 7, W: 7}) {
		t.Fatalf("upsampling adaptive pool: %v %v", out, err)
	}
	if up.FLOPs([]Shape{{C: 8, H: 3, W: 3}}, Shape{C: 8, H: 7, W: 7}) != 8*7*7 {
		t.Fatal("upsampling adaptive pool FLOPs should track output")
	}
	if _, err := (&AdaptiveAvgPoolOp{OutH: 0, OutW: 1}).OutShape([]Shape{{C: 8, H: 3, W: 3}}); err == nil {
		t.Fatal("expected invalid-target rejection")
	}
	if _, err := (&Pool2dOp{PoolKind: "bogus", KH: 2, KW: 2, StrideH: 2, StrideW: 2}).OutShape([]Shape{in}); err == nil {
		t.Fatal("expected unknown pool kind error")
	}
}

func TestAddMulConcat(t *testing.T) {
	a := Shape{C: 8, H: 4, W: 4}
	bShape := Shape{C: 8, H: 4, W: 4}
	add := &AddOp{}
	out, err := add.OutShape([]Shape{a, bShape})
	if err != nil || out != a {
		t.Fatalf("add: %v %v", out, err)
	}
	if _, err := add.OutShape([]Shape{a}); err == nil {
		t.Fatal("add needs >= 2 inputs")
	}
	if _, err := add.OutShape([]Shape{a, {C: 4, H: 4, W: 4}}); err == nil {
		t.Fatal("add shape mismatch must error")
	}

	mul := &MulOp{}
	gate := Shape{C: 8, H: 1, W: 1}
	if out, err := mul.OutShape([]Shape{a, gate}); err != nil || out != a {
		t.Fatalf("mul gate: %v %v", out, err)
	}
	if out, err := mul.OutShape([]Shape{a, a}); err != nil || out != a {
		t.Fatalf("mul same-shape: %v %v", out, err)
	}
	if _, err := mul.OutShape([]Shape{a, {C: 4, H: 1, W: 1}}); err == nil {
		t.Fatal("mul incompatible gate must error")
	}

	cc := &ConcatOp{}
	out, err = cc.OutShape([]Shape{a, {C: 16, H: 4, W: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out != (Shape{C: 24, H: 4, W: 4}) {
		t.Fatalf("concat out = %v", out)
	}
	if _, err := cc.OutShape([]Shape{a, {C: 16, H: 2, W: 2}}); err == nil {
		t.Fatal("concat spatial mismatch must error")
	}
}

func TestDropoutValidation(t *testing.T) {
	in := Shape{C: 4, H: 1, W: 1}
	if _, err := (&DropoutOp{P: 0.5}).OutShape([]Shape{in}); err != nil {
		t.Fatal(err)
	}
	if _, err := (&DropoutOp{P: 1.5}).OutShape([]Shape{in}); err == nil {
		t.Fatal("expected out-of-range dropout error")
	}
}

func TestGraphAccounting(t *testing.T) {
	g := tinyNet(t)
	// conv: 8*3*3*3 = 216; bn: 16; fc: 8*10+10 = 90.
	if got := g.TotalParams(); got != 216+16+90 {
		t.Fatalf("TotalParams = %d, want %d", got, 216+16+90)
	}
	if g.ParamLayers() != 3 {
		t.Fatalf("ParamLayers = %d, want 3", g.ParamLayers())
	}
	if g.TotalFLOPs() <= 0 {
		t.Fatal("TotalFLOPs must be positive")
	}
	if g.CountKind("conv2d") != 1 || g.CountKind("linear") != 1 {
		t.Fatal("CountKind miscounts")
	}
}

func TestBuilderErrorLatching(t *testing.T) {
	b, x := NewBuilder("bad", Shape{C: 3, H: 8, W: 8})
	x = b.Conv(x, "conv-too-big", 8, 11, 1, 0) // kernel larger than input
	x = b.ReLU(x, "relu")                      // should be a no-op after error
	if _, err := b.Build(); err == nil {
		t.Fatal("expected builder error to surface in Build")
	}
	if b.Err() == nil {
		t.Fatal("Err() should report the latched error")
	}
	if b.Shape(x) != (Shape{}) {
		t.Fatal("Shape after error should be zero")
	}
}

func TestBuilderEmptyGraph(t *testing.T) {
	b, _ := NewBuilder("empty", Shape{C: 1, H: 1, W: 1})
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for op-less graph")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := tinyNet(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a stored shape.
	g.Nodes[1].Out.C++
	if err := g.Validate(); err == nil {
		t.Fatal("expected shape corruption to be caught")
	}
	g.Nodes[1].Out.C--
	// Break topological order.
	g.Nodes[1].Inputs[0] = 5
	if err := g.Validate(); err == nil {
		t.Fatal("expected topological violation to be caught")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := tinyNet(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || len(back.Nodes) != len(g.Nodes) {
		t.Fatalf("round trip lost structure: %s %d", back.Name, len(back.Nodes))
	}
	if back.TotalParams() != g.TotalParams() || back.TotalFLOPs() != g.TotalFLOPs() {
		t.Fatal("round trip changed accounting")
	}
	for i := range g.Nodes {
		if back.Nodes[i].Out != g.Nodes[i].Out {
			t.Fatalf("node %d shape changed: %v vs %v", i, back.Nodes[i].Out, g.Nodes[i].Out)
		}
	}
}

func TestJSONRejectsUnknownKind(t *testing.T) {
	payload := `{"name":"x","nodes":[{"name":"in","kind":"warp-drive"}]}`
	var g Graph
	if err := json.Unmarshal([]byte(payload), &g); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestJSONRejectsForwardReference(t *testing.T) {
	payload := `{"name":"x","nodes":[
	  {"name":"in","kind":"input","op":{"shape":{"C":3,"H":8,"W":8}}},
	  {"name":"relu","kind":"activation","op":{"fn":"relu"},"inputs":[2]}
	]}`
	var g Graph
	if err := json.Unmarshal([]byte(payload), &g); err == nil {
		t.Fatal("expected forward-reference error")
	}
}

func TestBranchingGraph(t *testing.T) {
	// Residual block with SE gate exercise: add + mul + concat combined.
	b, x := NewBuilder("branchy", Shape{C: 16, H: 8, W: 8})
	left := b.Conv(x, "left", 16, 3, 1, 1)
	right := b.Conv(x, "right", 16, 1, 1, 0)
	sum := b.Add("sum", left, right)
	gate := b.GlobalAvgPool(sum, "squeeze")
	gate = b.Conv(gate, "fc1", 4, 1, 1, 0)
	gate = b.ReLU(gate, "fc1act")
	gate = b.Conv(gate, "fc2", 16, 1, 1, 0)
	gate = b.Act(gate, "fc2act", Sigmoid)
	scaled := b.Mul("scale", sum, gate)
	cat := b.Concat("cat", scaled, x)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := g.OutputShape()
	if out != (Shape{C: 32, H: 8, W: 8}) {
		t.Fatalf("output = %v", out)
	}
	_ = cat
}

func TestNodeInputElems(t *testing.T) {
	g := tinyNet(t)
	// Node 1 is conv1 consuming the 3x32x32 input.
	if got := g.NodeInputElems(1); got != 3*32*32 {
		t.Fatalf("NodeInputElems = %d", got)
	}
}
