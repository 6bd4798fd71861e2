package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/models"
	"convmeter/internal/simd"
)

// gemmLeaf is one leaf of the kernels: the AVX2 kernels, or nil for the
// pure-Go loops.
type gemmLeaf struct {
	name string
	k    *avx2Kernels
}

// hostLeaves lists the leaves this host runs: the Go loops always, the
// AVX2 kernels where init selected them.
func hostLeaves() []gemmLeaf {
	leaves := []gemmLeaf{{name: "go"}}
	if avx2Leaf != nil {
		leaves = append(leaves, gemmLeaf{"avx2", avx2Leaf})
	}
	return leaves
}

// withLeaf runs f with leaf selected and restores the switch after.
func withLeaf(leaf gemmLeaf, f func()) {
	saved := avx2Leaf
	defer func() { avx2Leaf = saved }()
	avx2Leaf = leaf.k
	f()
}

// forEachLeaf runs f as one subtest per host leaf.
func forEachLeaf(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	leaves := hostLeaves()
	if len(leaves) == 1 {
		t.Log("no AVX2 on this host: only the Go leaf runs")
	}
	for _, leaf := range leaves {
		withLeaf(leaf, func() { t.Run(leaf.name, f) })
	}
}

// linearRef is the scalar reference for linear: one running sum per
// (image, output), bias first, k ascending.
func linearRef(in *Tensor, op *graph.LinearOp, weight, bias []float32, out *Tensor) {
	for b := 0; b < in.Batch; b++ {
		x := in.image(b)
		for o := 0; o < op.Out; o++ {
			row := weight[o*op.In : (o+1)*op.In]
			acc := float32(0)
			if bias != nil {
				acc = bias[o]
			}
			for k, v := range x {
				acc += row[k] * v
			}
			out.image(b)[o] = acc
		}
	}
}

// tokenLinearRef is the scalar reference for tokenLinear: one running
// sum per (image, output, token), bias first, k ascending.
func tokenLinearRef(in *Tensor, op *graph.TokenLinearOp, weight, bias []float32, out *Tensor) {
	T := in.Shape.H
	for b := 0; b < in.Batch; b++ {
		for o := 0; o < op.Out; o++ {
			row := weight[o*op.In : (o+1)*op.In]
			var bv float32
			if bias != nil {
				bv = bias[o]
			}
			for tok := 0; tok < T; tok++ {
				acc := bv
				for k := 0; k < op.In; k++ {
					acc += row[k] * in.At(b, k, tok, 0)
				}
				out.Set(b, o, tok, 0, acc)
			}
		}
	}
}

// normalFill fills v with seeded standard normal draws.
func normalFill(rng *rand.Rand, v []float32) {
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
}

// firstBitDiff returns an error naming the first element whose bits
// differ, or nil.
func firstBitDiff(got, want []float32) error {
	for i, v := range want {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			return fmt.Errorf("out[%d] = %g (%#08x), reference %g (%#08x)",
				i, got[i], math.Float32bits(got[i]), v, math.Float32bits(v))
		}
	}
	return nil
}

// TestLinearMatchesReference pins linear to its scalar reference bit
// for bit on every leaf: batch 1–5 (batch 1 is a one-column GEMM),
// widths that are not multiples of 8, and a nil bias.
func TestLinearMatchesReference(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		for _, c := range []struct{ in, out int }{{1, 1}, {3, 5}, {8, 8}, {13, 21}, {64, 10}, {100, 1000}} {
			for batch := 1; batch <= 5; batch++ {
				for _, withBias := range []bool{true, false} {
					rng := rand.New(rand.NewSource(int64(c.in*1000 + c.out + batch)))
					op := &graph.LinearOp{In: c.in, Out: c.out, Bias: withBias}
					in := NewTensor(batch, graph.Shape{C: c.in, H: 1, W: 1})
					normalFill(rng, in.Data)
					w := make([]float32, c.in*c.out)
					normalFill(rng, w)
					var bias []float32
					if withBias {
						bias = make([]float32, c.out)
						normalFill(rng, bias)
					}
					shape := graph.Shape{C: c.out, H: 1, W: 1}
					got, want := NewTensor(batch, shape), NewTensor(batch, shape)
					linear(in, op, w, bias, got)
					linearRef(in, op, w, bias, want)
					if err := firstBitDiff(got.Data, want.Data); err != nil {
						t.Errorf("%d→%d batch %d bias %v: %v", c.in, c.out, batch, withBias, err)
					}
				}
			}
		}
	})
}

// TestTokenLinearMatchesReference pins tokenLinear to its scalar
// reference bit for bit on every leaf, at T of 1, 5 and 50.
func TestTokenLinearMatchesReference(t *testing.T) {
	forEachLeaf(t, func(t *testing.T) {
		for _, c := range []struct{ in, out int }{{1, 3}, {7, 9}, {16, 24}, {37, 11}} {
			for _, T := range []int{1, 5, 50} {
				for batch := 1; batch <= 5; batch += 2 {
					for _, withBias := range []bool{true, false} {
						rng := rand.New(rand.NewSource(int64(c.in*1000 + c.out*10 + T + batch)))
						op := &graph.TokenLinearOp{In: c.in, Out: c.out, Bias: withBias}
						in := NewTensor(batch, graph.Shape{C: c.in, H: T, W: 1})
						normalFill(rng, in.Data)
						w := make([]float32, c.in*c.out)
						normalFill(rng, w)
						var bias []float32
						if withBias {
							bias = make([]float32, c.out)
							normalFill(rng, bias)
						}
						shape := graph.Shape{C: c.out, H: T, W: 1}
						got, want := NewTensor(batch, shape), NewTensor(batch, shape)
						tokenLinear(in, op, w, bias, got)
						tokenLinearRef(in, op, w, bias, want)
						if err := firstBitDiff(got.Data, want.Data); err != nil {
							t.Errorf("%d→%d T %d batch %d bias %v: %v", c.in, c.out, T, batch, withBias, err)
						}
					}
				}
			}
		}
	})
}

// TestLeavesAgreeOnZoo requires bit-equal logits from every leaf on
// whole zoo models at 32 px, batch 1 and 3, and bit-equal gradients on
// the two training nets the gradient golden pins and on resnet18 (dense
// 3×3 convs at 64–512 channels, stride-2 1×1 downsamples, batch norm,
// add).
func TestLeavesAgreeOnZoo(t *testing.T) {
	leaves := hostLeaves()
	if len(leaves) == 1 {
		t.Skip("no AVX2 on this host: only the Go leaf runs")
	}
	for _, name := range []string{"resnet18", "mobilenet_v2", "squeezenet1_1", "efficientnet_b0",
		"resnext50_32x4d", "shufflenet_v2_x1_0", "vit_b_32"} {
		g, err := models.Build(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewExecutor(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 3} {
			in, err := e.RandomInput(batch)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]*Tensor, len(leaves))
			for i, leaf := range leaves {
				withLeaf(leaf, func() { outs[i], err = e.Run(in) })
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := firstBitDiff(outs[1].Data, outs[0].Data); err != nil {
				t.Errorf("%s batch %d: avx2 leaf against go leaf: %v", name, batch, err)
			}
		}
	}

	sq, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := models.Build("resnet18", 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		labels []int
	}{{"squeezenet1_1", sq, []int{3, 7}}, {"mobileStyleNet", mobileStyleNet(t), []int{0, 2}}, {"resnet18", rn, []int{5, 1}}} {
		e, err := NewExecutor(c.g, 1)
		if err != nil {
			t.Fatal(err)
		}
		in, err := e.RandomInput(len(c.labels))
		if err != nil {
			t.Fatal(err)
		}
		grads := make([][]float32, len(leaves))
		for i, leaf := range leaves {
			withLeaf(leaf, func() {
				var g []float32
				_, g, err = e.Gradients(in, c.labels)
				grads[i] = append([]float32(nil), g...)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := firstBitDiff(grads[1], grads[0]); err != nil {
			t.Errorf("%s gradients: avx2 leaf against go leaf: %v", c.name, err)
		}
	}
}

// TestAVX2LeafSelectedWhereCPUHasIt catches a broken leaf selection:
// every bit-identity test also passes on the Go leaf, so a bad switch
// would only lose the speed. init must select the AVX2 leaf exactly
// where the module's CPU probe reports AVX2; simd's
// TestHasAVX2MatchesCPUInfo holds the probe to /proc/cpuinfo.
func TestAVX2LeafSelectedWhereCPUHasIt(t *testing.T) {
	if got, want := avx2Leaf != nil, simd.HasAVX2(); got != want {
		t.Fatalf("AVX2 leaf selected: %v, but simd.HasAVX2 reports %v", got, want)
	}
}
