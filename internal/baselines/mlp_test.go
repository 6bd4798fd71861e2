package baselines

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// mlpTrainSet draws n seeded rows of five features with a nonlinear
// target, sized like one DIPPM fold's training set.
func mlpTrainSet(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		X[i] = x
		y[i] = 0.8*x[0] - 0.5*x[1]*x[2] + 0.3*math.Abs(x[3]) + 0.1*x[4] + 0.05*rng.NormFloat64()
	}
	return X, y
}

// TestMLPTrainGolden pins the bits of a trained surrogate network: every
// weight and bias, the returned MSE, and Predict on five fixed rows. 70
// rows at batch 32 leave a ragged last mini-batch. Any change to the
// forward pass, the backprop, the accumulation order or the update that
// moves one bit fails here. Like TestRealGradientsGolden the hash was
// recorded on amd64, where the compiler does not fuse a multiply and an
// add into one rounding.
func TestMLPTrainGolden(t *testing.T) {
	const want uint64 = 0xa58f2fbd1b5275c9
	m, err := NewMLP([]int{5, 24, 24, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	X, y := mlpTrainSet(70, 3)
	mse, err := m.Train(X, y, TrainConfig{Epochs: 20, LR: 0.01, Momentum: 0.9, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for l := range m.weights {
		for _, w := range m.weights[l] {
			put(w)
		}
		for _, b := range m.biases[l] {
			put(b)
		}
	}
	put(mse)
	probe, _ := mlpTrainSet(5, 11)
	for _, x := range probe {
		p, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		put(p)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("trained MLP hash %#016x, want %#016x", got, want)
	}
}

// TestMLPTrainAllocsFlat pins Train's allocations to set-up: the
// activation, delta, gradient and momentum buffers are made once per
// call, so eight epochs allocate exactly as often as one.
func TestMLPTrainAllocsFlat(t *testing.T) {
	X, y := mlpTrainSet(70, 3)
	m, err := NewMLP([]int{5, 24, 24, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(epochs int) float64 {
		cfg := TrainConfig{Epochs: epochs, LR: 0.01, Momentum: 0.9, BatchSize: 32}
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Train(X, y, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(1), allocs(8); one != eight {
		t.Fatalf("Train allocates %v times over 1 epoch and %v over 8; want the same", one, eight)
	}
}
