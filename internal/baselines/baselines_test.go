package baselines

import (
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/core"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
)

// synthSamples builds inference samples whose true runtime depends on all
// three metrics, so restricted models must underperform the full one.
func synthSamples(nModels int, batches []int, noise float64, seed int64) []core.Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []core.Sample
	for i := 0; i < nModels; i++ {
		f := float64(i + 1)
		met := metrics.Metrics{
			Model:   string(rune('a' + i)),
			FLOPs:   metrics.FLOPs(1e9 * f * f),
			Inputs:  metrics.Count(2e6 * f),
			Outputs: metrics.Count(3e6 * math.Sqrt(f)),
			Weights: metrics.Count(5e6 * f),
			Layers:  metrics.Count(20 + 3*f),
		}
		for _, b := range batches {
			bf := float64(b)
			fwd := 1e-12*float64(met.FLOPs)*bf + 5e-10*float64(met.Inputs)*bf + 8e-10*float64(met.Outputs)*bf + 0.0005
			fwd *= 1 + noise*rng.NormFloat64()
			out = append(out, core.Sample{
				Model: met.Model, Met: met, Image: 128,
				BatchPerDevice: b, Devices: 1, Nodes: 1, Fwd: metrics.Seconds(fwd),
			})
		}
	}
	return out
}

func TestMaskString(t *testing.T) {
	cases := map[string]MetricMask{
		"FLOPs":                {F: true},
		"Inputs":               {I: true},
		"Outputs":              {O: true},
		"FLOPs+Inputs+Outputs": {F: true, I: true, O: true},
		"intercept-only":       {},
	}
	for want, mask := range cases {
		if got := mask.String(); got != want {
			t.Errorf("mask.String() = %q, want %q", got, want)
		}
	}
}

func TestFitAblationErrors(t *testing.T) {
	if _, err := FitAblation(nil, MetricMask{F: true}); err == nil {
		t.Fatal("expected error on empty samples")
	}
	s := synthSamples(3, []int{1, 2}, 0, 1)
	if _, err := FitAblation(s, MetricMask{}); err == nil {
		t.Fatal("expected error on empty mask")
	}
}

func TestCombinedMaskBeatsSingleMetrics(t *testing.T) {
	// The paper's Figure 2 claim, as a property of the protocol: with a
	// ground truth that genuinely mixes all three metrics, the combined
	// LOMO error must be lower than every single-metric error.
	samples := synthSamples(8, []int{1, 4, 16, 64, 256}, 0.02, 5)
	combined, err := EvaluateAblationLOMO(samples, MetricMask{F: true, I: true, O: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []MetricMask{{F: true}, {I: true}, {O: true}} {
		single, err := EvaluateAblationLOMO(samples, mask)
		if err != nil {
			t.Fatal(err)
		}
		if single.Overall.MAPE <= combined.Overall.MAPE {
			t.Errorf("%s MAPE %.4f should exceed combined %.4f",
				mask, single.Overall.MAPE, combined.Overall.MAPE)
		}
	}
}

func TestAllMasksCount(t *testing.T) {
	masks := AllMasks()
	if len(masks) != 7 {
		t.Fatalf("AllMasks returned %d masks, want 7", len(masks))
	}
	seen := map[string]bool{}
	for _, m := range masks {
		if seen[m.String()] {
			t.Fatalf("duplicate mask %s", m)
		}
		seen[m.String()] = true
	}
}

func TestMLPConstruction(t *testing.T) {
	if _, err := NewMLP([]int{3}, 1); err == nil {
		t.Fatal("expected error for single layer")
	}
	if _, err := NewMLP([]int{3, 0, 1}, 1); err == nil {
		t.Fatal("expected error for zero-width layer")
	}
	if _, err := NewMLP([]int{3, 4, 2}, 1); err == nil {
		t.Fatal("expected error for multi-output network")
	}
	m, err := NewMLP([]int{3, 8, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Fatal("expected feature-width error")
	}
}

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X = append(X, []float64{a, b})
		y = append(y, 0.5*a-0.3*b+0.1)
	}
	m, err := NewMLP([]int{2, 16, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := m.Train(X, y, TrainConfig{Epochs: 200, LR: 0.05, Momentum: 0.9, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 1e-3 {
		t.Fatalf("MLP failed to learn linear target, MSE %g", mse)
	}
	pred, err := m.Predict([]float64{0.4, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*0.4 - 0.3*-0.2 + 0.1
	if math.Abs(pred-want) > 0.05 {
		t.Fatalf("MLP prediction %g, want ≈%g", pred, want)
	}
}

func TestMLPLearnsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var X [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		a := rng.Float64()*2 - 1
		X = append(X, []float64{a})
		y = append(y, a*a) // needs a hidden layer
	}
	m, err := NewMLP([]int{1, 24, 24, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := m.Train(X, y, TrainConfig{Epochs: 400, LR: 0.03, Momentum: 0.9, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 5e-3 {
		t.Fatalf("MLP failed to learn x², MSE %g", mse)
	}
}

func TestMLPTrainValidation(t *testing.T) {
	m, _ := NewMLP([]int{2, 4, 1}, 1)
	if _, err := m.Train(nil, nil, TrainConfig{Epochs: 1, LR: 0.1, BatchSize: 1}); err == nil {
		t.Fatal("expected empty-set error")
	}
	X := [][]float64{{1, 2}}
	if _, err := m.Train(X, []float64{1}, TrainConfig{}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := m.Train([][]float64{{1}}, []float64{1}, TrainConfig{Epochs: 1, LR: 0.1, BatchSize: 1}); err == nil {
		t.Fatal("expected feature-width error")
	}
}

func TestDIPPMTrainAndPredict(t *testing.T) {
	samples := synthSamples(8, []int{1, 4, 16, 64}, 0.02, 11)
	d, err := TrainDIPPM(samples, DIPPMConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution accuracy should be decent (within ~40% on average).
	sumErr, n := 0.0, 0
	for _, s := range samples {
		pred, err := d.Predict(s.Met, float64(s.BatchPerDevice))
		if err != nil {
			t.Fatal(err)
		}
		if pred <= 0 {
			t.Fatalf("non-positive prediction %g", pred)
		}
		sumErr += math.Abs(pred-float64(s.Fwd)) / float64(s.Fwd)
		n++
	}
	if mape := sumErr / float64(n); mape > 0.4 {
		t.Fatalf("in-distribution DIPPM MAPE %g too high", mape)
	}
}

func TestDIPPMErrors(t *testing.T) {
	if _, err := TrainDIPPM(nil, DIPPMConfig{}); err == nil {
		t.Fatal("expected small-dataset error")
	}
	var d DIPPM
	if _, err := d.Predict(metrics.Metrics{FLOPs: 1, Outputs: 1, Weights: 1, Layers: 1}, 1); err == nil {
		t.Fatal("expected untrained error")
	}
	bad := synthSamples(4, []int{1, 2, 4}, 0, 1)
	bad[0].Fwd = 0
	if _, err := TrainDIPPM(bad, DIPPMConfig{}); err == nil {
		t.Fatal("expected non-positive-time error")
	}
}

func TestDIPPMCannotParseSqueezeNet(t *testing.T) {
	// Mirrors the paper: "DIPPM was unable to parse the model graph of
	// squeezenet1_0".
	sq, err := models.Build("squeezenet1_0", 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := CanParse(sq); err == nil {
		t.Fatal("squeezenet1_0 must be rejected by the DIPPM featuriser")
	}
	rn, err := models.Build("resnet18", 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := CanParse(rn); err != nil {
		t.Fatalf("resnet18 should parse: %v", err)
	}
}
