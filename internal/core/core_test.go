package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"convmeter/internal/metrics"
)

// synthMetrics fabricates a family of distinct "models".
func synthMetrics(i int) metrics.Metrics {
	f := float64(i + 1)
	// Deliberately non-collinear growth patterns across the family so the
	// design matrix is well conditioned, as with real ConvNet metrics.
	return metrics.Metrics{
		Model:   string(rune('a' + i)),
		FLOPs:   metrics.FLOPs(1e9 * f * f),
		Inputs:  metrics.Count(2e6 * f),
		Outputs: metrics.Count(3e6 * math.Sqrt(f)),
		Weights: metrics.Count(5e6 * f * math.Sqrt(f)),
		Layers:  metrics.Count(20 + 5*float64(i)),
	}
}

// linearInferenceSamples generates samples obeying the paper's Eq. 3
// exactly with known coefficients.
func linearInferenceSamples(nModels int, batches []int) []Sample {
	var out []Sample
	for i := 0; i < nModels; i++ {
		met := synthMetrics(i)
		for _, b := range batches {
			fwd := 2e-12*float64(met.FLOPs)*float64(b) + 3e-10*float64(met.Inputs)*float64(b) + 4e-10*float64(met.Outputs)*float64(b) + 0.001
			out = append(out, Sample{
				Model: met.Model, Met: met, Image: 128,
				BatchPerDevice: b, Devices: 1, Nodes: 1, Fwd: metrics.Seconds(fwd),
			})
		}
	}
	return out
}

func TestFitInferenceRecoversCoefficients(t *testing.T) {
	samples := linearInferenceSamples(5, []int{1, 2, 4, 8, 16, 32})
	m, err := FitInference(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2e-12, 3e-10, 4e-10, 0.001}
	got := m.Coefficients()
	for i := range want {
		if rel := math.Abs(got[i]-want[i]) / want[i]; rel > 1e-6 {
			t.Fatalf("coef %d = %g, want %g", i, got[i], want[i])
		}
	}
	// Prediction at an unseen batch size must extrapolate exactly.
	met := synthMetrics(0)
	pred := float64(m.Predict(met, 1024))
	wantT := 2e-12*float64(met.FLOPs)*1024 + 3e-10*float64(met.Inputs)*1024 + 4e-10*float64(met.Outputs)*1024 + 0.001
	if math.Abs(pred-wantT)/wantT > 1e-9 {
		t.Fatalf("extrapolated prediction %g, want %g", pred, wantT)
	}
}

func TestFitInferenceValidation(t *testing.T) {
	if _, err := FitInference(nil); err == nil {
		t.Fatal("expected error on empty samples")
	}
	bad := []Sample{{Model: "", BatchPerDevice: 1, Devices: 1, Nodes: 1}}
	if _, err := FitInference(bad); err == nil {
		t.Fatal("expected error on unnamed model")
	}
	bad = []Sample{{Model: "x", BatchPerDevice: 0, Devices: 1, Nodes: 1}}
	if _, err := FitInference(bad); err == nil {
		t.Fatal("expected error on zero batch")
	}
	bad = []Sample{{Model: "x", BatchPerDevice: 1, Devices: 1, Nodes: 2}}
	if _, err := FitInference(bad); err == nil {
		t.Fatal("expected error on nodes > devices")
	}
	bad = []Sample{{Model: "x", BatchPerDevice: 1, Devices: 1, Nodes: 1, Fwd: -1}}
	if _, err := FitInference(bad); err == nil {
		t.Fatal("expected error on negative time")
	}
}

// TestFitRejectsNonFiniteSamples: one non-finite phase time or metric
// in an otherwise clean sweep fails the fit with an error naming the
// field. An +Inf Fwd once fitted to coefficients [NaN NaN NaN NaN]
// with a nil error, and a NaN FLOPs surfaced as a rank-deficient
// design matrix.
func TestFitRejectsNonFiniteSamples(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name    string
		corrupt func(*Sample)
		want    string
	}{
		{"+Inf fwd", func(s *Sample) { s.Fwd = metrics.Seconds(inf) }, "non-finite fwd time +Inf"},
		{"NaN fwd", func(s *Sample) { s.Fwd = metrics.Seconds(nan) }, "non-finite fwd time NaN"},
		{"+Inf bwd", func(s *Sample) { s.Bwd = metrics.Seconds(inf) }, "non-finite bwd time +Inf"},
		{"NaN grad", func(s *Sample) { s.Grad = metrics.Seconds(nan) }, "non-finite grad time NaN"},
		{"NaN FLOPs", func(s *Sample) { s.Met.FLOPs = metrics.FLOPs(nan) }, "non-finite FLOPs NaN"},
		{"+Inf inputs", func(s *Sample) { s.Met.Inputs = metrics.Count(inf) }, "non-finite inputs +Inf"},
		{"-Inf outputs", func(s *Sample) { s.Met.Outputs = metrics.Count(-inf) }, "non-finite outputs -Inf"},
		{"NaN weights", func(s *Sample) { s.Met.Weights = metrics.Count(nan) }, "non-finite weights NaN"},
		{"+Inf layers", func(s *Sample) { s.Met.Layers = metrics.Count(inf) }, "non-finite layers +Inf"},
	} {
		samples := linearInferenceSamples(5, []int{1, 2, 4, 8})
		c.corrupt(&samples[6])
		m, err := FitInference(samples)
		if err == nil {
			t.Errorf("%s: fit returned coefficients %v, want an error", c.name, m.Coefficients())
			continue
		}
		if !strings.Contains(err.Error(), "sample 6: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name sample 6 and %q", c.name, err, c.want)
		}
	}
}

func TestEvaluateInferenceLOMOPerfectData(t *testing.T) {
	samples := linearInferenceSamples(6, []int{1, 4, 16, 64})
	ev, err := EvaluateInferenceLOMO(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.PerModel) != 6 {
		t.Fatalf("PerModel has %d entries", len(ev.PerModel))
	}
	if ev.Overall.R2 < 0.999999 {
		t.Fatalf("overall R2 = %g on noiseless linear data", ev.Overall.R2)
	}
	for name, rep := range ev.PerModel {
		if rep.MAPE > 1e-6 {
			t.Fatalf("%s: MAPE = %g on noiseless data", name, rep.MAPE)
		}
	}
	if len(ev.Pairs) != len(samples) {
		t.Fatalf("pairs = %d, want %d", len(ev.Pairs), len(samples))
	}
	if got := ev.Models(); len(got) != 6 || got[0] != "a" {
		t.Fatalf("Models() = %v", got)
	}
}

func TestLOMORejectsSingleModel(t *testing.T) {
	samples := linearInferenceSamples(1, []int{1, 2, 4, 8, 16})
	if _, err := EvaluateInferenceLOMO(samples); err == nil {
		t.Fatal("expected error with a single model")
	}
}

// trainSamples fabricates training measurements with a known structure:
// fwd/bwd linear in F,I,O·b and grad linear in L (single) or L,W,N.
func trainSamples(nModels int, deviceCounts []int, noise float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for i := 0; i < nModels; i++ {
		met := synthMetrics(i)
		for _, dev := range deviceCounts {
			for _, b := range []int{4, 16, 64} {
				bf := float64(b)
				fwd := 2e-12*float64(met.FLOPs)*bf + 2e-10*float64(met.Inputs)*bf + 3e-10*float64(met.Outputs)*bf + 0.001
				bwd := 2 * fwd
				grad := 1e-4 * float64(met.Layers)
				if dev > 1 {
					grad += 2e-9*float64(met.Weights) + 3e-4*float64(dev)
				}
				n := func() float64 { return 1 + noise*rng.NormFloat64() }
				nodes := (dev + 3) / 4
				if dev == 1 {
					nodes = 1
				}
				out = append(out, Sample{
					Model: met.Model, Met: met, Image: 128,
					BatchPerDevice: b, Devices: dev, Nodes: nodes,
					Fwd: metrics.Seconds(fwd * n()), Bwd: metrics.Seconds(bwd * n()), Grad: metrics.Seconds(grad * n()),
				})
			}
		}
	}
	return out
}

func TestFitTrainingSingleDeviceLayout(t *testing.T) {
	samples := trainSamples(5, []int{1}, 0, 1)
	m, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.Multi() {
		t.Fatal("single-device data must select the single-device layout")
	}
	for _, s := range samples[:10] {
		ph := m.PredictPhases(s.Met, float64(s.BatchPerDevice), 1, 1)
		if rel := math.Abs(float64(ph.Iter-s.Iter())) / float64(s.Iter()); rel > 1e-6 {
			t.Fatalf("noiseless single-device iter prediction off by %g", rel)
		}
		if rel := math.Abs(float64(ph.Grad-s.Grad)) / float64(s.Grad); rel > 1e-6 {
			t.Fatalf("grad prediction off by %g", rel)
		}
	}
}

func TestFitTrainingMultiDeviceLayout(t *testing.T) {
	// The paper fits the distributed scenario separately from the
	// single-GPU one (its T_grad has two distinct functional forms), so a
	// distributed dataset contains only N > 1 samples.
	samples := trainSamples(5, []int{4, 8, 16}, 0, 1)
	m, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Multi() {
		t.Fatal("multi-device data must select the multi layout")
	}
	for _, s := range samples {
		ph := m.PredictPhases(s.Met, float64(s.BatchPerDevice), s.Devices, s.Nodes)
		if rel := math.Abs(float64(ph.Iter-s.Iter())) / float64(s.Iter()); rel > 1e-6 {
			t.Fatalf("noiseless multi-device iter prediction off by %g", rel)
		}
		if rel := math.Abs(float64(ph.Grad-s.Grad)) / float64(s.Grad); rel > 1e-6 {
			t.Fatalf("grad prediction off by %g", rel)
		}
	}
}

func TestFitTrainingMixedScenarioStillFits(t *testing.T) {
	// Mixing N=1 and N>1 data crosses the paper's two-branch gradient
	// form; the single fitted hyperplane cannot be exact, but fitting must
	// succeed and stay in a usable error band.
	samples := trainSamples(5, []int{1, 4, 8, 16}, 0, 1)
	m, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, s := range samples {
		ph := m.PredictPhases(s.Met, float64(s.BatchPerDevice), s.Devices, s.Nodes)
		if rel := math.Abs(float64(ph.Iter-s.Iter())) / float64(s.Iter()); rel > worst {
			worst = rel
		}
	}
	if worst > 0.5 {
		t.Fatalf("mixed-scenario worst error %g unusable", worst)
	}
}

func TestEvaluateTrainingLOMO(t *testing.T) {
	samples := trainSamples(6, []int{4, 8, 16}, 0.05, 7)
	ev, err := EvaluateTrainingLOMO(samples)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Overall.R2 < 0.9 {
		t.Fatalf("overall R2 = %g on mildly noisy structured data", ev.Overall.R2)
	}
	if ev.Overall.MAPE > 0.25 {
		t.Fatalf("overall MAPE = %g", ev.Overall.MAPE)
	}
	if ev.FwdOverall.N == 0 || ev.BwdOverall.N == 0 || ev.GradOverall.N == 0 {
		t.Fatal("per-phase reports missing")
	}
}

func TestPredictEpochAndThroughput(t *testing.T) {
	samples := trainSamples(4, []int{1}, 0, 1)
	m, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	met := synthMetrics(0)
	iter := float64(m.PredictIter(met, 64, 1, 1))
	epoch := float64(m.PredictEpoch(met, 1280000, 64, 1, 1))
	wantSteps := 1280000.0 / 64.0
	if math.Abs(epoch-iter*wantSteps)/epoch > 1e-9 {
		t.Fatalf("epoch %g != iter %g × steps %g", epoch, iter, wantSteps)
	}
	if m.PredictEpoch(met, 0, 64, 1, 1) != 0 {
		t.Fatal("zero dataset must yield zero epoch time")
	}
	tput := m.PredictThroughput(met, 64, 1, 1)
	if math.Abs(tput-64/iter)/tput > 1e-9 {
		t.Fatalf("throughput %g, want %g", tput, 64/iter)
	}
}

func TestTurningPoint(t *testing.T) {
	// Build a model from synthetic multi-device data where communication
	// grows steeply with N so scaling saturates.
	samples := trainSamples(5, []int{4, 8, 16, 32}, 0, 3)
	m, err := FitTraining(samples)
	if err != nil {
		t.Fatal(err)
	}
	met := synthMetrics(0)
	tp, err := m.TurningPoint(met, 4, 4, 64, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if tp < 1 || tp > 64 {
		t.Fatalf("turning point %d out of range", tp)
	}
	if _, err := m.TurningPoint(met, 4, 0, 8, 0.1); err == nil {
		t.Fatal("expected invalid-topology error")
	}
	// A tiny batch (communication dominated) must saturate no later than a
	// large batch.
	tpSmall, err := m.TurningPoint(met, 1, 4, 64, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if tpSmall > tp {
		t.Fatalf("small-batch turning point %d should not exceed large-batch %d", tpSmall, tp)
	}
}

func TestSampleIter(t *testing.T) {
	s := Sample{Fwd: 1, Bwd: 2, Grad: 3}
	if s.Iter() != 6 {
		t.Fatalf("Iter = %g", s.Iter())
	}
}
