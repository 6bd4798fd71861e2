package regress

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFitRecoversExactLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var feats [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		f, in, out := rng.Float64()*1e9, rng.Float64()*1e7, rng.Float64()*1e7
		feats = append(feats, []float64{f, in, out, 1})
		y = append(y, 2e-9*f+3e-8*in+4e-8*out+0.005)
	}
	m, err := Fit(feats, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2e-9, 3e-8, 4e-8, 0.005}
	for i := range want {
		if rel := math.Abs(m.Coef[i]-want[i]) / want[i]; rel > 1e-6 {
			t.Fatalf("coef %d = %g, want %g", i, m.Coef[i], want[i])
		}
	}
	pred := m.PredictAll(feats)
	rep, err := Evaluate(y, pred)
	if err != nil {
		t.Fatal(err)
	}
	if rep.R2 < 0.999999 {
		t.Fatalf("R2 = %g, want ≈1", rep.R2)
	}
	if rep.MAPE > 1e-6 {
		t.Fatalf("MAPE = %g, want ≈0", rep.MAPE)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for row/target count mismatch")
	}
	// Fewer samples than coefficients.
	if _, err := Fit([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Fatal("expected error for underdetermined fit")
	}
}

// nonFiniteFits are designs the fit must reject, each with the fit
// entry point it goes through and the words the error must carry.
// FuzzFit is seeded from this table.
var nonFiniteFits = []struct {
	name     string
	fit      fitKind
	features [][]float64
	y        []float64
	want     string
}{
	{"NaN feature", fitOLS,
		[][]float64{{1, 1}, {2, 1}, {math.NaN(), 1}, {4, 1}}, []float64{1, 2, 3, 4},
		"feature at row 2, column 0 is NaN"},
	{"+Inf feature", fitOLS,
		[][]float64{{1, 1}, {2, math.Inf(1)}, {3, 1}}, []float64{1, 2, 3},
		"feature at row 1, column 1 is +Inf"},
	{"-Inf target", fitOLS,
		[][]float64{{1, 1}, {2, 1}, {3, 1}}, []float64{1, math.Inf(-1), 3},
		"target at row 1 is -Inf"},
	{"NaN target", fitStats,
		[][]float64{{1, 1}, {2, 1}, {3, 1}}, []float64{1, 2, math.NaN()},
		"target at row 2 is NaN"},
	// FitRelative weights an infinite target by 1/Inf² = 0, and Inf·0 is
	// NaN: this once fitted to all-NaN coefficients without an error.
	{"+Inf target, relative", fitRelative,
		[][]float64{{1, 1}, {2, 1}, {3, 1}, {4, 1}}, []float64{1, 2, math.Inf(1), 4},
		"target at row 2 is NaN"},
	{"NaN feature, relative", fitRelative,
		[][]float64{{math.NaN(), 1}, {2, 1}, {3, 1}}, []float64{1, 2, 3},
		"feature at row 0, column 0 is NaN"},
	// Finite but ill-scaled: the normalised solve is fine, and undoing
	// the column scale overflows.
	{"overflowing coefficient", fitOLS,
		[][]float64{{1e-300}, {2e-300}, {3e-300}}, []float64{1e10, 2e10, 3e10},
		"coefficient 0 solved to +Inf"},
}

// fitKind selects the fit entry point a case runs through.
type fitKind uint8

const (
	fitOLS fitKind = iota
	fitRelative
	fitStats
	fitKinds
)

func (k fitKind) fit(features [][]float64, y []float64) (*Model, error) {
	switch k % fitKinds {
	case fitRelative:
		return FitRelative(features, y)
	case fitStats:
		m, _, err := FitStats(features, y, nil)
		return m, err
	default:
		return Fit(features, y)
	}
}

// TestFitRejectsNonFinite: a NaN or ±Inf anywhere in the design, or a
// coefficient that overflows, is an error naming where it sits — never
// a model with non-finite coefficients, never a misleading
// rank-deficiency report.
func TestFitRejectsNonFinite(t *testing.T) {
	for _, c := range nonFiniteFits {
		m, err := c.fit.fit(c.features, c.y)
		if err == nil {
			t.Errorf("%s: fit returned coefficients %v, want an error", c.name, m.Coef)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

func TestFitRankDeficientFallsBackToRidge(t *testing.T) {
	// Duplicate feature columns: plain OLS rank deficient, ridge must cope.
	feats := [][]float64{
		{1, 1, 1},
		{2, 2, 1},
		{3, 3, 1},
		{4, 4, 1},
	}
	y := []float64{2, 4, 6, 8}
	m, err := Fit(feats, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range feats {
		if got := m.Predict(x); math.Abs(got-y[i]) > 1e-3 {
			t.Fatalf("ridge fallback prediction %d = %g, want %g", i, got, y[i])
		}
	}
}

func TestPredictPanicsOnBadWidth(t *testing.T) {
	m := &Model{Coef: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched feature width")
		}
	}()
	m.Predict([]float64{1})
}

func TestR2(t *testing.T) {
	actual := []float64{1, 2, 3, 4}
	if r := R2(actual, actual); r != 1 {
		t.Fatalf("perfect R2 = %g, want 1", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(actual, mean); math.Abs(r) > 1e-12 {
		t.Fatalf("mean-prediction R2 = %g, want 0", r)
	}
	// Constant actual series conventions.
	if r := R2([]float64{5, 5}, []float64{5, 5}); r != 1 {
		t.Fatalf("constant exact R2 = %g, want 1", r)
	}
	if r := R2([]float64{5, 5}, []float64{4, 6}); r != 0 {
		t.Fatalf("constant inexact R2 = %g, want 0", r)
	}
}

func TestRMSEAndNRMSE(t *testing.T) {
	actual := []float64{0, 10}
	pred := []float64{1, 9}
	if r := RMSE(actual, pred); math.Abs(r-1) > 1e-12 {
		t.Fatalf("RMSE = %g, want 1", r)
	}
	if n := NRMSE(actual, pred); math.Abs(n-0.1) > 1e-12 {
		t.Fatalf("NRMSE = %g, want 0.1", n)
	}
	// Zero-range fallback returns raw RMSE.
	if n := NRMSE([]float64{3, 3}, []float64{4, 4}); math.Abs(n-1) > 1e-12 {
		t.Fatalf("zero-range NRMSE = %g, want 1", n)
	}
}

func TestMAPE(t *testing.T) {
	actual := []float64{100, 200}
	pred := []float64{110, 180}
	// |10/100| and |20/200| → mean of 0.1 and 0.1 = 0.1
	if m := MAPE(actual, pred); math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("MAPE = %g, want 0.1", m)
	}
	// Zero actuals are skipped.
	if m := MAPE([]float64{0, 100}, []float64{5, 150}); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("MAPE with zero actual = %g, want 0.5", m)
	}
	if m := MAPE([]float64{0}, []float64{1}); m != 0 {
		t.Fatalf("all-zero-actual MAPE = %g, want 0", m)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Evaluate(nil, nil); err == nil {
		t.Fatal("expected empty-input error")
	}
}

func TestReportString(t *testing.T) {
	r := Report{R2: 0.96, RMSE: 0.0088, NRMSE: 0.13, MAPE: 0.17, N: 100}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
	}
}

func TestFitStatsRecoversKnownModel(t *testing.T) {
	// y = 2x + 1 + noise: estimates close to truth, t-values large,
	// noise-free columns get tight standard errors.
	rng := rand.New(rand.NewSource(12))
	n := 200
	feats := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		feats[i] = []float64{x, 1}
		y[i] = 2*x + 1 + rng.NormFloat64()*0.1
	}
	m, stats, err := FitStats(feats, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 0.02 || math.Abs(m.Coef[1]-1) > 0.05 {
		t.Fatalf("coef = %v", m.Coef)
	}
	if stats.DoF != n-2 {
		t.Fatalf("DoF = %d", stats.DoF)
	}
	for j := range stats.StdErr {
		if stats.StdErr[j] <= 0 {
			t.Fatalf("SE[%d] = %g", j, stats.StdErr[j])
		}
	}
	// The slope on 0.1 noise over 200 points is overwhelmingly significant.
	if stats.TValue[0] < 100 {
		t.Fatalf("slope t-value = %g, want large", stats.TValue[0])
	}
	// SE must shrink with more data: refit on a quarter of the sample.
	_, statsQ, err := FitStats(feats[:50], y[:50], nil)
	if err != nil {
		t.Fatal(err)
	}
	if statsQ.StdErr[0] <= stats.StdErr[0] {
		t.Fatalf("SE should shrink with sample size: %g vs %g", statsQ.StdErr[0], stats.StdErr[0])
	}
}

func TestFitStatsWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100
	feats := make([][]float64, n)
	y := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		x := 1 + rng.Float64()*10
		feats[i] = []float64{x, 1}
		y[i] = 3*x + rng.NormFloat64()*0.05*x // heteroscedastic
		w[i] = 1 / (x * x)
	}
	m, stats, err := FitStats(feats, y, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-3) > 0.05 {
		t.Fatalf("weighted slope = %g", m.Coef[0])
	}
	if stats.StdErr[0] <= 0 {
		t.Fatal("weighted SE missing")
	}
}

func TestFitStatsDegenerate(t *testing.T) {
	// Exactly as many points as coefficients: no residual DoF.
	feats := [][]float64{{1, 1}, {2, 1}}
	y := []float64{1, 2}
	_, stats, err := FitStats(feats, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DoF != 0 {
		t.Fatalf("DoF = %d", stats.DoF)
	}
	for _, se := range stats.StdErr {
		if se != 0 {
			t.Fatal("degenerate fit must have zero SEs")
		}
	}
}

func TestR2NeverExceedsOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		actual := make([]float64, n)
		pred := make([]float64, n)
		for i := range actual {
			actual[i] = rng.NormFloat64() * 10
			pred[i] = rng.NormFloat64() * 10
		}
		r := R2(actual, pred)
		return r <= 1.0+1e-12 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOLSMinimisesRMSEProperty(t *testing.T) {
	// The fitted model's RMSE must never exceed that of a perturbed model.
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 20; iter++ {
		n := 20
		feats := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			feats[i] = []float64{rng.Float64(), rng.Float64(), 1}
			y[i] = 3*feats[i][0] - feats[i][1] + 0.5 + rng.NormFloat64()*0.1
		}
		m, err := Fit(feats, y)
		if err != nil {
			t.Fatal(err)
		}
		base := RMSE(y, m.PredictAll(feats))
		for trial := 0; trial < 5; trial++ {
			pert := &Model{Coef: append([]float64(nil), m.Coef...)}
			pert.Coef[rng.Intn(len(pert.Coef))] += rng.NormFloat64() * 0.05
			if RMSE(y, pert.PredictAll(feats)) < base-1e-12 {
				t.Fatalf("iter %d: perturbed model beat OLS fit", iter)
			}
		}
	}
}
