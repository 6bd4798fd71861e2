package driftwatch

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesClosedForm(t *testing.T) {
	xs := []float64{1.5, 2.25, -0.5, 4, 4, 0.125, 3.75}
	var w welford
	for _, x := range xs {
		w.add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varSum float64
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	wantVar := varSum / float64(len(xs))
	if w.n != len(xs) {
		t.Fatalf("N = %d, want %d", w.n, len(xs))
	}
	if math.Abs(w.mean-mean) > 1e-12 {
		t.Errorf("Mean = %g, want %g", w.mean, mean)
	}
	if math.Abs(w.variance()-wantVar) > 1e-12 {
		t.Errorf("Var = %g, want %g", w.variance(), wantVar)
	}
	if math.Abs(w.std()-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Std = %g, want %g", w.std(), math.Sqrt(wantVar))
	}
}

func TestWelfordIgnoresNonFinite(t *testing.T) {
	var w welford
	w.add(1)
	w.add(math.NaN())
	w.add(math.Inf(1))
	w.add(3)
	if w.n != 2 || math.Abs(w.mean-2) > 1e-15 {
		t.Errorf("N=%d Mean=%g after non-finite adds, want 2 / 2", w.n, w.mean)
	}
}

// TestPageHinkleySilentOnStationaryNoise: zero-mean noise around a
// constant level must never fire — the running mean absorbs the level
// and δ absorbs the noise.
func TestPageHinkleySilentOnStationaryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := &pageHinkley{cfg: phConfig{delta: 0.5, lambda: 8, warmup: 3}}
	for i := 0; i < 2000; i++ {
		x := 0.25 + 0.1*rng.NormFloat64()
		if d.add(x) {
			t.Fatalf("fired on stationary noise at sample %d", i)
		}
	}
}

// TestPageHinkleyFiresOnUpwardShift: a sustained upward level shift
// well beyond δ must fire within a few samples, then the detector
// resets and can fire again on the next shift.
func TestPageHinkleyFiresOnUpwardShift(t *testing.T) {
	d := &pageHinkley{cfg: phConfig{delta: 0.5, lambda: 8, warmup: 3}}
	for i := 0; i < 20; i++ {
		if d.add(0.1) {
			t.Fatalf("fired on the flat prefix at sample %d", i)
		}
	}
	fired := -1
	for i := 0; i < 10; i++ {
		if d.add(10) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("never fired on a 100x upward shift")
	}
	if d.n != 0 {
		t.Errorf("detector did not reset after firing: N = %d", d.n)
	}
	// After the reset the new level is the baseline; it must re-arm and
	// detect a second, later shift.
	for i := 0; i < 20; i++ {
		if d.add(10) && d.n != 0 {
			t.Fatal("inconsistent reset state")
		}
	}
}

// TestPageHinkleyDirection: the detector tests upward shifts only, so a
// speedup must never fire.
func TestPageHinkleyDirection(t *testing.T) {
	d := &pageHinkley{cfg: phConfig{delta: 0.5, lambda: 8, warmup: 3}}
	for i := 0; i < 20; i++ {
		if d.add(10) {
			t.Fatalf("fired on the flat prefix at sample %d", i)
		}
	}
	for i := 0; i < 10; i++ {
		if d.add(0.1) {
			t.Fatalf("fired on a downward shift at sample %d", i)
		}
	}
}

func TestPageHinkleyWarmupSuppresses(t *testing.T) {
	d := &pageHinkley{cfg: phConfig{delta: 0.01, lambda: 0.1, warmup: 50}}
	for i := 0; i < 50; i++ {
		if d.add(float64(i)) {
			t.Fatalf("fired inside warmup at sample %d", i)
		}
	}
}
