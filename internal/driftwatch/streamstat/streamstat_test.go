package streamstat

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesClosedForm(t *testing.T) {
	xs := []float64{1.5, 2.25, -0.5, 4, 4, 0.125, 3.75}
	var w Welford
	for _, x := range xs {
		w.Add(x)
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
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("Mean = %g, want %g", w.Mean(), mean)
	}
	if math.Abs(w.Var()-wantVar) > 1e-12 {
		t.Errorf("Var = %g, want %g", w.Var(), wantVar)
	}
	if math.Abs(w.Std()-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Std = %g, want %g", w.Std(), math.Sqrt(wantVar))
	}
}

func TestWelfordIgnoresNonFinite(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(math.NaN())
	w.Add(math.Inf(1))
	w.Add(3)
	if w.N() != 2 || math.Abs(w.Mean()-2) > 1e-15 {
		t.Errorf("N=%d Mean=%g after non-finite adds, want 2 / 2", w.N(), w.Mean())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var w *Welford
	w.Add(1)
	if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("nil Welford is not a no-op")
	}
	var ph *PageHinkley
	if ph.Add(100) || ph.N() != 0 {
		t.Error("nil PageHinkley is not a no-op")
	}
	ph.Reset()
}

// TestPageHinkleySilentOnStationaryNoise: zero-mean noise around a
// constant level must never fire — the running mean absorbs the level
// and δ absorbs the noise.
func TestPageHinkleySilentOnStationaryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	for i := 0; i < 2000; i++ {
		x := 0.25 + 0.1*rng.NormFloat64()
		if d.Add(x) {
			t.Fatalf("fired on stationary noise at sample %d", i)
		}
	}
}

// TestPageHinkleyFiresOnUpwardShift: a sustained upward level shift
// well beyond δ must fire within a few samples, then the detector
// resets and can fire again on the next shift.
func TestPageHinkleyFiresOnUpwardShift(t *testing.T) {
	d := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	for i := 0; i < 20; i++ {
		if d.Add(0.1) {
			t.Fatalf("fired on the flat prefix at sample %d", i)
		}
	}
	fired := -1
	for i := 0; i < 10; i++ {
		if d.Add(10) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("never fired on a 100x upward shift")
	}
	if d.N() != 0 {
		t.Errorf("detector did not reset after firing: N = %d", d.N())
	}
	// After the reset the new level is the baseline; it must re-arm and
	// detect a second, later shift.
	for i := 0; i < 20; i++ {
		if d.Add(10) && d.N() != 0 {
			t.Fatal("inconsistent reset state")
		}
	}
}

// TestPageHinkleyDirection: the detector tests upward shifts only, so a
// speedup must never fire.
func TestPageHinkleyDirection(t *testing.T) {
	d := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	for i := 0; i < 20; i++ {
		if d.Add(10) {
			t.Fatalf("fired on the flat prefix at sample %d", i)
		}
	}
	for i := 0; i < 10; i++ {
		if d.Add(0.1) {
			t.Fatalf("fired on a downward shift at sample %d", i)
		}
	}
}

func TestPageHinkleyWarmupSuppresses(t *testing.T) {
	d := NewPageHinkley(PHConfig{Delta: 0.01, Lambda: 0.1, Warmup: 50})
	for i := 0; i < 50; i++ {
		if d.Add(float64(i)) {
			t.Fatalf("fired inside warmup at sample %d", i)
		}
	}
}
