// Package streamstat is the deterministic stats kernel under
// internal/driftwatch: Welford online moments and a Page-Hinkley change
// detector over residual streams.
//
// The package is pure computation over its inputs: no clocks, no
// goroutines, no maps — it is declared `deterministic` in lint.config,
// so the same input stream always yields bit-identical moments and
// detection points. Concurrency, telemetry and wall-clock feeding live
// one level up, in internal/driftwatch.
//
// Every method is nil-safe: a nil *Welford or *PageHinkley is a true
// no-op, so disabled monitoring costs nothing on hot paths.
package streamstat

import "math"

// Welford accumulates online mean and variance (Welford's algorithm),
// numerically stable over arbitrarily long residual streams. The zero
// value is ready; a nil *Welford ignores Add and reports zeros.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the moments. NaN and ±Inf are ignored:
// one poisoned residual must not contaminate the lifetime statistics.
func (w *Welford) Add(x float64) {
	if w == nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations (0 on nil).
func (w *Welford) N() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Mean returns the running mean (0 on nil or empty).
func (w *Welford) Mean() float64 {
	if w == nil {
		return 0
	}
	return w.mean
}

// Var returns the population variance (0 below two observations).
func (w *Welford) Var() float64 {
	if w == nil || w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 {
	if w == nil {
		return 0
	}
	return math.Sqrt(w.Var())
}

// PHConfig parameterises a PageHinkley detector.
type PHConfig struct {
	// Delta is the magnitude tolerance δ: shifts smaller than δ per
	// sample never accumulate.
	Delta float64
	// Lambda is the detection threshold λ on the accumulated deviation.
	Lambda float64
	// Warmup is the number of samples consumed before testing begins, so
	// the running mean settles first.
	Warmup int
}

// PageHinkley is the classic Page-Hinkley test for an upward shift in a
// residual stream: it accumulates deviations of each sample from the
// running mean beyond a tolerance δ and fires when the accumulation
// rises above its historical minimum by more than λ. Upward is the
// failure mode that matters — a target that got *slower* than predicted
// (stragglers, contention, thermal throttling) — so speedups never
// fire. The running mean self-adapts, so a *constant* prediction bias
// (simulated coefficients vs a real host) is absorbed and only genuine
// shifts fire. A nil *PageHinkley ignores Add.
type PageHinkley struct {
	cfg PHConfig

	n      int
	mean   float64
	mInc   float64 // cumulative (x − mean − δ)
	minInc float64
}

// NewPageHinkley returns a detector with the given configuration.
func NewPageHinkley(cfg PHConfig) *PageHinkley {
	return &PageHinkley{cfg: cfg}
}

// N returns the number of samples since the last reset (0 on nil).
func (d *PageHinkley) N() int {
	if d == nil {
		return 0
	}
	return d.n
}

// Warmup returns the configured warmup length (0 on nil).
func (d *PageHinkley) Warmup() int {
	if d == nil {
		return 0
	}
	return d.cfg.Warmup
}

// Reset clears the detector's state (mean and accumulations), keeping
// its configuration. Called automatically after a detection so each
// fired event represents one distinct shift.
func (d *PageHinkley) Reset() {
	if d == nil {
		return
	}
	d.n, d.mean = 0, 0
	d.mInc, d.minInc = 0, 0
}

// Add feeds one residual and reports whether a shift was detected. On
// detection the detector resets itself. Non-finite samples are ignored.
func (d *PageHinkley) Add(x float64) bool {
	if d == nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.mInc += x - d.mean - d.cfg.Delta
	if d.mInc < d.minInc {
		d.minInc = d.mInc
	}
	if d.n <= d.cfg.Warmup {
		return false
	}
	fired := d.mInc-d.minInc > d.cfg.Lambda
	if fired {
		d.Reset()
	}
	return fired
}
