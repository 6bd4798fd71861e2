package driftwatch

import "math"

// welford accumulates online mean and variance (Welford's algorithm),
// numerically stable over arbitrarily long residual streams. The zero
// value is ready.
type welford struct {
	n    int
	mean float64
	m2   float64
}

// add folds one observation into the moments. NaN and ±Inf are ignored:
// one poisoned residual must not contaminate the lifetime statistics.
func (w *welford) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// variance returns the population variance (0 below two observations).
func (w *welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// std returns the population standard deviation.
func (w *welford) std() float64 {
	return math.Sqrt(w.variance())
}

// phConfig parameterises a pageHinkley detector.
type phConfig struct {
	// delta is the magnitude tolerance δ: shifts smaller than δ per
	// sample never accumulate.
	delta float64
	// lambda is the detection threshold λ on the accumulated deviation.
	lambda float64
	// warmup is the number of samples consumed before testing begins, so
	// the running mean settles first.
	warmup int
}

// pageHinkley is the classic Page-Hinkley test for an upward shift in a
// residual stream: it accumulates deviations of each sample from the
// running mean beyond a tolerance δ and fires when the accumulation
// rises above its historical minimum by more than λ. Upward is the
// failure mode that matters — a target that got *slower* than predicted
// (stragglers, contention, thermal throttling) — so speedups never
// fire. The running mean self-adapts, so a *constant* prediction bias
// (simulated coefficients vs a real host) is absorbed and only genuine
// shifts fire.
type pageHinkley struct {
	cfg phConfig

	n      int
	mean   float64
	mInc   float64 // cumulative (x − mean − δ)
	minInc float64
}

// reset clears the detector's state (mean and accumulations), keeping
// its configuration. add calls it after a detection so each fired event
// represents one distinct shift.
func (d *pageHinkley) reset() {
	d.n, d.mean = 0, 0
	d.mInc, d.minInc = 0, 0
}

// add feeds one residual and reports whether a shift was detected. On
// detection the detector resets itself. Non-finite samples are ignored.
func (d *pageHinkley) add(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	d.mInc += x - d.mean - d.cfg.delta
	if d.mInc < d.minInc {
		d.minInc = d.mInc
	}
	if d.n <= d.cfg.warmup {
		return false
	}
	fired := d.mInc-d.minInc > d.cfg.lambda
	if fired {
		d.reset()
	}
	return fired
}
