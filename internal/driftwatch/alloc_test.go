package driftwatch

import (
	"testing"

	"convmeter/internal/testrace"
)

// TestObserveZeroAllocs pins the Stream.Observe allocation contract: a
// steady-state observation — Welford fold and Page-Hinkley test —
// allocates nothing. The feed here is drift-free so the path stays on
// the non-fired branch.
func TestObserveZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	s := NewStream()
	i := 0
	observe := func() {
		// Small bounded jitter, far below the detector's delta.
		p := 1 + 1e-4*float64(i%8)
		s.Observe(p, p)
		i++
	}
	for j := 0; j < 256; j++ {
		observe() // past calibration and warmup, to steady state
	}
	if n := testing.AllocsPerRun(200, observe); n != 0 {
		t.Errorf("Stream.Observe allocates %.2f/op, want 0", n)
	}
}

// TestStreamStatZeroAllocs pins the per-observation allocation contract
// of the stats kernel: welford.add and pageHinkley.add run on every
// drift observation and must not touch the heap.
func TestStreamStatZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	var wf welford
	ph := pageHinkley{cfg: phConfig{delta: 0.5, lambda: 8, warmup: 3}}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		x := float64(i%16) * 0.001
		wf.add(x)
		ph.add(x)
		i++
	}); n != 0 {
		t.Errorf("stats observe path allocates %.2f/op, want 0", n)
	}
}
