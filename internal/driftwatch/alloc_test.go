package driftwatch

import (
	"testing"

	"convmeter/internal/obs"
	"convmeter/internal/testrace"
)

// TestObserveZeroAllocs pins the Stream.Observe allocation contract: a
// steady-state observation — Welford fold, Page-Hinkley test and live
// telemetry — allocates nothing. Only a drift event (rare by
// construction) pays for its span. The feed here is drift-free so the
// hot path stays on the non-fired branch.
func TestObserveZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	m := New(obs.New())
	s := m.Stream("resnet50", "fwd")
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
