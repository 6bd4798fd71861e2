package streamstat

import (
	"testing"

	"convmeter/internal/testrace"
)

// TestStreamStatZeroAllocs pins the per-observation allocation contract
// of the stats kernel: Welford.Add and PageHinkley.Add run on every
// drift observation and must not touch the heap.
func TestStreamStatZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	var wf Welford
	ph := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		x := float64(i%16) * 0.001
		wf.Add(x)
		ph.Add(x)
		i++
	}); n != 0 {
		t.Errorf("streamstat observe path allocates %.2f/op, want 0", n)
	}
}
