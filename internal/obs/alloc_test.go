package obs

import (
	"testing"

	"convmeter/internal/testrace"
)

// TestEnabledPathZeroAllocs pins the other half of the telemetry
// contract next to TestDisabledPathZeroAllocs: with a live handle, the
// one observe path (Counter.Add, which exec's per-kind kernel seconds
// take on every traced op) is a pure atomic update and allocates
// nothing per observation.
func TestEnabledPathZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	c := NewRegistry().Counter("convmeter_test_seconds")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(3e-3)
	}); n != 0 {
		t.Errorf("enabled telemetry allocates %.2f per op, want 0", n)
	}
}
