package obs

import (
	"testing"

	"convmeter/internal/testrace"
)

// TestEnabledPathZeroAllocs pins the other half of the telemetry
// contract next to TestDisabledPathZeroAllocs: with live handles, the
// observe paths (Counter.Add, Counter.Inc, Gauge.Set, Gauge.Add,
// Histogram.Observe) are pure atomic updates and allocate nothing per
// observation.
func TestEnabledPathZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	o := New()
	c := o.Counter("convmeter_test_total", "alloc-contract counter")
	g := o.Gauge("convmeter_test_gauge", "alloc-contract gauge")
	h := o.Histogram("convmeter_test_seconds", "alloc-contract histogram", DefaultDurationBuckets())
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(-0.5)
		h.Observe(3e-3)
	}); n != 0 {
		t.Errorf("enabled telemetry allocates %.2f per op, want 0", n)
	}
}
