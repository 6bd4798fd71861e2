package runtimeprof

import (
	"testing"

	"convmeter/internal/testrace"
)

// A disabled (nil) sampler must cost zero allocations.
func TestNilSamplerZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)
	var s *Sampler
	cases := map[string]func(){
		"Sample": func() { s.Sample() },
		"Sync":   func() { s.Sync() },
	}
	for name, fn := range cases {
		if got := testing.AllocsPerRun(200, fn); got != 0 {
			t.Errorf("nil Sampler %s allocates %.0f/op, want 0", name, got)
		}
	}
}
