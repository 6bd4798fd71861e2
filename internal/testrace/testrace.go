// Package testrace reports whether the binary was built with the race
// detector, so allocation-count assertions can skip themselves: the
// race runtime instruments memory operations and inflates
// testing.AllocsPerRun counts, making 0-allocs/op contracts
// unverifiable under -race. The race and non-race builds each compile
// exactly one of the two tagged files defining Enabled.
//
// Non-test code reads Enabled too (internal/simd runs its Go leaf under
// -race), so the package does not import testing: that would link the
// test framework into every binary that reduces a vector.
package testrace

// SkipIfRace skips t when the race detector is active. Call it at the
// top of every test that asserts exact allocation counts. t is a
// *testing.T or *testing.B, taken as the two methods used.
func SkipIfRace(t interface {
	Helper()
	Skip(args ...any)
}) {
	if Enabled {
		t.Helper()
		t.Skip("allocation counts are inflated under the race detector")
	}
}
