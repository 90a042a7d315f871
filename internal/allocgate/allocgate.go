// Package allocgate is the shared helper of the tier-1 allocation gates:
// the tests that pin the pisa → core → aggservice → Worker hot path at its
// steady-state allocation count, so an allocation creeping back in fails
// `go test ./...` instead of eroding the end-to-end rate unnoticed.
package allocgate

import "testing"

// AtMost fails t if f averages more than max allocations per call once
// warm: f runs 16 times first, so scratch that grows on first use has
// grown. It skips under the race detector, whose instrumentation
// allocates.
func AtMost(t *testing.T, what string, max float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for i := 0; i < 16; i++ {
		f()
	}
	if got := testing.AllocsPerRun(200, f); got > max {
		t.Errorf("%s: %.2f allocs per run, want at most %g", what, got, max)
	}
}
