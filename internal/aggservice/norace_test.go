//go:build !race

package aggservice

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates.
const raceEnabled = false
