//go:build !race

package core

// raceEnabled reports a build with the race detector, whose
// instrumentation slows the exhaustive kernel check about fivefold.
const raceEnabled = false
