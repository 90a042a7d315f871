//go:build race

package allocgate

const raceEnabled = true
