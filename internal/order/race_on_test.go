//go:build race

package order

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
