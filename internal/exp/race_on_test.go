//go:build race

package exp

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
