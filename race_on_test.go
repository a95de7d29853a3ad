//go:build race

package copack

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
