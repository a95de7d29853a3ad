//go:build !race

package copack

// raceEnabled reports whether the race detector instruments this build. The
// dead-code gate, a static check, skips itself under -race.
const raceEnabled = false
