//go:build !race

package exp

// raceEnabled reports whether the race detector instruments this build.
// The restart-policy sweep is skipped under -race: instrumented, its 200
// cells take minutes.
const raceEnabled = false
