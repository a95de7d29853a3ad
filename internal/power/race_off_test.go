//go:build !race

package power

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the instrumentation
// itself allocates.
const raceEnabled = false
