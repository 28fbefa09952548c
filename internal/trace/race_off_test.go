//go:build !race

package trace_test

// raceEnabled reports whether the race detector is active; heap-delta
// bounds skip under it.
const raceEnabled = false
