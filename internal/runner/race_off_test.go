//go:build !race

package runner

// raceEnabled reports whether the race detector is active; heap-delta
// bounds skip under it (the CI race job runs this package).
const raceEnabled = false
