//go:build race

package engine

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// share of what is put back: allocation counts mean nothing there.
const raceEnabled = true
