//go:build race

package dnn

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// Puts at random, so allocation pins cannot hold.
const raceEnabled = true
