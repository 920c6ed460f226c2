//go:build race

package fleet

// raceEnabled lets allocation-count tests relax under the race detector,
// whose sync.Pool drops puts at random.
const raceEnabled = true
