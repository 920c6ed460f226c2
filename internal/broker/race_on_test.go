//go:build race

package broker

// raceEnabled lets allocation-count tests skip under the race detector,
// whose sync.Pool drops puts at random.
const raceEnabled = true
