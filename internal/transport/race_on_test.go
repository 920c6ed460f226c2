//go:build race

package transport

// raceEnabled lets allocation-count tests skip under the race detector,
// whose sync.Pool drops puts at random.
const raceEnabled = true
