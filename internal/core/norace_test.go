//go:build !race

package core

// raceEnabled reports that the package's tests run under the race
// detector.
const raceEnabled = false
