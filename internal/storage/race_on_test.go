//go:build race

package storage

// raceDetector reports whether the tests run under the race detector.
const raceDetector = true
