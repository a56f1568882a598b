//go:build race

package vertica

// raceDetector reports whether the tests run under the race detector.
const raceDetector = true
