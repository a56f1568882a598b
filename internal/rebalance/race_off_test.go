//go:build !race

package rebalance

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
