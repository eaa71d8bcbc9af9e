//go:build !race

package hybrid_test

const raceDetectorEnabled = false
