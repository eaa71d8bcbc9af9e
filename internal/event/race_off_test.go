//go:build !race

package event

const raceDetectorEnabled = false
