//go:build !race

package lockset

const raceDetectorEnabled = false
