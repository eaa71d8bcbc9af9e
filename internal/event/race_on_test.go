//go:build race

package event

// raceDetectorEnabled reports whether the test binary was built with -race,
// whose instrumentation can allocate where the plain build does not.
const raceDetectorEnabled = true
