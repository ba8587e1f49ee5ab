//go:build !race

package hw

// raceDetectorEnabled reports whether this test binary was built with
// -race; see race_test.go.
const raceDetectorEnabled = false
