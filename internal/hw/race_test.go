//go:build race

package hw

// raceDetectorEnabled reports whether this test binary was built with
// -race. The allocation-count tests skip under the race detector: its
// instrumentation allocates on its own.
const raceDetectorEnabled = true
