//go:build race

package harness_test

// raceDetectorEnabled reports whether this test binary was built with
// -race. The fig7 and fig8 goldens are skipped under the race detector
// (see golden_test.go): on a small CI host the instrumented runs would
// blow the per-package test timeout, and the uninstrumented full suite
// already covers them.
const raceDetectorEnabled = true
