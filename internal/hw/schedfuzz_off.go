//go:build !schedfuzz

package hw

// schedPoint is a hand-off point that the schedfuzz build perturbs
// (schedfuzz.go). Default builds compile it to nothing.
func schedPoint() {}
