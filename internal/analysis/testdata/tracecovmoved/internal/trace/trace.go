// Package trace is a minimal stand-in for the repository's flight
// recorder, just enough surface for the trace-coverage fixture.
package trace

// Buffer records trace events.
type Buffer struct{}

// Record appends one event.
func (b *Buffer) Record(cpu int, tsc uint64, kind, format string, args ...any) {}
