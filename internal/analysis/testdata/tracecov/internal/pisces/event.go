// Package pisces: every EventKind constant is produced by non-test code,
// but no Record call is ever fed by EventKind.String() — the bus forgot
// its tracer hook — so trace-coverage must flag the enum itself.
package pisces

// EventKind classifies bus events.
type EventKind int // want: no trace emission site

// Event kinds.
const (
	EvCreated EventKind = iota
	EvDestroyed
)

// String names the event kind.
func (k EventKind) String() string {
	if k == EvCreated {
		return "created"
	}
	return "destroyed"
}

// Event is one notification.
type Event struct{ Kind EventKind }

// Created and Destroyed build the two event shapes.
func Created() *Event { return &Event{Kind: EvCreated} }

// Destroyed builds a teardown event.
func Destroyed() *Event { return &Event{Kind: EvDestroyed} }
