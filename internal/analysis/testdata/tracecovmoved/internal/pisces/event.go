// Package pisces renamed its bus-event enum to Kind. Every constant is
// used and the bus records Kind.String(), but the package trace-coverage
// lists no longer declares EventKind, so the check must report the move
// instead of going silent. The listed internal/vmx is absent from this
// module and is skipped.
package pisces // want: declares no EventKind

import "covirt/internal/trace"

// Kind classifies bus events.
type Kind int

// Event kinds.
const (
	KindCreated Kind = iota
	KindDestroyed
)

// String names the event kind.
func (k Kind) String() string {
	if k == KindCreated {
		return "created"
	}
	return "destroyed"
}

// Emit records a creation and a teardown.
func Emit(t *trace.Buffer) {
	for _, k := range []Kind{KindCreated, KindDestroyed} {
		t.Record(-1, 0, "ev:"+k.String(), "")
	}
}
