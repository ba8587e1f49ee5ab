package pisces

import (
	"fmt"
	"slices"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/trace"
)

// EventKind classifies the resource-management events on the node's bus:
// the framework's enclave lifecycle and resource crossings, and the
// crossings the Hobbes master control process adds (XEMEM attach/detach,
// IPI grants, capability revocation).
type EventKind int

// Event kinds. The Pre/Post distinction encodes Covirt's ordering rule:
// Pre events fire before the affected enclave can observe the new resource
// (protection layers map first); Post events fire after the enclave has
// relinquished a resource (protection layers unmap and flush, then the
// operation completes).
const (
	EvEnclaveCreated EventKind = iota
	EvEnclaveBootPre           // before any enclave core starts executing
	EvEnclaveBooted
	EvEnclaveCrashed
	EvEnclaveDestroyed
	EvMemAddPre     // extent allocated, enclave not yet notified
	EvMemRemovePost // enclave acked removal, host has not yet reclaimed
	EvCPUAddPre     // core allocated, enclave not yet notified
	EvCPURemovePost // enclave released the core, host has not yet reclaimed
	EvXememAttachPre
	EvXememDetachPost
	EvIPIGrant
	EvIPIRevoke
	// EvCapRevoked announces that a capability died: Cap names the key,
	// and for memory/XEMEM revocations Extents carries the withdrawn
	// frames so protection layers can unmap the holder's context. The
	// revocation experiment observes these to account a storm.
	EvCapRevoked
	// EvIngestFlush closes any shootdown epoch a protection layer left
	// open while coalescing a batch of resource events: it carries no
	// resource of its own, only the instruction "flush everything you have
	// deferred for this enclave now". Batched emitters send one when a
	// batch ends early, so a mid-batch error can never strand
	// unmapped-but-unflushed translations.
	EvIngestFlush
)

var eventKindNames = [...]string{
	"enclave-created", "enclave-boot-pre", "enclave-booted",
	"enclave-crashed", "enclave-destroyed", "mem-add-pre",
	"mem-remove-post", "cpu-add-pre", "cpu-remove-post",
	"xemem-attach-pre", "xemem-detach-post",
	"ipi-grant", "ipi-revoke",
	"cap-revoked", "ingest-flush",
}

// String names the event kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one resource-management notification.
type Event struct {
	Kind     EventKind
	Enclave  *Enclave // affected enclave (consumer for XEMEM events)
	Extents  []hw.Extent
	SegID    uint64
	DestCore int   // IPI grant/revoke: machine core id
	Core     int   // CPU add/remove: machine core id
	Vector   uint8 // IPI grant/revoke
	Reason   string
	// Cap names the capability authorizing (grant events) or killed by
	// (EvCapRevoked) the crossing. Protection layers verify it before
	// mapping.
	Cap authority.Cap
	// Cost accumulates management-plane cycles spent by handlers; callers
	// on synchronous paths (longcalls) charge it to the waiting guest.
	Cost uint64
	// MoreInBatch marks an event as a non-final member of a batch: more
	// events for the same operation follow immediately, so protection
	// layers may defer their TLB shootdown and coalesce it into the
	// batch's final event. Set only by the batch emit paths
	// (Bus.EmitBatch, Framework.RemoveMemoryBatch).
	MoreInBatch bool
}

// Handler processes an event. An error from a Pre handler aborts the
// triggering operation.
type Handler func(ev *Event) error

// Bus is the node's synchronous resource-event bus.
type Bus struct {
	mu       sync.Mutex //covirt:guards handlers
	handlers []Handler
	tracer   *trace.Buffer
}

// Subscribe appends h; handlers run in subscription order. The list is
// copy-on-write: Subscribe publishes a new slice and never writes into one
// it has published, so Emit runs the handlers without copying them.
func (b *Bus) Subscribe(h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers = append(b.handlers[:len(b.handlers):len(b.handlers)], h)
}

// SetTracer routes every emitted event into the flight recorder as an
// "ev:<kind>" record. A nil buffer disables bus tracing.
func (b *Bus) SetTracer(t *trace.Buffer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tracer = t
}

// snapshot returns the published handler list and the tracer, so Emit can
// run the handlers (which may Subscribe re-entrantly) without holding the
// lock.
func (b *Bus) snapshot() ([]Handler, *trace.Buffer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.handlers, b.tracer
}

// Emit delivers ev to all handlers, stopping at the first error.
func (b *Bus) Emit(ev *Event) error {
	handlers, tracer := b.snapshot()
	if tracer != nil {
		encID := -1
		if ev.Enclave != nil {
			encID = ev.Enclave.ID
		}
		tracer.Record(-1, 0, "ev:"+ev.Kind.String(), "enclave %d %s", encID, ev.Reason)
	}
	for _, h := range handlers {
		if err := h(ev); err != nil {
			return err
		}
	}
	return nil
}

// EmitBatch delivers evs as one batch: every event except the last is
// marked MoreInBatch so subscribers may defer per-event TLB shootdowns and
// coalesce them into the final event's epoch. The batch invariant is that
// every enclave that saw a deferred event sees a closing one: if the batch
// stops early (handler error), or if an enclave's last deferred event is
// not the batch's final event, EmitBatch emits an EvIngestFlush for that
// enclave, in the order the batch first named them, so no
// unmapped-but-unflushed translation survives the call. Returns the first
// handler error, after the flush sweep.
func (b *Bus) EmitBatch(evs []*Event) error {
	var open []*Enclave
	var firstErr error
	for i, ev := range evs {
		ev.MoreInBatch = i < len(evs)-1
		err := b.Emit(ev)
		if ev.MoreInBatch && ev.Enclave != nil && !slices.Contains(open, ev.Enclave) {
			open = append(open, ev.Enclave)
		}
		if err != nil {
			firstErr = err
			break
		}
		if !ev.MoreInBatch {
			if j := slices.Index(open, ev.Enclave); j >= 0 {
				open = slices.Delete(open, j, j+1)
			}
		}
	}
	for _, enc := range open {
		if err := b.Emit(&Event{Kind: EvIngestFlush, Enclave: enc}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
