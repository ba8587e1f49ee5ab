// Package hobbes simulates the Hobbes OS/R master control process: the
// node-wide coordinator for enclave lifecycle, cross-enclave resource
// sharing, application composition, and the resource-management event bus
// that the Covirt controller module hooks into.
package hobbes

import (
	"fmt"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/trace"
	"covirt/internal/xemem"
)

// EventKind classifies resource-management events on the Hobbes bus.
type EventKind int

// Event kinds. Pre events fire before the affected enclave can observe the
// new resource (protection layers map first); Post events fire after the
// enclave has relinquished a resource (protection layers unmap and flush,
// then the operation completes).
const (
	EvEnclaveCreated EventKind = iota
	EvEnclaveBootPre
	EvEnclaveBooted
	EvEnclaveCrashed
	EvEnclaveDestroyed
	EvMemAddPre
	EvMemRemovePost
	EvCPUAddPre
	EvCPURemovePost
	EvXememAttachPre
	EvXememDetachPost
	EvIPIGrant
	EvIPIRevoke
	// Supervision lifecycle (emitted by internal/supervisor): a watchdog
	// hang verdict, a restart attempt beginning, a successful re-admission,
	// and the terminal escalation when the restart budget is exhausted.
	EvEnclaveHung
	EvEnclaveRestarting
	EvEnclaveRecovered
	EvEnclaveQuarantined
	// EvCapRevoked announces that a capability died: Cap names the key,
	// and for memory/XEMEM revocations Extents carries the withdrawn
	// frames so protection layers can unmap the holder's context. The
	// supervisor observes these to audit revocation storms.
	EvCapRevoked
	// EvIngestFlush closes any shootdown epoch a protection layer left
	// open while coalescing a batch of resource events: it carries no
	// resource of its own, only the instruction "flush everything you have
	// deferred for this enclave now". EmitBatch sends one automatically
	// when a batch ends early, so a mid-batch error can never strand
	// unmapped-but-unflushed translations.
	EvIngestFlush
)

// String names the event kind.
func (k EventKind) String() string {
	names := []string{
		"enclave-created", "enclave-boot-pre", "enclave-booted",
		"enclave-crashed", "enclave-destroyed", "mem-add-pre",
		"mem-remove-post", "cpu-add-pre", "cpu-remove-post",
		"xemem-attach-pre", "xemem-detach-post",
		"ipi-grant", "ipi-revoke",
		"enclave-hung", "enclave-restarting",
		"enclave-recovered", "enclave-quarantined",
		"cap-revoked", "ingest-flush",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one resource-management notification.
type Event struct {
	Kind     EventKind
	Enclave  *pisces.Enclave // affected enclave (consumer for XEMEM events)
	Extents  []hw.Extent
	SegID    uint64
	DestCore int   // IPI grant/revoke: machine core id
	Core     int   // CPU add/remove: machine core id
	Vector   uint8 // IPI grant/revoke
	Reason   string
	// Cap names the capability authorizing (grant events) or killed by
	// (EvCapRevoked) the crossing.
	Cap authority.Cap
	// Cost accumulates management-plane cycles spent by handlers; callers
	// on synchronous paths (longcalls) charge it to the waiting guest.
	Cost uint64
	// MoreInBatch marks an event as a non-final member of a batch: more
	// events for the same operation follow immediately, so protection
	// layers may defer their TLB shootdown and coalesce it into the
	// batch's final event.
	MoreInBatch bool
}

// Handler processes an event. An error from a Pre handler aborts the
// triggering operation.
type Handler func(ev *Event) error

// Bus is the synchronous event bus.
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
// enclave so no unmapped-but-unflushed translation survives the call.
// Returns the first handler error, after the flush sweep.
func (b *Bus) EmitBatch(evs []*Event) error {
	open := make(map[*pisces.Enclave]bool)
	var firstErr error
	for i, ev := range evs {
		ev.MoreInBatch = i < len(evs)-1
		if err := b.Emit(ev); err != nil {
			if ev.MoreInBatch && ev.Enclave != nil {
				open[ev.Enclave] = true
			}
			firstErr = err
			break
		}
		if ev.Enclave != nil {
			if ev.MoreInBatch {
				open[ev.Enclave] = true
			} else {
				delete(open, ev.Enclave)
			}
		}
	}
	for enc := range open {
		if err := b.Emit(&Event{Kind: EvIngestFlush, Enclave: enc}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Master is the Hobbes master control process.
type Master struct {
	FW   *pisces.Framework
	Reg  *xemem.Registry
	Bus  *Bus
	Auth *authority.Table

	// rootIPI is the host's root IPI capability; every vector grant is
	// delegated from it.
	rootIPI authority.Cap

	//covirt:guards ipiGrant
	mu       sync.Mutex
	ipiGrant map[int]map[ipiKey]authority.Cap // enclave id -> granted (core,vector) -> key
}

type ipiKey struct {
	dest   int
	vector uint8
}

// NewMaster builds the master control process over a Pisces framework and
// bridges the framework's events onto the Hobbes bus.
func NewMaster(fw *pisces.Framework) *Master {
	m := &Master{
		FW:       fw,
		Reg:      xemem.NewRegistry(fw.Auth),
		Bus:      &Bus{},
		Auth:     fw.Auth,
		ipiGrant: make(map[int]map[ipiKey]authority.Cap),
	}
	m.rootIPI = m.Auth.Mint(0, authority.KindIPI, authority.RightsAll,
		authority.WildScope(), "root-ipi")
	fw.Subscribe(func(ev *pisces.Event) error { return m.onFrameworkEvent(ev) })
	return m
}

// frameworkKinds maps each Pisces event kind to its Hobbes kind.
var frameworkKinds = [...]EventKind{
	pisces.EvCreated:       EvEnclaveCreated,
	pisces.EvBootPre:       EvEnclaveBootPre,
	pisces.EvBooted:        EvEnclaveBooted,
	pisces.EvMemAddPre:     EvMemAddPre,
	pisces.EvMemRemovePost: EvMemRemovePost,
	pisces.EvCPUAddPre:     EvCPUAddPre,
	pisces.EvCPURemovePost: EvCPURemovePost,
	pisces.EvCrashed:       EvEnclaveCrashed,
	pisces.EvDestroyed:     EvEnclaveDestroyed,
}

// onFrameworkEvent adapts Pisces lifecycle events to the Hobbes bus and
// performs master-control cleanup duties.
func (m *Master) onFrameworkEvent(ev *pisces.Event) error {
	hev := &Event{Kind: frameworkKinds[ev.Kind], Enclave: ev.Enclave, Core: ev.Core, Reason: ev.Reason, Cap: ev.Cap, MoreInBatch: ev.MoreInBatch}
	if ev.Extent.Size > 0 {
		hev.Extents = []hw.Extent{ev.Extent}
	}
	if ev.Kind == pisces.EvCrashed || ev.Kind == pisces.EvDestroyed {
		// Reclaim the dead enclave's shared-memory footprint and notify
		// dependents (here: just record state; the Covirt controller
		// subscribes and unmaps consumers' protection contexts).
		owned, _ := m.Reg.CleanupEnclave(ev.Enclave.ID)
		for _, seg := range owned {
			hev.SegID = seg.ID
		}
		m.dropGrants(ev.Enclave.ID)
	}
	return m.Bus.Emit(hev)
}

// dropGrants forgets all IPI grants of a dead enclave.
func (m *Master) dropGrants(encID int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.ipiGrant, encID)
}

// GrantIPI allows enclave enc to send vector to machine core dest —
// Hobbes' globally-allocatable per-core IPI vector resource. The grant is
// a capability delegated from the host's root IPI key; the Covirt filter
// stores it and re-checks its generation on every send.
func (m *Master) GrantIPI(enc *pisces.Enclave, dest int, vector uint8) error {
	cap, err := m.Auth.Delegate(m.rootIPI, enc.ID, authority.RightSend,
		authority.IPIScope(dest, vector), fmt.Sprintf("%s/ipi", enc.Name))
	if err != nil {
		return err
	}
	m.addGrant(enc.ID, ipiKey{dest, vector}, cap)
	return m.Bus.Emit(&Event{Kind: EvIPIGrant, Enclave: enc, DestCore: dest, Vector: vector, Cap: cap})
}

// addGrant records a grant in the per-enclave whitelist under the lock
// (the bus emit must run outside it: handlers call back into the master).
func (m *Master) addGrant(encID int, k ipiKey, cap authority.Cap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.ipiGrant[encID]
	if g == nil {
		g = make(map[ipiKey]authority.Cap)
		m.ipiGrant[encID] = g
	}
	g[k] = cap
}

// RevokeIPI withdraws a grant, killing its key.
func (m *Master) RevokeIPI(enc *pisces.Enclave, dest int, vector uint8) error {
	cap, ok := m.removeGrant(enc.ID, ipiKey{dest, vector})
	if ok && m.Auth.Alive(cap) {
		_, _ = m.Auth.Revoke(cap)
	}
	return m.Bus.Emit(&Event{Kind: EvIPIRevoke, Enclave: enc, DestCore: dest, Vector: vector, Cap: cap})
}

// removeGrant deletes one grant under the lock, returning its key.
func (m *Master) removeGrant(encID int, k ipiKey) (authority.Cap, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.ipiGrant[encID]
	if g == nil {
		return authority.Cap{}, false
	}
	cap, ok := g[k]
	delete(g, k)
	return cap, ok
}

// IPIGranted reports whether enc may send vector to dest (and the grant's
// key is still alive).
func (m *Master) IPIGranted(encID, dest int, vector uint8) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	cap, ok := m.ipiGrant[encID][ipiKey{dest, vector}]
	return ok && m.Auth.Alive(cap)
}

// RevokeCap is the central revocation driver: it kills c — and,
// recursively, everything delegated from it — then propagates each
// withdrawal to the protection structures that honored the key:
//
//   - memory keys: an EvCapRevoked event carrying the withdrawn extent;
//     the Covirt controller unmaps the holder's EPT range and runs the
//     command-queue TLB shootdown, so the holder's very next touch of the
//     withdrawn memory is a contained EPT violation.
//   - XEMEM owner keys: the segment is force-dropped from the registry;
//     the recursive revocation already killed every consumer's attach key,
//     and each one propagates as its own EvCapRevoked unmap.
//   - IPI keys: the grant leaves the master's whitelist; the filter's
//     per-send generation check makes the key dead instantly either way.
//   - I/O keys: EvCapRevoked; the controller drops the port range.
//
// Every kill emits EvCapRevoked on the bus so the supervisor can observe
// the storm's blast radius.
func (m *Master) RevokeCap(c authority.Cap) error {
	scope, ok := m.Auth.ScopeOf(c)
	if !ok {
		return fmt.Errorf("hobbes: revoke of dead or forged cap %d", c.ID)
	}
	// For an XEMEM key, capture the segment's extents before the registry
	// record disappears: the attach-key revocations below need the frame
	// list to unmap each consumer's context.
	var segExts []hw.Extent
	if c.Kind == authority.KindXemem {
		if seg, err := m.Reg.Lookup(scope.SegID); err == nil {
			segExts = append([]hw.Extent(nil), seg.Extents...)
			if seg.OwnerCap.ID == c.ID {
				m.Reg.ForceDrop(scope.SegID)
			} else {
				m.Reg.DropAttachment(scope.SegID, c.Holder)
			}
		}
	}
	revoked, err := m.Auth.Revoke(c)
	if err != nil {
		return err
	}
	evs := make([]*Event, 0, len(revoked))
	for _, rv := range revoked {
		ev := &Event{
			Kind:    EvCapRevoked,
			Enclave: m.FW.Enclave(rv.Cap.Holder),
			Cap:     rv.Cap,
			Reason:  fmt.Sprintf("cap %d revoked", rv.Cap.ID),
		}
		switch rv.Cap.Kind {
		case authority.KindMemory:
			ev.Extents = []hw.Extent{{Start: rv.Scope.Start, Size: rv.Scope.Size}}
		case authority.KindXemem:
			ev.SegID = rv.Scope.SegID
			// Attach keys (no remove right, unlike owner keys) withdraw
			// the segment's frames from the consumer's context.
			if rv.Cap.Rights&authority.RightRemove == 0 {
				ev.Extents = segExts
			}
		case authority.KindIPI:
			m.removeGrant(rv.Cap.Holder, ipiKey{rv.Scope.Dest, rv.Scope.Vector})
			ev.DestCore = rv.Scope.Dest
			ev.Vector = rv.Scope.Vector
		}
		evs = append(evs, ev)
	}
	// A recursive revocation is one administrative act: deliver it as a
	// batch so each affected holder eats one coalesced shootdown instead of
	// one per revoked key.
	return m.Bus.EmitBatch(evs)
}
