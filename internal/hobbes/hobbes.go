// Package hobbes simulates the Hobbes OS/R master control process: the
// node-wide coordinator for enclave lifecycle, cross-enclave resource
// sharing and application composition. It publishes its IPI grants and
// capability revocations on the Pisces framework's event bus, which the
// Covirt controller module hooks into, and cleans up after dead enclaves
// as that bus's first handler.
package hobbes

import (
	"fmt"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/xemem"
)

// Event and the five kinds below name pisces' bus vocabulary under the
// names perfbench (a separate module) compiles against; nothing in this
// module uses them.
type Event = pisces.Event

// Bus-event kinds perfbench matches on.
const (
	EvMemAddPre       = pisces.EvMemAddPre
	EvMemRemovePost   = pisces.EvMemRemovePost
	EvXememAttachPre  = pisces.EvXememAttachPre
	EvXememDetachPost = pisces.EvXememDetachPost
	EvIngestFlush     = pisces.EvIngestFlush
)

// Master is the Hobbes master control process.
type Master struct {
	FW   *pisces.Framework
	Reg  *xemem.Registry
	Bus  *pisces.Bus // the framework's bus
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
// subscribes its crash/destroy cleanup as the bus's first handler, so every
// later handler finds a dead enclave's segments and IPI grants gone.
func NewMaster(fw *pisces.Framework) *Master {
	m := &Master{
		FW:       fw,
		Reg:      xemem.NewRegistry(fw.Auth),
		Bus:      fw.Bus,
		Auth:     fw.Auth,
		ipiGrant: make(map[int]map[ipiKey]authority.Cap),
	}
	m.rootIPI = m.Auth.Mint(0, authority.KindIPI, authority.RightsAll,
		authority.WildScope(), "root-ipi")
	m.Bus.Subscribe(m.cleanupDead)
	return m
}

// cleanupDead performs the master control process's cleanup duty for a
// crashed or destroyed enclave: its shared-memory footprint leaves the
// registry and its IPI grants are forgotten. The Covirt controller, which
// subscribes later, unmaps consumers' protection contexts.
func (m *Master) cleanupDead(ev *pisces.Event) error {
	if ev.Kind == pisces.EvEnclaveCrashed || ev.Kind == pisces.EvEnclaveDestroyed {
		m.Reg.CleanupEnclave(ev.Enclave.ID)
		m.dropGrants(ev.Enclave.ID)
	}
	return nil
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
	return m.Bus.Emit(&pisces.Event{Kind: pisces.EvIPIGrant, Enclave: enc, DestCore: dest, Vector: vector, Cap: cap})
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
	return m.Bus.Emit(&pisces.Event{Kind: pisces.EvIPIRevoke, Enclave: enc, DestCore: dest, Vector: vector, Cap: cap})
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
// Every kill emits EvCapRevoked on the bus, so a subscriber can observe
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
	evs := make([]*pisces.Event, 0, len(revoked))
	for _, rv := range revoked {
		ev := &pisces.Event{
			Kind:    pisces.EvCapRevoked,
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
