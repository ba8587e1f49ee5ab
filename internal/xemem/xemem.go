// Package xemem simulates the XEMEM shared-memory system used by the
// Hobbes OS/R for all inter-enclave communication: named segments of
// physical memory exported by one OS/R instance and attachable by others,
// coordinated through a node-local name service.
//
// Consistent with the real system, XEMEM here deals in page-frame extent
// lists: exporting registers the frames backing a segment; attaching hands
// the consumer the frame list so it can map the memory into its own
// context. The management-plane transitions around attach and detach are
// the hook points the Covirt controller intercepts.
//
// Authority is capability-based: exporting requires a memory capability
// covering the frames (proof the exporter was granted that memory), each
// segment carries an owner capability, and every attachment is a
// capability delegated from it — so revoking the owner key recursively
// revokes every consumer's attach key, and a segment whose owner enclave
// has died (generation bumped by RevokeHolder) can never be attached
// again, even while its registry record lingers.
package xemem

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

// Well-known errors.
var (
	ErrNoSegment   = errors.New("xemem: no such segment")
	ErrNameTaken   = errors.New("xemem: name already registered")
	ErrNotAttached = errors.New("xemem: not attached")
	// ErrStaleOwner rejects attaches to a segment whose owner enclave's
	// authority has been revoked (crash, quarantine, manual revocation)
	// but whose registry record has not yet been reaped.
	ErrStaleOwner = errors.New("xemem: segment owner revoked")
	// ErrDenied rejects an operation whose presented capability fails
	// verification (forged, revoked, wrong holder, insufficient rights, or
	// out-of-scope extents).
	ErrDenied = errors.New("xemem: capability check failed")
)

// attachment is one consumer's hold on a segment: a reference count plus
// the attach capability delegated from the segment owner key.
type attachment struct {
	count int
	cap   authority.Cap
}

// Segment is one exported shared-memory region.
type Segment struct {
	ID       uint64
	NameHash uint64
	Owner    int // exporting enclave id (0 = host OS)
	Extents  []hw.Extent

	// OwnerCap is the segment's owner capability (kind xemem, scoped to
	// ID). Remove must present it; attach keys are delegated from it.
	OwnerCap authority.Cap

	attached map[int]*attachment // consumer enclave id -> attachment
	removed  bool
}

// Registry is the node-local XEMEM name service, hosted by the master
// control process.
type Registry struct {
	auth   *authority.Table
	mu     sync.Mutex
	byID   map[uint64]*Segment
	byName map[uint64]uint64
	nextID uint64
}

// NewRegistry returns an empty name service minting its keys from auth.
func NewRegistry(auth *authority.Table) *Registry {
	return &Registry{
		auth:   auth,
		byID:   make(map[uint64]*Segment),
		byName: make(map[uint64]uint64),
		nextID: 1,
	}
}

// Make exports extents under nameHash. The caller must present a memory
// capability covering every extent — proof the exporter actually holds the
// frames it is sharing — and receives a segment owner capability (held by
// the same enclave) in s.OwnerCap.
func (r *Registry) Make(nameHash uint64, owner authority.Cap, extents []hw.Extent) (*Segment, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("xemem: empty segment")
	}
	for _, x := range extents {
		if !r.auth.Covers(owner, owner.Holder, authority.KindMemory, authority.RightMap,
			authority.MemScope(x.Start, x.Size)) {
			return nil, fmt.Errorf("%w: extent %v not covered by cap %d", ErrDenied, x, owner.ID)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.byName[nameHash]; taken {
		return nil, ErrNameTaken
	}
	s := &Segment{
		ID:       r.nextID,
		NameHash: nameHash,
		Owner:    owner.Holder,
		Extents:  append([]hw.Extent(nil), extents...),
		attached: make(map[int]*attachment),
	}
	s.OwnerCap = r.auth.Mint(owner.Holder, authority.KindXemem,
		authority.RightAttach|authority.RightRemove|authority.RightDelegate,
		authority.XememScope(s.ID), "owner")
	r.nextID++
	r.byID[s.ID] = s
	r.byName[nameHash] = s.ID
	return s, nil
}

// Get resolves a name to a segid.
func (r *Registry) Get(nameHash uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.byName[nameHash]
	if !ok {
		return 0, ErrNoSegment
	}
	return id, nil
}

// Lookup returns the segment with the given id.
func (r *Registry) Lookup(segid uint64) (*Segment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return nil, ErrNoSegment
	}
	return s, nil
}

// Attach records consumer's attachment, returning the frame extents to
// transmit and the consumer's attach capability (delegated from the
// segment owner key, so an owner-key revocation storm reaches every
// consumer). Attaches to a segment whose owner's authority has been
// revoked — a crashed or quarantined exporter whose record still lingers —
// fail with ErrStaleOwner.
func (r *Registry) Attach(segid uint64, consumer int) ([]hw.Extent, authority.Cap, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok || s.removed {
		return nil, authority.Cap{}, ErrNoSegment
	}
	if !r.auth.Alive(s.OwnerCap) {
		return nil, authority.Cap{}, ErrStaleOwner
	}
	a := s.attached[consumer]
	if a == nil {
		cap, err := r.auth.Delegate(s.OwnerCap, consumer, authority.RightAttach,
			authority.XememScope(s.ID), "attach")
		if err != nil {
			return nil, authority.Cap{}, fmt.Errorf("%w: %v", ErrDenied, err)
		}
		a = &attachment{cap: cap}
		s.attached[consumer] = a
	}
	a.count++
	return append([]hw.Extent(nil), s.Extents...), a.cap, nil
}

// DetachStart begins a detach: it returns the extents the consumer must
// unmap but keeps the attachment recorded until DetachDone (the window the
// Covirt ordering rules are about).
func (r *Registry) DetachStart(segid uint64, consumer int) ([]hw.Extent, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return nil, ErrNoSegment
	}
	if a := s.attached[consumer]; a == nil || a.count == 0 {
		return nil, ErrNotAttached
	}
	return append([]hw.Extent(nil), s.Extents...), nil
}

// DetachDone completes a detach after the consumer has relinquished its
// mappings. The final detach revokes the consumer's attach capability.
func (r *Registry) DetachDone(segid uint64, consumer int) ([]hw.Extent, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return nil, ErrNoSegment
	}
	a := s.attached[consumer]
	if a == nil || a.count == 0 {
		return nil, ErrNotAttached
	}
	a.count--
	if a.count == 0 {
		if r.auth.Alive(a.cap) {
			_, _ = r.auth.Revoke(a.cap)
		}
		delete(s.attached, consumer)
	}
	exts := append([]hw.Extent(nil), s.Extents...)
	r.reapLocked(s)
	return exts, nil
}

// reapLocked drops a removed segment once its last attachment is gone,
// revoking the owner key with it.
func (r *Registry) reapLocked(s *Segment) {
	if s.removed && len(s.attached) == 0 {
		if r.auth.Alive(s.OwnerCap) {
			_, _ = r.auth.Revoke(s.OwnerCap)
		}
		delete(r.byID, s.ID)
		delete(r.byName, s.NameHash)
	}
}

// Remove unregisters a segment; the caller must present the segment's
// owner capability. If consumers remain attached the segment lingers
// (invisible to Get) until the last detach.
func (r *Registry) Remove(segid uint64, owner authority.Cap) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return ErrNoSegment
	}
	if owner.ID != s.OwnerCap.ID ||
		!r.auth.Verify(owner, owner.Holder, authority.KindXemem, authority.RightRemove) {
		return fmt.Errorf("%w: segment %d not removable with cap %d", ErrDenied, segid, owner.ID)
	}
	s.removed = true
	delete(r.byName, s.NameHash)
	r.reapLocked(s)
	return nil
}

// OwnerCapOf resolves the owner capability of the segment owned by holder,
// for host services acting on a guest's behalf (the guest names a segid
// over the wire; the host resolves the backing key and verifies the caller
// is its holder).
func (r *Registry) OwnerCapOf(segid uint64, holder int) (authority.Cap, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return authority.Cap{}, ErrNoSegment
	}
	if s.Owner != holder {
		return authority.Cap{}, fmt.Errorf("%w: segment %d owned by %d, not %d",
			ErrDenied, segid, s.Owner, holder)
	}
	return s.OwnerCap, nil
}

// Attachments returns the consumers currently attached to segid.
func (r *Registry) Attachments(segid uint64) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(s.attached))
	for c := range s.attached {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// ForceDrop removes a segment and all its attachments immediately — the
// revocation-storm path, called by the master after the owner key (and,
// recursively, every attach key) has been revoked. It returns the frame
// extents and the consumers that were attached (ascending), so protection
// layers can unmap each consumer's context.
func (r *Registry) ForceDrop(segid uint64) (exts []hw.Extent, consumers []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return nil, nil
	}
	for c := range s.attached {
		consumers = append(consumers, c)
	}
	sort.Ints(consumers)
	exts = append([]hw.Extent(nil), s.Extents...)
	delete(r.byID, s.ID)
	delete(r.byName, s.NameHash)
	return exts, consumers
}

// DropAttachment removes one consumer's attachment record immediately —
// the revocation path for a single attach key (its capability is revoked
// by the caller; this only reconciles the registry's bookkeeping).
func (r *Registry) DropAttachment(segid uint64, consumer int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[segid]
	if !ok {
		return
	}
	if s.attached[consumer] != nil {
		delete(s.attached, consumer)
		r.reapLocked(s)
	}
}

// CleanupEnclave drops all state belonging to a crashed/destroyed enclave:
// segments it owned and attachments it held. It returns the segments that
// were owned by the enclave (so dependents can be notified) and the extent
// lists of segments it was attached to (so protection layers can unmap).
// The capability table's RevokeHolder handles the keys themselves.
func (r *Registry) CleanupEnclave(enclave int) (owned []*Segment, attachedExts []hw.Extent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, s := range r.byID {
		if s.Owner == enclave {
			owned = append(owned, s)
			delete(r.byID, id)
			delete(r.byName, s.NameHash)
			continue
		}
		if a := s.attached[enclave]; a != nil && a.count > 0 {
			attachedExts = append(attachedExts, s.Extents...)
			delete(s.attached, enclave)
			r.reapLocked(s)
		}
	}
	return owned, attachedExts
}

// Count returns the number of live segments.
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
