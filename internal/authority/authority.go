// Package authority reifies resource ownership as explicit, unforgeable,
// revocable capability keys. Every grant/attach/assign crossing in the
// stack — memory regions handed to an enclave, IPI vectors whitelisted in
// the Covirt filter, I/O port ranges opened in the exit bitmap, XEMEM
// segments exported and attached — names a Cap minted from one Table per
// node, replacing the scattered per-subsystem "owner int" checks with a
// single auditable authority model (brittle-kernel Rule 1: no ambient
// authority).
//
// Unforgeability is table-authoritative: a Cap is just a value, but Verify
// compares every field against the table entry it claims to be, so a guest
// that fabricates or mutates a key fails the match. Revocation is a
// generation bump on the entry — O(1), recursive over delegation children
// — and verification on the hot path is a lock-free slice load plus one
// atomic generation compare, following the PR 5 cache discipline
// (immutable-after-publish entries behind an atomic pointer; mutations
// serialized under a mutex that readers never take).
package authority

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind classifies the resource a capability governs.
type Kind uint8

// The resource classes of the Covirt protection model.
const (
	KindMemory Kind = iota // a physical memory range
	KindIPI                // an (destination core, vector) IPI route
	KindIO                 // an I/O port range
	KindXemem              // a XEMEM segment
	KindPlace              // a fleet placement (gang of enclaves across nodes)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindIPI:
		return "ipi"
	case KindIO:
		return "io"
	case KindXemem:
		return "xemem"
	case KindPlace:
		return "place"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rights is the bitmask of operations a capability permits.
type Rights uint32

// Rights bits. Delegation may only narrow: a child's rights must be a
// subset of its parent's.
const (
	RightRead Rights = 1 << iota
	RightWrite
	RightMap      // install into a protection structure (EPT, IO bitmap)
	RightSend     // send the IPI vector
	RightAttach   // attach the XEMEM segment
	RightRemove   // remove/unexport the resource
	RightDelegate // mint narrowed children
)

// RightsAll is every right; root capabilities carry it.
const RightsAll = RightRead | RightWrite | RightMap | RightSend |
	RightAttach | RightRemove | RightDelegate

// String renders the rights as a compact flag string (e.g. "rwm---d").
func (r Rights) String() string {
	flags := []struct {
		bit Rights
		ch  byte
	}{
		{RightRead, 'r'}, {RightWrite, 'w'}, {RightMap, 'm'},
		{RightSend, 's'}, {RightAttach, 'a'}, {RightRemove, 'x'},
		{RightDelegate, 'd'},
	}
	b := make([]byte, len(flags))
	for i, f := range flags {
		if r&f.bit != 0 {
			b[i] = f.ch
		} else {
			b[i] = '-'
		}
	}
	return string(b)
}

// Scope bounds the resource a capability covers. The fields used depend on
// the Kind; delegation may only narrow the scope (child ⊆ parent).
type Scope struct {
	// KindMemory: the physical range [Start, Start+Size).
	Start, Size uint64
	// KindIPI: the exact (destination core, vector) route.
	Dest   int
	Vector uint8
	// KindIO: the inclusive port range [PortLo, PortHi].
	PortLo, PortHi uint16
	// KindXemem: the segment id.
	SegID uint64
	// KindPlace: the fleet placement (app) id.
	App uint64
	// Wild marks a root scope covering every resource of its kind.
	Wild bool
}

// MemScope bounds a physical memory range.
func MemScope(start, size uint64) Scope { return Scope{Start: start, Size: size} }

// IPIScope bounds one (destination core, vector) route.
func IPIScope(dest int, vector uint8) Scope { return Scope{Dest: dest, Vector: vector} }

// IOScope bounds an inclusive port range.
func IOScope(lo, hi uint16) Scope { return Scope{PortLo: lo, PortHi: hi} }

// XememScope bounds one segment.
func XememScope(segid uint64) Scope { return Scope{SegID: segid} }

// PlaceScope bounds one fleet placement.
func PlaceScope(app uint64) Scope { return Scope{App: app} }

// WildScope covers every resource of a kind; only roots carry it.
func WildScope() Scope { return Scope{Wild: true} }

// Contains reports whether s covers inner under kind semantics: range
// subset for memory and I/O, exact route for IPI, segment equality for
// XEMEM. A Wild scope covers everything (including another Wild).
func (s Scope) Contains(kind Kind, inner Scope) bool {
	if s.Wild {
		return true
	}
	if inner.Wild {
		return false
	}
	switch kind {
	case KindMemory:
		return inner.Start >= s.Start && inner.Start+inner.Size <= s.Start+s.Size
	case KindIPI:
		return inner.Dest == s.Dest && inner.Vector == s.Vector
	case KindIO:
		return inner.PortLo >= s.PortLo && inner.PortHi <= s.PortHi
	case KindXemem:
		return inner.SegID == s.SegID
	case KindPlace:
		return inner.App == s.App
	}
	return false
}

// String renders the scope for the given kind.
func (s Scope) String(kind Kind) string {
	if s.Wild {
		return "*"
	}
	switch kind {
	case KindMemory:
		return fmt.Sprintf("[%#x,%#x)", s.Start, s.Start+s.Size)
	case KindIPI:
		return fmt.Sprintf("core%d/vec%#x", s.Dest, s.Vector)
	case KindIO:
		return fmt.Sprintf("ports[%#x,%#x]", s.PortLo, s.PortHi)
	case KindXemem:
		return fmt.Sprintf("seg%d", s.SegID)
	case KindPlace:
		return fmt.Sprintf("app%d", s.App)
	}
	return "?"
}

// Cap is a capability key. It is a plain value — safe to copy across wire
// formats and payloads — whose authority derives entirely from matching
// its Table entry: a forged or stale Cap fails Verify. Gen is the entry
// generation at mint time; revocation bumps the entry generation so every
// outstanding copy dies at once.
type Cap struct {
	ID     uint64
	Gen    uint64
	Holder int // enclave id (0 = host)
	Kind   Kind
	Rights Rights
}

// Zero reports whether c is the zero (absent) capability.
func (c Cap) Zero() bool { return c.ID == 0 }

// Ref is the compact 16-byte wire form of a Cap (boot params, command
// payloads, longcall data). Resolve reconstructs the full key host-side.
type Ref struct {
	ID  uint64
	Gen uint64
}

// Ref returns the wire form.
func (c Cap) Ref() Ref { return Ref{ID: c.ID, Gen: c.Gen} }

// entry is the table-side record backing a Cap. All fields except gen and
// children are immutable after publication; gen is the revocation switch
// read lock-free on hot paths; children is guarded by the table mutex.
type entry struct {
	id     uint64
	holder int
	kind   Kind
	rights Rights
	scope  Scope
	parent uint64
	label  string
	gen    atomic.Uint64
	// children is guarded by Table.mu (cross-struct; the mutex lives on
	// the table so entries stay flat and cheap to publish).
	children []uint64
}

// Revoked describes one capability killed by a revocation, with enough
// context (kind, scope, holder) for the caller to propagate the withdrawal
// to protection structures.
type Revoked struct {
	Cap   Cap
	Scope Scope
}

// Info is a live capability with its table-side context, for inspection
// (enclavectl caps).
type Info struct {
	Cap    Cap
	Scope  Scope
	Parent uint64
	Label  string
}

// Table is one node's capability table. Mint/Delegate/Revoke serialize
// under mu; Verify/Alive/Covers are lock-free (atomic snapshot of the
// entry slice + one generation load) so the exit-handler hot paths pay a
// constant, allocation-free cost per check.
type Table struct {
	mu sync.Mutex // serializes mutations (mint/delegate/revoke)
	// entries holds the entry slots; the first n are published and the
	// rest are nil. A publish fills slot n in place and then raises n, so
	// it allocates only when the slots run out: growth stores a larger
	// copy before raising n. A reader loads n before entries (snapshot)
	// and never indexes past n, so it sees only slots filled before it
	// looked.
	entries atomic.Pointer[[]*entry]
	n       atomic.Uint64

	enforced atomic.Bool

	// Verifies counts every hot-path check; Denies counts checks that
	// failed (counted even when enforcement is off, so a twin run can
	// report would-be violations without changing outcomes).
	Verifies atomic.Uint64
	Denies   atomic.Uint64
}

// NewTable returns an empty, enforcing table.
func NewTable() *Table {
	t := &Table{}
	t.entries.Store(&[]*entry{})
	t.enforced.Store(true)
	return t
}

// SetEnforced toggles enforcement. When off, Verify/Alive/Covers report
// success regardless of the check result — but still count Denies — so a
// violation-free workload produces byte-identical output either way.
func (t *Table) SetEnforced(on bool) { t.enforced.Store(on) }

// snapshot returns the published entries (callers must not modify them).
func (t *Table) snapshot() []*entry {
	n := t.n.Load()
	if p := t.entries.Load(); p != nil {
		return (*p)[:n]
	}
	return nil
}

// lookup returns the entry a Cap claims to be, or nil if the id is out of
// range. Lock-free.
func (t *Table) lookup(id uint64) *entry {
	es := t.snapshot()
	if id == 0 || id > uint64(len(es)) {
		return nil
	}
	return es[id-1]
}

// publish appends e under mu. Every earlier snapshot stays valid for
// concurrent readers: entry pointers are stable, the published prefix is
// never rewritten, and a grown copy carries the same prefix.
func (t *Table) publish(e *entry) {
	es := *t.entries.Load()
	n := t.n.Load()
	if n == uint64(len(es)) {
		next := make([]*entry, max(2*len(es), 16))
		copy(next, es)
		t.entries.Store(&next)
		es = next
	}
	es[n] = e
	t.n.Store(n + 1)
}

// capOf reconstructs the key for a live entry.
func capOf(e *entry) Cap {
	return Cap{ID: e.id, Gen: e.gen.Load(), Holder: e.holder, Kind: e.kind, Rights: e.rights}
}

// Mint issues a root capability. Roots are created by the host control
// plane at assembly time (framework root memory, master root IPI,
// controller root I/O); everything an enclave holds is delegated from one.
func (t *Table) Mint(holder int, kind Kind, rights Rights, scope Scope, label string) Cap {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &entry{
		id:     uint64(len(t.snapshot()) + 1),
		holder: holder,
		kind:   kind,
		rights: rights,
		scope:  scope,
		label:  label,
	}
	e.gen.Store(1)
	t.publish(e)
	return capOf(e)
}

// Delegate mints a child of parent for holder. Delegation only narrows:
// the child's rights and scope must be subsets of the parent's, the parent
// must be live and authentic, and must itself carry RightDelegate.
// Revoking the parent later revokes the child.
func (t *Table) Delegate(parent Cap, holder int, rights Rights, scope Scope, label string) (Cap, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pe := t.lookup(parent.ID)
	if pe == nil || !authentic(pe, parent) {
		return Cap{}, fmt.Errorf("authority: delegate from dead or forged cap %d", parent.ID)
	}
	if pe.rights&RightDelegate == 0 {
		return Cap{}, fmt.Errorf("authority: cap %d lacks delegate right", parent.ID)
	}
	if pe.rights&rights != rights {
		return Cap{}, fmt.Errorf("authority: delegation widens rights of cap %d", parent.ID)
	}
	if !pe.scope.Contains(pe.kind, scope) {
		return Cap{}, fmt.Errorf("authority: delegation escapes scope of cap %d", parent.ID)
	}
	e := &entry{
		id:     uint64(len(t.snapshot()) + 1),
		holder: holder,
		kind:   pe.kind,
		rights: rights,
		scope:  scope,
		parent: parent.ID,
		label:  label,
	}
	e.gen.Store(1)
	t.publish(e)
	pe.children = append(pe.children, e.id)
	return capOf(e), nil
}

// authentic reports whether c matches e field-for-field at e's current
// generation — the unforgeability check.
func authentic(e *entry, c Cap) bool {
	return e.gen.Load() == c.Gen && e.holder == c.Holder &&
		e.kind == c.Kind && e.rights == c.Rights
}

// Revoke kills c and, recursively, every capability delegated from it,
// returning the killed set in deterministic (depth-first, mint) order. The
// caller propagates the withdrawals to protection structures — this table
// only manages keys.
func (t *Table) Revoke(c Cap) ([]Revoked, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.lookup(c.ID)
	if e == nil || !authentic(e, c) {
		return nil, fmt.Errorf("authority: revoke of dead or forged cap %d", c.ID)
	}
	return t.revokeLocked(e, nil), nil
}

// revokeLocked bumps e's generation and recurses over its children.
func (t *Table) revokeLocked(e *entry, out []Revoked) []Revoked {
	out = append(out, Revoked{Cap: capOf(e), Scope: e.scope})
	e.gen.Add(1)
	for _, id := range e.children {
		ce := t.lookup(id)
		if ce != nil && !dead(ce) {
			out = t.revokeLocked(ce, out)
		}
	}
	return out
}

// dead reports whether e has been revoked (generation moved past mint).
func dead(e *entry) bool { return e.gen.Load() != 1 }

// RevokeHolder kills every live capability held by holder (and, per the
// delegation tree, everything delegated from those keys — an enclave's
// death revokes what it shared). Deterministic ID order.
func (t *Table) RevokeHolder(holder int) []Revoked {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Revoked
	for _, e := range t.snapshot() {
		if e.holder == holder && !dead(e) {
			out = t.revokeLocked(e, out)
		}
	}
	return out
}

// Verify is the full authority check: c must be live and authentic, held
// by holder, of the stated kind, and carry every right in need. Lock-free,
// allocation-free, O(1). With enforcement off the result is always true
// (Denies still counts the would-be failure).
func (t *Table) Verify(c Cap, holder int, kind Kind, need Rights) bool {
	t.Verifies.Add(1)
	e := t.lookup(c.ID)
	ok := e != nil && authentic(e, c) && c.Holder == holder &&
		c.Kind == kind && c.Rights&need == need
	if !ok {
		t.Denies.Add(1)
		return !t.enforced.Load()
	}
	return true
}

// Covers extends Verify with scope containment: the capability's recorded
// scope must contain want.
func (t *Table) Covers(c Cap, holder int, kind Kind, need Rights, want Scope) bool {
	t.Verifies.Add(1)
	e := t.lookup(c.ID)
	ok := e != nil && authentic(e, c) && c.Holder == holder &&
		c.Kind == kind && c.Rights&need == need &&
		e.scope.Contains(e.kind, want)
	if !ok {
		t.Denies.Add(1)
		return !t.enforced.Load()
	}
	return true
}

// Alive is the minimal hot-path check — is this exact key still valid? One
// slice load plus one generation compare; the IPI filter and I/O table run
// it on every guarded exit.
func (t *Table) Alive(c Cap) bool {
	t.Verifies.Add(1)
	e := t.lookup(c.ID)
	if e == nil || !authentic(e, c) {
		t.Denies.Add(1)
		return !t.enforced.Load()
	}
	return true
}

// Resolve reconstructs the full key for a wire Ref, failing if the entry
// has been revoked since the Ref was cut.
func (t *Table) Resolve(r Ref) (Cap, bool) {
	e := t.lookup(r.ID)
	if e == nil || e.gen.Load() != r.Gen {
		return Cap{}, false
	}
	return Cap{ID: e.id, Gen: r.Gen, Holder: e.holder, Kind: e.kind, Rights: e.rights}, true
}

// Lookup returns the live capability with the given id, for control-plane
// inspection (enclavectl revoke <capid>).
func (t *Table) Lookup(id uint64) (Cap, bool) {
	e := t.lookup(id)
	if e == nil || dead(e) {
		return Cap{}, false
	}
	return capOf(e), true
}

// ScopeOf returns the recorded scope of a live, authentic capability.
func (t *Table) ScopeOf(c Cap) (Scope, bool) {
	e := t.lookup(c.ID)
	if e == nil || !authentic(e, c) {
		return Scope{}, false
	}
	return e.scope, true
}

// CapsOf lists the live capabilities held by holder in mint order.
func (t *Table) CapsOf(holder int) []Info {
	var out []Info
	for _, e := range t.snapshot() {
		if e.holder == holder && !dead(e) {
			out = append(out, Info{Cap: capOf(e), Scope: e.scope, Parent: e.parent, Label: e.label})
		}
	}
	return out
}

// Holders lists every holder id with at least one live capability, in
// ascending order.
func (t *Table) Holders() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range t.snapshot() {
		if !dead(e) && !seen[e.holder] {
			seen[e.holder] = true
			out = append(out, e.holder)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
