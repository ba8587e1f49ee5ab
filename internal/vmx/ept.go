package vmx

import (
	"fmt"
	"sync"
	"sync/atomic"

	"covirt/internal/hw"
)

// Perms are EPT access permissions.
type Perms uint8

// Permission bits.
const (
	PermRead Perms = 1 << iota
	PermWrite
	PermExec
	// PermAll grants read, write and execute — Covirt maps all enclave
	// memory with full permissions; violations mean "outside the map".
	PermAll = PermRead | PermWrite | PermExec
)

// page-table geometry (x86-64 4-level)
const (
	eptLevels   = 4
	eptIdxBits  = 9
	eptIdxMask  = (1 << eptIdxBits) - 1
	eptMaxLevel = eptLevels - 1 // index of the root level (L4 == 3)
)

// levelShift returns the address shift of the given level (0 == L1/4K).
func levelShift(level int) uint { return 12 + uint(level)*eptIdxBits }

// levelPageSize returns the leaf page size at a level (L1→4K, L2→2M, L3→1G).
func levelPageSize(level int) uint64 { return 1 << levelShift(level) }

// eptEntry is one slot of an EPT table node: either a pointer to the next
// level or a leaf mapping. Entries are immutable once published — mutation
// replaces the slot's pointer — so lock-free walkers always observe a fully
// constructed entry.
type eptEntry struct {
	next  *eptNode
	leaf  bool
	perms Perms
}

// leafEntries interns the leaf entry for each combination of the three
// permission bits. A leaf carries nothing but its permissions and is never
// mutated, and no code compares entry pointers, so every leaf with the same
// permissions shares one entry instead of allocating its own. A Perms value
// outside the three bits fails the index bounds check.
var leafEntries = [PermAll + 1]eptEntry{
	{leaf: true, perms: 0}, {leaf: true, perms: 1}, {leaf: true, perms: 2}, {leaf: true, perms: 3},
	{leaf: true, perms: 4}, {leaf: true, perms: 5}, {leaf: true, perms: 6}, {leaf: true, perms: 7},
}

// eptNode is one 512-entry EPT table. Slots publish immutable entries
// atomically (nil = not present): readers walk without taking any lock,
// writers serialize under EPT.mu and store fully built subtrees. live
// counts the present slots, for writers only, so an unmap learns that it
// emptied a table without scanning it.
type eptNode struct {
	entries [1 << eptIdxBits]atomic.Pointer[eptEntry]
	live    int
}

// set publishes ent in slot i, keeping live. Caller holds EPT.mu.
func (n *eptNode) set(i int, ent *eptEntry) {
	switch old := n.entries[i].Load(); {
	case old == nil && ent != nil:
		n.live++
	case old != nil && ent == nil:
		n.live--
	}
	n.entries[i].Store(ent)
}

// EPTStats summarizes an EPT's current mappings.
type EPTStats struct {
	Mapped4K uint64 // number of 4K leaf mappings
	Mapped2M uint64
	Mapped1G uint64
	Bytes    uint64 // total mapped bytes
}

// Pages returns the total number of leaf mappings.
func (s EPTStats) Pages() uint64 { return s.Mapped4K + s.Mapped2M + s.Mapped1G }

// EPT is a simulated nested page table. Mappings are identity (guest
// physical == host physical), matching Covirt's zero-abstraction design; the
// structure exists to *bound* what the guest may touch, not to remap it.
//
// EPT is safe for concurrent use: the controller module mutates it while
// guest CPUs walk it. The walk side is lock-free (atomic entry publication);
// mutations are serialized under mu and bump the generation counter *after*
// the edit, so a translation cached under generation g is guaranteed to
// reflect a fully applied layout once Gen() returns g. TLB shootdown is the
// hypervisor's job (see covirt's command queue).
type EPT struct {
	mu    sync.Mutex
	root  *eptNode
	stats EPTStats
	gen   atomic.Uint64
	// maxPage caps leaf mapping sizes (0 = coalesce freely up to 1G);
	// used by the large-page ablation.
	maxPage uint64
	// walkCount counts completed full walks (diagnostics). Translation-
	// cache hits intentionally do not count: the cache exists to absorb
	// walks, and the counter measures the walks that actually happened.
	walkCount atomic.Uint64
}

// NewEPT returns an empty nested page table (nothing mapped: every access
// violates).
func NewEPT() *EPT { return &EPT{root: &eptNode{}} }

// SetMaxPageSize caps the leaf page size used by MapRange (pass
// hw.PageSize4K to disable coalescing entirely). Must be called before any
// mapping exists.
func (e *EPT) SetMaxPageSize(ps uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maxPage = ps
}

// Gen returns the mutation generation; it increments on every Map/Unmap.
func (e *EPT) Gen() uint64 { return e.gen.Load() }

// Stats returns current mapping statistics.
func (e *EPT) Stats() EPTStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// idx extracts the table index of gpa at level.
func idx(gpa uint64, level int) int {
	return int((gpa >> levelShift(level)) & eptIdxMask)
}

// MapRange identity-maps [gpa, gpa+size) with the given permissions,
// coalescing into 2M and 1G leaf mappings wherever alignment and length
// allow — the optimization the paper calls out ("contiguous memory pages
// are coalesced into large (2MB) and giant (1GB) EPT page mappings").
// gpa and size must be 4K-aligned. Mapping over an existing mapping is an
// error (the controller tracks ownership; double-maps indicate a bug).
func (e *EPT) MapRange(gpa, size uint64, perms Perms) error {
	if gpa%hw.PageSize4K != 0 || size%hw.PageSize4K != 0 {
		return fmt.Errorf("vmx: unaligned map [%#x,+%#x)", gpa, size)
	}
	if size == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	end := gpa + size
	for cur := gpa; cur < end; {
		ps := bestPageSize(cur, end-cur)
		if e.maxPage > 0 && ps > e.maxPage {
			ps = e.maxPage
		}
		if err := e.mapOne(cur, ps, perms); err != nil {
			return err
		}
		cur += ps
	}
	e.gen.Add(1)
	return nil
}

// bestPageSize picks the largest page size usable at cur given remaining
// length.
func bestPageSize(cur, remaining uint64) uint64 {
	if cur%hw.PageSize1G == 0 && remaining >= hw.PageSize1G {
		return hw.PageSize1G
	}
	if cur%hw.PageSize2M == 0 && remaining >= hw.PageSize2M {
		return hw.PageSize2M
	}
	return hw.PageSize4K
}

// mapOne installs a single leaf of the given page size. Caller holds e.mu.
func (e *EPT) mapOne(gpa, pageSize uint64, perms Perms) error {
	leafLevel := 0
	switch pageSize {
	case hw.PageSize1G:
		leafLevel = 2
	case hw.PageSize2M:
		leafLevel = 1
	}
	n := e.root
	for level := eptMaxLevel; level > leafLevel; level-- {
		i := idx(gpa, level)
		ent := n.entries[i].Load()
		if ent != nil && ent.leaf {
			return fmt.Errorf("vmx: map %#x/%d overlaps existing %d-byte leaf", gpa, pageSize, levelPageSize(level))
		}
		if ent == nil {
			ent = &eptEntry{next: &eptNode{}}
			n.set(i, ent)
		}
		n = ent.next
	}
	i := idx(gpa, leafLevel)
	if n.entries[i].Load() != nil {
		return fmt.Errorf("vmx: map %#x/%d overlaps existing mapping", gpa, pageSize)
	}
	n.set(i, &leafEntries[perms])
	switch pageSize {
	case hw.PageSize1G:
		e.stats.Mapped1G++
	case hw.PageSize2M:
		e.stats.Mapped2M++
	default:
		e.stats.Mapped4K++
	}
	e.stats.Bytes += pageSize
	return nil
}

// UnmapRange removes all mappings overlapping [gpa, gpa+size), splitting
// large leaves when the range covers them only partially. gpa and size must
// be 4K-aligned. Unmapping never-mapped space is a no-op, mirroring INVEPT
// semantics (the controller may conservatively unmap supersets).
func (e *EPT) UnmapRange(gpa, size uint64) error {
	if gpa%hw.PageSize4K != 0 || size%hw.PageSize4K != 0 {
		return fmt.Errorf("vmx: unaligned unmap [%#x,+%#x)", gpa, size)
	}
	if size == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unmapNode(e.root, eptMaxLevel, 0, gpa, gpa+size)
	e.gen.Add(1)
	return nil
}

// unmapNode walks node n (covering [base, base+512*span) at level, span
// being the level's page size) removing leaves overlapping [lo, hi). It
// visits only the slots the range overlaps. Caller holds e.mu.
func (e *EPT) unmapNode(n *eptNode, level int, base, lo, hi uint64) {
	span := levelPageSize(level)
	first, last := 0, 1<<eptIdxBits-1
	if lo > base {
		first = int((lo - base) / span)
	}
	if end := base + span<<eptIdxBits; hi < end {
		last = int((hi - 1 - base) / span)
	}
	for i := first; i <= last; i++ {
		entBase := base + uint64(i)*span
		ent := n.entries[i].Load()
		switch {
		case ent == nil:
		case ent.leaf:
			if entBase >= lo && entBase+span <= hi {
				// Fully covered: drop the leaf.
				e.accountUnmap(span)
				n.set(i, nil)
			} else {
				// Partially covered large leaf: split one level down and
				// recurse. 4K leaves are always fully covered (alignment).
				child := e.splitLeaf(n, i, ent, level)
				e.unmapNode(child, level-1, entBase, lo, hi)
			}
		default:
			e.unmapNode(ent.next, level-1, entBase, lo, hi)
			if ent.next.live == 0 {
				n.set(i, nil)
			}
		}
	}
}

// splitLeaf replaces the large leaf old in n's slot i with a table of
// next-size-down leaves, preserving permissions. The child is fully built
// — all 512 slots share one immutable leaf entry — before being published,
// so concurrent walkers see either the old large leaf or the complete
// split, never a partial table. Caller holds e.mu.
func (e *EPT) splitLeaf(n *eptNode, i int, old *eptEntry, level int) *eptNode {
	child := &eptNode{}
	childSpan := levelPageSize(level - 1)
	shared := &leafEntries[old.perms]
	for j := range child.entries {
		child.set(j, shared)
	}
	// Accounting: one large page becomes 512 smaller ones.
	e.accountUnmap(levelPageSize(level))
	for j := 0; j < 1<<eptIdxBits; j++ {
		e.accountMap(childSpan)
	}
	n.set(i, &eptEntry{next: child})
	return child
}

func (e *EPT) accountMap(span uint64) {
	switch span {
	case hw.PageSize1G:
		e.stats.Mapped1G++
	case hw.PageSize2M:
		e.stats.Mapped2M++
	default:
		e.stats.Mapped4K++
	}
	e.stats.Bytes += span
}

func (e *EPT) accountUnmap(span uint64) {
	switch span {
	case hw.PageSize1G:
		e.stats.Mapped1G--
	case hw.PageSize2M:
		e.stats.Mapped2M--
	default:
		e.stats.Mapped4K--
	}
	e.stats.Bytes -= span
}

// WalkResult reports the outcome of an EPT walk.
type WalkResult struct {
	PageSize uint64 // leaf page size backing the translation
	Levels   int    // table levels touched during the walk
	Perms    Perms  // leaf permissions (valid on success)
}

// Walk translates gpa, returning the leaf page size and walk depth. A miss
// or permission failure returns an hw.Fault of kind FaultEPTViolation.
// Identity mapping means the output address always equals gpa on success.
// Walk is lock-free: it reads atomically published immutable entries, so
// concurrent guest CPUs never contend with each other or block behind a
// controller mutation.
func (e *EPT) Walk(gpa uint64, write bool) (WalkResult, error) {
	e.walkCount.Add(1)
	n := e.root
	levels := 0
	for level := eptMaxLevel; level >= 0; level-- {
		levels++
		ent := n.entries[idx(gpa, level)].Load()
		if ent == nil {
			return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
		}
		if ent.leaf {
			need := PermRead
			if write {
				need = PermWrite
			}
			if ent.perms&need == 0 {
				return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
			}
			return WalkResult{PageSize: levelPageSize(level), Levels: levels, Perms: ent.perms}, nil
		}
		n = ent.next
	}
	// Unreachable: level 0 entries are always leaves or empty.
	return WalkResult{Levels: levels}, &hw.Fault{Kind: hw.FaultEPTViolation, Addr: gpa, Write: write}
}

// Mapped reports whether gpa is currently readable, without touching
// counters (controller-side queries).
func (e *EPT) Mapped(gpa uint64) bool {
	_, err := e.Walk(gpa, false)
	return err == nil
}

// WalkCount returns the number of walks performed (diagnostics).
func (e *EPT) WalkCount() uint64 { return e.walkCount.Load() }
