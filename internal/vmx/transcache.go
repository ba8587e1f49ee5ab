package vmx

import "covirt/internal/hw"

// The translation cache is split into two direct-mapped tables, indexed at
// the two leaf granularities that matter: small entries (4K/2M leaves) hash
// the gpa's 2M granule, giant entries (1G leaves) hash its 1G granule. A
// single fully-associative array cannot serve both shapes — solver
// working sets touch hundreds of distinct 2M leaves (a handful of slots
// thrashes), while a 1G leaf must keep absorbing walks from every 2M
// granule it covers (a 2M-indexed table would re-walk per granule). Two
// one-probe tables give O(1) lookup and insert for both. Sizes are
// per-VCPU memory, not simulated state: the cache changes no charged
// cycles, only wall-clock speed (TestTransCacheCostEquivalence pins this
// against a VCPU whose cache is emptied before every translation).
const (
	tcSmallEntries = 512 // 4K/2M-leaf walks, indexed by 2M granule
	tcGiantEntries = 16  // 1G-leaf walks, indexed by 1G granule
)

// tcEntry caches one successful nested walk: the leaf it resolved to, the
// cycle-relevant walk depth, the leaf permissions, and the EPT generation
// the walk completed under. An entry is valid only while its gen matches
// EPT.Gen() — any Map/Unmap bumps the generation and implicitly drops every
// cached translation, so the cache can never outlive a controller remap.
type tcEntry struct {
	base     uint64 // leaf-aligned guest-physical base
	pageSize uint64 // 0 = slot empty
	levels   int
	perms    Perms
	gen      uint64
}

// transCache is the per-VCPU software analogue of the hardware's
// paging-structure caches: a cache of completed nested walks that lets
// repeated accesses to the same leaf skip the EPT walk entirely while
// still charging the exact walk-depth cycles the cost model prescribes.
// It is owned by the VCPU's execution goroutine; no locking.
type transCache struct {
	small [tcSmallEntries]tcEntry
	giant [tcGiantEntries]tcEntry
}

// tcSmallSlot maps a gpa's 2M granule to its direct-mapped slot.
func tcSmallSlot(gpa uint64) int {
	return int(((gpa >> 21) * 0x9E3779B97F4A7C15) >> 55)
}

// tcGiantSlot maps a gpa's 1G granule to its direct-mapped slot.
func tcGiantSlot(gpa uint64) int {
	return int(((gpa >> 30) * 0x9E3779B97F4A7C15) >> 60)
}

// covers reports whether e is a live entry under gen whose leaf contains
// gpa with the needed permission.
func (e *tcEntry) covers(gpa uint64, need Perms, gen uint64) bool {
	return e.pageSize != 0 && e.gen == gen && gpa-e.base < e.pageSize && e.perms&need != 0
}

// lookup returns the cached walk covering gpa if one is valid under gen and
// grants the needed permission. A permission mismatch is a miss (the slow
// path re-walks and raises the violation through the exit path). The
// returned pointer aliases the slot and is only valid until the next
// insert; callers read it immediately.
func (t *transCache) lookup(gpa uint64, write bool, gen uint64) (*tcEntry, bool) {
	need := PermRead
	if write {
		need = PermWrite
	}
	if e := &t.small[tcSmallSlot(gpa)]; e.covers(gpa, need, gen) {
		return e, true
	}
	if e := &t.giant[tcGiantSlot(gpa)]; e.covers(gpa, need, gen) {
		return e, true
	}
	return nil, false
}

// insert records a completed walk in the table matching its leaf size,
// replacing whatever the slot held.
func (t *transCache) insert(gpa uint64, res WalkResult, gen uint64) {
	e := tcEntry{
		base:     gpa &^ (res.PageSize - 1),
		pageSize: res.PageSize,
		levels:   res.Levels,
		perms:    res.Perms,
		gen:      gen,
	}
	if res.PageSize >= hw.PageSize1G {
		t.giant[tcGiantSlot(gpa)] = e
		return
	}
	t.small[tcSmallSlot(gpa)] = e
}
