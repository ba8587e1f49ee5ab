package hw

// TLBStats counts translation-cache behaviour for one CPU.
type TLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// tlbNode is one cached translation, linked into its class's LRU list and
// indexed into the class's live-entry array.
type tlbNode struct {
	base       uint64 // page-aligned address
	pageSize   uint64
	gen        uint64 // translation generation it was filled under
	prev, next *tlbNode
	slot       int // index in tlbClass.live
}

// tlbClass holds all entries of one page size with O(1) LRU maintenance.
// Entries live in a fixed-capacity array scanned linearly on lookup: with
// architectural capacities (≤64) a scan beats map probing and — unlike a
// map — insert/evict churn allocates nothing, which matters because every
// simulated TLB miss inserts here. The scan runs over a parallel array of
// bare tags (bases) rather than the nodes themselves, so a full-class miss
// touches a few contiguous cache lines instead of chasing 64 pointers.
type tlbClass struct {
	bases    []uint64   // tag array, parallel to live: bases[i] == live[i].base
	live     []*tlbNode // unordered live entries; node.slot is its index
	free     []*tlbNode // recycled nodes awaiting reuse
	head     *tlbNode   // most recently used
	tail     *tlbNode   // least recently used
	cap      int
	pageSize uint64
	// filter counts live entries per hash bucket: an exact (not
	// probabilistic) presence pre-check. Gather-heavy workloads miss far
	// more often than they hit, and a zero bucket answers the common miss
	// in one load instead of a full tag scan. Counts are maintained on
	// every insert/evict/remove, so a zero is always authoritative.
	filter [tlbFilterBuckets]uint8
	// hint[bucket] is the slot of the last entry inserted (or moved) whose
	// base hashes to the bucket. It is a best-effort accelerator for the hit
	// path: find verifies the slot's tag before trusting it and falls back
	// to the scan, so a stale hint costs time, never correctness.
	hint [tlbFilterBuckets]uint8
}

// tlbFilterBuckets sizes the per-class presence filter; with ≤64 live
// entries spread over 256 buckets, most absent tags land on a zero count.
const tlbFilterBuckets = 256

// filterBucket hashes a page base to its filter bucket.
func filterBucket(base uint64) int {
	return int((base * 0x9E3779B97F4A7C15) >> 56)
}

func newTLBClass(capacity int, pageSize uint64) *tlbClass {
	// live, bases and free are sized to capacity up front: every later
	// mutation is an in-capacity reslice, so the steady-state insert,
	// remove and reset paths never allocate (at most `capacity` nodes are
	// ever created, and each lives in exactly one of live/free).
	return &tlbClass{
		bases:    make([]uint64, 0, capacity),
		live:     make([]*tlbNode, 0, capacity),
		free:     make([]*tlbNode, 0, capacity),
		cap:      capacity,
		pageSize: pageSize,
	}
}

// find returns the live entry with the given base, or nil.
func (c *tlbClass) find(base uint64) *tlbNode {
	bk := filterBucket(base)
	if c.filter[bk] == 0 {
		return nil
	}
	if h := int(c.hint[bk]); h < len(c.bases) && c.bases[h] == base {
		return c.live[h]
	}
	for i, b := range c.bases {
		if b == base {
			return c.live[i]
		}
	}
	return nil
}

// unlink removes n from the LRU list.
func (c *tlbClass) unlink(n *tlbNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the MRU entry.
func (c *tlbClass) pushFront(n *tlbNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// touch refreshes n's recency.
func (c *tlbClass) touch(n *tlbNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// remove drops n from the class, recycling its node.
func (c *tlbClass) remove(n *tlbNode) {
	c.unlink(n)
	last := len(c.live) - 1
	moved := c.live[last]
	c.live[n.slot] = moved
	c.bases[n.slot] = c.bases[last]
	moved.slot = n.slot
	c.live = c.live[:last]
	c.bases = c.bases[:last]
	c.filter[filterBucket(n.base)]--
	c.hint[filterBucket(moved.base)] = uint8(n.slot)
	c.free = c.free[:len(c.free)+1]
	c.free[len(c.free)-1] = n
}

// insert adds a translation for base, evicting the LRU entry when full.
// The caller has checked base is not present.
func (c *tlbClass) insert(base, gen uint64) {
	var n *tlbNode
	if len(c.live) >= c.cap {
		// Reuse the evicted victim's node in place: same slot, new tag.
		n = c.tail
		c.filter[filterBucket(n.base)]--
		c.unlink(n)
	} else if k := len(c.free); k > 0 {
		n = c.free[k-1]
		c.free = c.free[:k-1]
		n.slot = len(c.live)
		c.live = c.live[:n.slot+1]
		c.live[n.slot] = n
		c.bases = c.bases[:n.slot+1]
		c.bases[n.slot] = 0
	} else {
		// First touch of this slot: the only allocation in the class's
		// lifetime after construction, bounded by cap nodes total.
		n = &tlbNode{pageSize: c.pageSize, slot: len(c.live)}
		c.live = c.live[:n.slot+1]
		c.live[n.slot] = n
		c.bases = c.bases[:n.slot+1]
		c.bases[n.slot] = 0
	}
	n.base, n.gen = base, gen
	c.bases[n.slot] = base
	bk := filterBucket(base)
	c.filter[bk]++
	c.hint[bk] = uint8(n.slot)
	c.pushFront(n)
}

// reset drops all live entries, keeping allocated nodes for reuse.
func (c *tlbClass) reset() {
	nf := len(c.free)
	c.free = c.free[:nf+len(c.live)]
	copy(c.free[nf:], c.live)
	c.live = c.live[:0]
	c.bases = c.bases[:0]
	c.head, c.tail = nil, nil
	c.filter = [tlbFilterBuckets]uint8{}
}

// TLB simulates a unified translation lookaside buffer with separate
// capacity classes per page size, true LRU replacement, and a generation
// stamp so stale entries can be distinguished in tests. A TLB is private
// to one CPU and must only be accessed from that CPU's execution context;
// cross-CPU invalidations arrive via the interrupt path (CPU.poll).
type TLB struct {
	classes map[uint64]*tlbClass
	// std caches the three architectural classes for allocation-free
	// lookups; extra tracks any non-standard page sizes (normally none).
	std   [3]*tlbClass // 2M, 4K, 1G in probe order
	extra []*tlbClass
	gen   uint64
	stats TLBStats
}

// Default per-page-size TLB capacities, loosely modelled on Broadwell
// (64 × 4K, 32 × 2M, 4 × 1G data TLB entries).
var defaultTLBCaps = map[uint64]int{
	PageSize4K: 64,
	PageSize2M: 32,
	PageSize1G: 4,
}

// probeOrder is the lookup order (most common mapping sizes first).
var probeOrder = [...]uint64{PageSize2M, PageSize4K, PageSize1G}

// NewTLB returns an empty TLB with default capacities.
func NewTLB() *TLB {
	t := &TLB{classes: make(map[uint64]*tlbClass, len(defaultTLBCaps))}
	for ps, capn := range defaultTLBCaps {
		t.classes[ps] = newTLBClass(capn, ps)
	}
	t.reindex()
	return t
}

// reindex rebuilds the probe caches after class-set changes.
func (t *TLB) reindex() {
	for i, ps := range probeOrder {
		t.std[i] = t.classes[ps]
	}
	t.extra = t.extra[:0]
	for ps, c := range t.classes {
		if ps != PageSize4K && ps != PageSize2M && ps != PageSize1G {
			t.extra = append(t.extra, c)
		}
	}
}

// class returns (creating if needed) the class for a page size. The three
// architectural sizes resolve through the probe cache, skipping the map.
func (t *TLB) class(pageSize uint64) *tlbClass {
	switch pageSize {
	case PageSize2M:
		return t.std[0]
	case PageSize4K:
		return t.std[1]
	case PageSize1G:
		return t.std[2]
	}
	c, ok := t.classes[pageSize]
	if !ok {
		// One-time lazy creation of a non-architectural class; never part
		// of the steady-state translation path.
		//covirt:allow transitive-hot one-time class creation off the hot path
		c = newTLBClass(16, pageSize) // unknown page size: modest default class
		t.classes[pageSize] = c
		//covirt:allow transitive-hot probe-cache rebuild only on class-set change
		t.reindex()
	}
	return c
}

// Cover reports whether addr's translation is cached and, on a hit, returns
// the covering entry's page base and size so callers can batch work across
// the whole translated span. Recency and hit/miss counters update exactly
// as Lookup.
func (t *TLB) Cover(addr uint64) (base, pageSize uint64, ok bool) {
	for i, ps := range probeOrder {
		c := t.std[i]
		if c == nil || len(c.live) == 0 {
			continue
		}
		if n := c.find(addr &^ (ps - 1)); n != nil {
			c.touch(n)
			t.stats.Hits++
			return n.base, ps, true
		}
	}
	for _, c := range t.extra {
		if len(c.live) == 0 {
			continue
		}
		if n := c.find(addr &^ (c.pageSize - 1)); n != nil {
			c.touch(n)
			t.stats.Hits++
			return n.base, c.pageSize, true
		}
	}
	t.stats.Misses++
	return 0, 0, false
}

// Lookup reports whether addr's translation is cached. On a hit the entry's
// recency is refreshed.
func (t *TLB) Lookup(addr uint64) bool {
	_, _, ok := t.Cover(addr)
	return ok
}

// Insert caches the translation of the page of the given size containing
// addr, evicting the least recently used same-size entry if the class is
// full.
func (t *TLB) Insert(addr, pageSize uint64) {
	c := t.class(pageSize)
	base := addr &^ (pageSize - 1)
	if n := c.find(base); n != nil {
		c.touch(n)
		n.gen = t.gen
		return
	}
	c.insert(base, t.gen)
}

// InsertFresh caches a translation the caller knows is absent — legal only
// immediately after a Cover/Lookup miss on the same address (flushes in
// between preserve absence). It skips Insert's presence scan, which would
// re-walk the full class on the miss path just to confirm the miss.
func (t *TLB) InsertFresh(addr, pageSize uint64) {
	c := t.class(pageSize)
	c.insert(addr&^(pageSize-1), t.gen)
}

// FlushAll drops every cached translation and bumps the generation counter.
func (t *TLB) FlushAll() {
	for _, c := range t.classes {
		c.reset()
	}
	t.gen++
	t.stats.Flushes++
}

// FlushRange drops all cached translations for pages overlapping
// [addr, addr+size).
func (t *TLB) FlushRange(addr, size uint64) {
	for _, c := range t.classes {
		for i := 0; i < len(c.live); {
			n := c.live[i]
			if n.base < addr+size && n.base+n.pageSize > addr {
				c.remove(n) // swaps the last entry into slot i; revisit it
				continue
			}
			i++
		}
	}
	t.stats.Flushes++
}

// Len returns the number of cached translations.
func (t *TLB) Len() int {
	total := 0
	for _, c := range t.classes {
		total += len(c.live)
	}
	return total
}

// Count returns the number of cached translations of one page size.
func (t *TLB) Count(pageSize uint64) int {
	if c := t.classes[pageSize]; c != nil {
		return len(c.live)
	}
	return 0
}

// Capacity returns the entry capacity of one page-size class.
func (t *TLB) Capacity(pageSize uint64) int {
	if c := t.classes[pageSize]; c != nil {
		return c.cap
	}
	return 0
}

// Gen returns the current translation generation (bumped by FlushAll).
func (t *TLB) Gen() uint64 { return t.gen }

// Stats returns a copy of the TLB counters.
func (t *TLB) Stats() TLBStats { return t.stats }
