package hw

// TLBStats counts translation-cache behaviour for one CPU.
type TLBStats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
}

// tlbMaxEntries bounds every class's capacity; slot indices fit a uint8
// with tlbMaxEntries itself left over as the LRU list's sentinel.
const tlbMaxEntries = 64

// tlbFilterBuckets sizes the per-class presence filter; with ≤64 live
// entries spread over 256 buckets, most absent tags land on a zero count.
const tlbFilterBuckets = 256

// filterBucket hashes a page base to its filter bucket.
func filterBucket(base uint64) int {
	return int((base * 0x9E3779B97F4A7C15) >> 56)
}

// tlbClass holds all entries of one page size in flat arrays. Slots
// [0, n) are live and unordered; tags[i] is slot i's page base. Recency
// is a circular doubly linked list threaded through prev/next as slot
// indices, with slot tlbMaxEntries as the sentinel: next[sentinel] is the
// most recently used slot and prev[sentinel] the least. A hit is a filter
// load, a tag compare and two relinks; an insert into a full class reuses
// the LRU slot in place, so no operation allocates.
type tlbClass struct {
	tags       [tlbMaxEntries]uint64
	prev, next [tlbMaxEntries + 1]uint8
	n, cap     int
	pageSize   uint64
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

// reset drops every entry. Stale tags and hints stay behind: nothing
// reads a tag at or past n, and find verifies a hint against n first.
func (c *tlbClass) reset() {
	c.n = 0
	c.next[tlbMaxEntries], c.prev[tlbMaxEntries] = tlbMaxEntries, tlbMaxEntries
	c.filter = [tlbFilterBuckets]uint8{}
}

// find returns the live slot holding base, or -1.
func (c *tlbClass) find(base uint64) int {
	bk := filterBucket(base)
	if c.filter[bk] == 0 {
		return -1
	}
	if h := int(c.hint[bk]); h < c.n && c.tags[h] == base {
		return h
	}
	for i, b := range c.tags[:c.n] {
		if b == base {
			return i
		}
	}
	return -1
}

// unlink removes slot i from the recency list.
func (c *tlbClass) unlink(i int) {
	p, n := c.prev[i], c.next[i]
	c.next[p], c.prev[n] = n, p
}

// pushFront makes slot i the most recently used.
func (c *tlbClass) pushFront(i int) {
	h := c.next[tlbMaxEntries]
	c.prev[i], c.next[i] = tlbMaxEntries, h
	c.prev[h], c.next[tlbMaxEntries] = uint8(i), uint8(i)
}

// touch refreshes slot i's recency.
func (c *tlbClass) touch(i int) {
	if int(c.next[tlbMaxEntries]) == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

// remove drops slot i, moving the last live slot into its place.
func (c *tlbClass) remove(i int) {
	c.unlink(i)
	c.filter[filterBucket(c.tags[i])]--
	c.n--
	if last := c.n; i != last {
		p, n := c.prev[last], c.next[last]
		c.tags[i], c.prev[i], c.next[i] = c.tags[last], p, n
		c.next[p], c.prev[n] = uint8(i), uint8(i)
		c.hint[filterBucket(c.tags[i])] = uint8(i)
	}
}

// insert caches base as the most recently used entry, evicting the least
// recently used one when the class is full. The caller has checked base
// is not present.
func (c *tlbClass) insert(base uint64) {
	var i int
	if c.n == c.cap {
		i = int(c.prev[tlbMaxEntries])
		c.filter[filterBucket(c.tags[i])]--
		c.unlink(i)
	} else {
		i = c.n
		c.n++
	}
	c.tags[i] = base
	bk := filterBucket(base)
	c.filter[bk]++
	c.hint[bk] = uint8(i)
	c.pushFront(i)
}

// TLB simulates a unified translation lookaside buffer with one capacity
// class per architectural page size, true LRU replacement, and a
// generation counter bumped by FlushAll. A TLB is private to one CPU and
// must only be accessed from that CPU's execution context; cross-CPU
// invalidations arrive via the interrupt path (CPU.poll).
type TLB struct {
	cls   [3]tlbClass // 2M, 4K, 1G: probe order, most common mapping first
	gen   uint64
	stats TLBStats
}

// NewTLB returns an empty TLB with capacities loosely modelled on
// Broadwell (32 × 2M, 64 × 4K, 4 × 1G data TLB entries).
func NewTLB() *TLB {
	t := &TLB{cls: [3]tlbClass{
		{cap: 32, pageSize: PageSize2M},
		{cap: 64, pageSize: PageSize4K},
		{cap: 4, pageSize: PageSize1G},
	}}
	for k := range t.cls {
		t.cls[k].reset()
	}
	return t
}

// class returns the class holding pageSize entries, or nil for a size no
// class holds.
func (t *TLB) class(pageSize uint64) *tlbClass {
	switch pageSize {
	case PageSize2M:
		return &t.cls[0]
	case PageSize4K:
		return &t.cls[1]
	case PageSize1G:
		return &t.cls[2]
	}
	return nil
}

// Cover reports whether addr's translation is cached and, on a hit, returns
// the covering entry's page base and size so callers can batch work across
// the whole translated span. Recency and hit/miss counters update exactly
// as Lookup.
func (t *TLB) Cover(addr uint64) (base, pageSize uint64, ok bool) {
	for k := range t.cls {
		c := &t.cls[k]
		if c.n == 0 {
			continue
		}
		tag := addr &^ (c.pageSize - 1)
		if i := c.find(tag); i >= 0 {
			c.touch(i)
			t.stats.Hits++
			return tag, c.pageSize, true
		}
	}
	t.stats.Misses++
	return 0, 0, false
}

// resident finds the entry Cover would hit for addr without refreshing its
// recency or counting the hit, and returns its class and slot with the
// page [base, base+size) of addresses that hit that same entry for as long
// as no entry is inserted or removed: the entry's own page for a 2M or 4K
// entry, but only addr's 4 KiB page for a 1G entry, since the 2M and 4K
// classes are probed first and may hold other parts of a 1G page.
func (t *TLB) resident(addr uint64) (c *tlbClass, slot int, base, size uint64, ok bool) {
	for k := range t.cls {
		c = &t.cls[k]
		if c.n == 0 {
			continue
		}
		if slot = c.find(addr &^ (c.pageSize - 1)); slot >= 0 {
			size = c.pageSize
			if size == PageSize1G {
				size = PageSize4K
			}
			return c, slot, addr &^ (size - 1), size, true
		}
	}
	return nil, 0, 0, 0, false
}

// Lookup reports whether addr's translation is cached. On a hit the entry's
// recency is refreshed.
func (t *TLB) Lookup(addr uint64) bool {
	_, _, ok := t.Cover(addr)
	return ok
}

// Insert caches the translation of the page of the given size containing
// addr, evicting the least recently used same-size entry if the class is
// full. pageSize must be PageSize4K, PageSize2M or PageSize1G.
func (t *TLB) Insert(addr, pageSize uint64) {
	c := t.class(pageSize)
	base := addr &^ (pageSize - 1)
	if i := c.find(base); i >= 0 {
		c.touch(i)
		return
	}
	c.insert(base)
}

// InsertFresh caches a translation the caller knows is absent — legal only
// immediately after a Cover/Lookup miss on the same address (flushes in
// between preserve absence). It skips Insert's presence scan, which would
// re-walk the full class on the miss path just to confirm the miss.
func (t *TLB) InsertFresh(addr, pageSize uint64) {
	t.class(pageSize).insert(addr &^ (pageSize - 1))
}

// FlushAll drops every cached translation and bumps the generation counter.
func (t *TLB) FlushAll() {
	for k := range t.cls {
		t.cls[k].reset()
	}
	t.gen++
	t.stats.Flushes++
}

// FlushRange drops all cached translations for pages overlapping
// [addr, addr+size).
func (t *TLB) FlushRange(addr, size uint64) {
	for k := range t.cls {
		c := &t.cls[k]
		for i := 0; i < c.n; {
			if b := c.tags[i]; b < addr+size && b+c.pageSize > addr {
				c.remove(i) // moves the last entry into slot i; revisit it
				continue
			}
			i++
		}
	}
	t.stats.Flushes++
}

// Len returns the number of cached translations.
func (t *TLB) Len() int {
	return t.cls[0].n + t.cls[1].n + t.cls[2].n
}

// Count returns the number of cached translations of one page size.
func (t *TLB) Count(pageSize uint64) int {
	if c := t.class(pageSize); c != nil {
		return c.n
	}
	return 0
}

// Capacity returns the entry capacity of one page-size class.
func (t *TLB) Capacity(pageSize uint64) int {
	if c := t.class(pageSize); c != nil {
		return c.cap
	}
	return 0
}

// Gen returns the current translation generation (bumped by FlushAll).
func (t *TLB) Gen() uint64 { return t.gen }

// Stats returns a copy of the TLB counters.
func (t *TLB) Stats() TLBStats { return t.stats }
