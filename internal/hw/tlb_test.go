package hw

import (
	"testing"
	"testing/quick"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB()
	if tlb.Lookup(0x1234) {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x1234, PageSize4K)
	if !tlb.Lookup(0x1000) {
		t.Fatal("same-page lookup missed")
	}
	if !tlb.Lookup(0x1FFF) {
		t.Fatal("page-end lookup missed")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("next-page lookup hit")
	}
	s := tlb.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", s)
	}
}

func TestTLBLargePages(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(PageSize2M+123, PageSize2M)
	if !tlb.Lookup(PageSize2M + PageSize2M - 1) {
		t.Error("2M entry should cover whole 2M page")
	}
	if tlb.Lookup(PageSize2M * 2) {
		t.Error("2M entry covered too much")
	}
	tlb.Insert(PageSize1G*3+5, PageSize1G)
	if !tlb.Lookup(PageSize1G*3 + PageSize1G/2) {
		t.Error("1G entry should cover whole 1G page")
	}
}

func TestTLBEvictionRespectsCapacity(t *testing.T) {
	tlb := NewTLB()
	capacity := tlb.Capacity(PageSize4K)
	for i := 0; i < capacity*3; i++ {
		tlb.Insert(uint64(i)*PageSize4K, PageSize4K)
	}
	count := tlb.Count(PageSize4K)
	if count > capacity {
		t.Errorf("4K entries = %d, exceeds capacity %d", count, capacity)
	}
	// Most recently inserted pages should still be resident.
	last := uint64(capacity*3-1) * PageSize4K
	if !tlb.Lookup(last) {
		t.Error("most recent insertion evicted")
	}
	// The first page inserted must be gone.
	if tlb.Lookup(0) {
		t.Error("oldest entry survived massive over-subscription")
	}
}

func TestTLBLRUOrder(t *testing.T) {
	tlb := NewTLB()
	capacity := tlb.Capacity(PageSize4K)
	for i := 0; i < capacity; i++ {
		tlb.Insert(uint64(i)*PageSize4K, PageSize4K)
	}
	// Touch page 0 so page 1 becomes LRU.
	if !tlb.Lookup(0) {
		t.Fatal("page 0 missing")
	}
	tlb.Insert(uint64(capacity)*PageSize4K, PageSize4K) // forces one eviction
	if !tlb.Lookup(0) {
		t.Error("recently-used page 0 evicted")
	}
	if tlb.Lookup(PageSize4K) {
		t.Error("LRU page 1 not evicted")
	}
}

func TestTLBFlushAll(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(0, PageSize4K)
	tlb.Insert(PageSize2M, PageSize2M)
	gen := tlb.Gen()
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Error("entries survived FlushAll")
	}
	if tlb.Gen() != gen+1 {
		t.Error("generation not bumped")
	}
	if tlb.Lookup(0) {
		t.Error("hit after FlushAll")
	}
}

func TestTLBFlushRange(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(0x0000, PageSize4K)
	tlb.Insert(0x1000, PageSize4K)
	tlb.Insert(0x2000, PageSize4K)
	tlb.Insert(PageSize2M, PageSize2M) // overlaps nothing below
	tlb.FlushRange(0x1000, 0x1000)
	if tlb.Lookup(0x1000) {
		t.Error("flushed page still resident")
	}
	if !tlb.Lookup(0x0000) || !tlb.Lookup(0x2000) {
		t.Error("neighbours flushed")
	}
	if !tlb.Lookup(PageSize2M) {
		t.Error("unrelated 2M entry flushed")
	}
	// A range overlapping part of a large page must flush the whole entry.
	tlb.FlushRange(PageSize2M+PageSize4K, PageSize4K)
	if tlb.Lookup(PageSize2M) {
		t.Error("partially-overlapped 2M entry survived")
	}
}

// Property: after Insert(addr, ps), Lookup hits for every address within the
// page and the per-class count never exceeds capacity.
func TestTLBInsertLookupProperty(t *testing.T) {
	sizes := []uint64{PageSize4K, PageSize2M, PageSize1G}
	f := func(addrs []uint32, sel []uint8) bool {
		tlb := NewTLB()
		n := len(addrs)
		if len(sel) < n {
			n = len(sel)
		}
		for i := 0; i < n; i++ {
			ps := sizes[int(sel[i])%len(sizes)]
			addr := uint64(addrs[i]) << 10
			tlb.Insert(addr, ps)
			if !tlb.Lookup(addr) {
				return false
			}
			if !tlb.Lookup(AlignDown(addr, ps) + ps - 1) {
				return false
			}
		}
		for _, ps := range sizes {
			if tlb.Count(ps) > tlb.Capacity(ps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// lruModel is the reference TLB: one MRU-first slice of page bases per
// class, probed in the TLB's class order (2M, 4K, 1G), with the same
// capacities and counters.
type lruModel struct {
	sizes [3]uint64
	caps  [3]int
	ents  [3][]uint64
	gen   uint64
	stats TLBStats
}

func newLRUModel() *lruModel {
	return &lruModel{
		sizes: [3]uint64{PageSize2M, PageSize4K, PageSize1G},
		caps:  [3]int{32, 64, 4},
	}
}

// use moves entry j of class k to the front.
func (m *lruModel) use(k, j int) {
	e := m.ents[k]
	b := e[j]
	copy(e[1:j+1], e[:j])
	e[0] = b
}

func (m *lruModel) cover(addr uint64) (uint64, uint64, bool) {
	for k, ps := range m.sizes {
		base := AlignDown(addr, ps)
		for j, b := range m.ents[k] {
			if b == base {
				m.use(k, j)
				m.stats.Hits++
				return base, ps, true
			}
		}
	}
	m.stats.Misses++
	return 0, 0, false
}

func (m *lruModel) insert(addr, ps uint64) {
	for k := range m.sizes {
		if m.sizes[k] != ps {
			continue
		}
		base := AlignDown(addr, ps)
		for j, b := range m.ents[k] {
			if b == base {
				m.use(k, j)
				return
			}
		}
		if len(m.ents[k]) == m.caps[k] {
			m.ents[k] = m.ents[k][:m.caps[k]-1]
		}
		m.ents[k] = append([]uint64{base}, m.ents[k]...)
	}
}

func (m *lruModel) flushRange(addr, size uint64) {
	for k, ps := range m.sizes {
		kept := m.ents[k][:0]
		for _, b := range m.ents[k] {
			if !(b < addr+size && b+ps > addr) {
				kept = append(kept, b)
			}
		}
		m.ents[k] = kept
	}
	m.stats.Flushes++
}

func (m *lruModel) flushAll() {
	for k := range m.ents {
		m.ents[k] = m.ents[k][:0]
	}
	m.gen++
	m.stats.Flushes++
}

// TestTLBMatchesLRUModel drives the TLB and the reference model through
// one seeded sequence of operations and compares every result and counter
// after each one. The page pools (96 × 4K, 48 × 2M, 8 × 1G) outgrow every
// class, the 4K pool sits inside the 2M pool's pages and both inside one
// of the 1G pages, so evictions, cross-class probe order, and the recency
// a hit refreshes all decide what later operations see. Over the run the
// 2M, 4K and 1G classes are full for about 50 %, 30 % and 75 % of the
// operations.
func TestTLBMatchesLRUModel(t *testing.T) {
	const ops = 120_000
	const area = 4 * PageSize1G
	rng := NewRand(0xC0FFEE)
	pick := func() (addr, ps uint64) {
		switch r := rng.Next() % 20; {
		case r < 9:
			return area + (rng.Next()%96)*7*PageSize4K + rng.Next()%PageSize4K, PageSize4K
		case r < 17:
			return area + (rng.Next()%48)*PageSize2M + rng.Next()%PageSize2M, PageSize2M
		default:
			return (3+rng.Next()%8)*PageSize1G + rng.Next()%PageSize1G, PageSize1G
		}
	}
	tlb, ref := NewTLB(), newLRUModel()
	for op := 0; op < ops; op++ {
		addr, ps := pick()
		var what string
		switch r := rng.Next() % 1000; {
		case r < 300:
			what = "Cover"
			gb, gs, gok := tlb.Cover(addr)
			wb, ws, wok := ref.cover(addr)
			if gb != wb || gs != ws || gok != wok {
				t.Fatalf("op %d: Cover(%#x) = (%#x, %#x, %v), model (%#x, %#x, %v)", op, addr, gb, gs, gok, wb, ws, wok)
			}
		case r < 450:
			what = "Lookup"
			_, _, wok := ref.cover(addr)
			if got := tlb.Lookup(addr); got != wok {
				t.Fatalf("op %d: Lookup(%#x) = %v, model %v", op, addr, got, wok)
			}
		case r < 700:
			what = "Insert"
			tlb.Insert(addr, ps)
			ref.insert(addr, ps)
		case r < 970:
			// The translate path: a miss, then InsertFresh at the size
			// the walk found.
			what = "InsertFresh"
			_, _, wok := ref.cover(addr)
			if got := tlb.Lookup(addr); got != wok {
				t.Fatalf("op %d: Lookup(%#x) before InsertFresh = %v, model %v", op, addr, got, wok)
			}
			if !wok {
				tlb.InsertFresh(addr, ps)
				ref.insert(addr, ps)
			}
		case r < 999:
			what = "FlushRange"
			size := ps // one page of the picked size, or a 64 KiB span
			if rng.Next()%4 == 0 {
				size = 16 * PageSize4K
			}
			tlb.FlushRange(addr, size)
			ref.flushRange(addr, size)
		default:
			what = "FlushAll"
			tlb.FlushAll()
			ref.flushAll()
		}
		if tlb.Stats() != ref.stats || tlb.Gen() != ref.gen {
			t.Fatalf("op %d (%s): stats %+v gen %d, model %+v gen %d", op, what, tlb.Stats(), tlb.Gen(), ref.stats, ref.gen)
		}
		total := 0
		for k, size := range ref.sizes {
			total += len(ref.ents[k])
			if got := tlb.Count(size); got != len(ref.ents[k]) {
				t.Fatalf("op %d (%s): Count(%#x) = %d, model %d", op, what, size, got, len(ref.ents[k]))
			}
		}
		if tlb.Len() != total {
			t.Fatalf("op %d (%s): Len = %d, model %d", op, what, tlb.Len(), total)
		}
	}
	s := tlb.Stats()
	if s.Hits == 0 || s.Misses == 0 || tlb.Gen() == 0 {
		t.Fatalf("sequence too tame: %+v, gen %d", s, tlb.Gen())
	}
	for k, size := range ref.sizes {
		if tlb.Capacity(size) != ref.caps[k] {
			t.Fatalf("Capacity(%#x) = %d, model %d", size, tlb.Capacity(size), ref.caps[k])
		}
	}
}
