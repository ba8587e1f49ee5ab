package vmx

import (
	"testing"
	"testing/quick"

	"covirt/internal/hw"
)

func TestEPTEmptyViolates(t *testing.T) {
	e := NewEPT()
	if _, err := e.Walk(0x1000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Fatalf("err = %v, want EPT violation", err)
	}
}

func TestEPTMapWalk(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x10000, 0x4000, PermAll); err != nil {
		t.Fatal(err)
	}
	res, err := e.Walk(0x10000, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageSize != hw.PageSize4K {
		t.Errorf("page size = %#x, want 4K", res.PageSize)
	}
	if res.Levels != 4 {
		t.Errorf("levels = %d, want 4", res.Levels)
	}
	if _, err := e.Walk(0x13FFF, false); err != nil {
		t.Errorf("last byte walk: %v", err)
	}
	if _, err := e.Walk(0x14000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("walk past end = %v, want violation", err)
	}
	if _, err := e.Walk(0xFFFF, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("walk before start = %v, want violation", err)
	}
}

func TestEPTPermissions(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x1000, 0x1000, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x1000, false); err != nil {
		t.Errorf("read of read-only page: %v", err)
	}
	if _, err := e.Walk(0x1000, true); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Errorf("write of read-only page = %v, want violation", err)
	}
}

func TestEPTCoalescing(t *testing.T) {
	e := NewEPT()
	// 1 GiB region aligned to 1 GiB: should be a single giant mapping.
	if err := e.MapRange(hw.PageSize1G, hw.PageSize1G, PermAll); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Mapped1G != 1 || s.Mapped2M != 0 || s.Mapped4K != 0 {
		t.Errorf("1G-aligned GiB: stats = %+v, want one 1G page", s)
	}
	res, err := e.Walk(hw.PageSize1G+12345, false)
	if err != nil || res.PageSize != hw.PageSize1G {
		t.Errorf("walk = %+v, %v; want 1G leaf", res, err)
	}
	if res.Levels != 2 {
		t.Errorf("1G walk levels = %d, want 2", res.Levels)
	}

	// A 2M+8K region starting 4K below a 2M boundary: 2 head 4K pages
	// cannot coalesce (misaligned), then one 2M page, no tail.
	e2 := NewEPT()
	start := uint64(hw.PageSize2M*5) - 2*hw.PageSize4K
	if err := e2.MapRange(start, hw.PageSize2M+2*hw.PageSize4K, PermAll); err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.Mapped2M != 1 || s2.Mapped4K != 2 {
		t.Errorf("stats = %+v, want 1x2M + 2x4K", s2)
	}
	if res, _ := e2.Walk(hw.PageSize2M*5, false); res.Levels != 3 {
		t.Errorf("2M walk levels = %d, want 3", res.Levels)
	}
}

func TestEPTDoubleMapRejected(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x0, hw.PageSize2M, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.MapRange(0x1000, 0x1000, PermAll); err == nil {
		t.Error("overlapping map accepted")
	}
	if err := e.MapRange(0x0, hw.PageSize2M, PermAll); err == nil {
		t.Error("duplicate map accepted")
	}
}

func TestEPTUnalignedRejected(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x100, 0x1000, PermAll); err == nil {
		t.Error("unaligned gpa accepted")
	}
	if err := e.MapRange(0x1000, 0x100, PermAll); err == nil {
		t.Error("unaligned size accepted")
	}
	if err := e.UnmapRange(0x10, 0x1000); err == nil {
		t.Error("unaligned unmap accepted")
	}
}

func TestEPTUnmapExact(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0x10000, 0x4000, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.UnmapRange(0x11000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x11000, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Error("unmapped page still walks")
	}
	for _, ok := range []uint64{0x10000, 0x12000, 0x13000} {
		if _, err := e.Walk(ok, false); err != nil {
			t.Errorf("neighbour %#x unmapped: %v", ok, err)
		}
	}
	if got := e.Stats().Bytes; got != 0x3000 {
		t.Errorf("bytes = %#x, want 0x3000", got)
	}
}

func TestEPTUnmapSplitsLargePage(t *testing.T) {
	e := NewEPT()
	if err := e.MapRange(0, hw.PageSize1G, PermAll); err != nil {
		t.Fatal(err)
	}
	// Punch a 4K hole in the middle of the giant page.
	hole := uint64(hw.PageSize1G / 2)
	if err := e.UnmapRange(hole, hw.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(hole, false); !hw.IsFault(err, hw.FaultEPTViolation) {
		t.Error("hole still mapped")
	}
	if _, err := e.Walk(hole-hw.PageSize4K, false); err != nil {
		t.Errorf("page below hole: %v", err)
	}
	if _, err := e.Walk(hole+hw.PageSize4K, true); err != nil {
		t.Errorf("page above hole: %v", err)
	}
	if _, err := e.Walk(0, false); err != nil {
		t.Errorf("start of former giant page: %v", err)
	}
	s := e.Stats()
	if s.Bytes != hw.PageSize1G-hw.PageSize4K {
		t.Errorf("bytes = %#x, want 1G-4K", s.Bytes)
	}
	if s.Mapped1G != 0 {
		t.Errorf("giant pages = %d after split", s.Mapped1G)
	}
}

func TestEPTUnmapUnmappedIsNoop(t *testing.T) {
	e := NewEPT()
	if err := e.UnmapRange(0x100000, 0x10000); err != nil {
		t.Fatalf("unmap of empty EPT: %v", err)
	}
	if err := e.MapRange(0x1000, 0x1000, PermAll); err != nil {
		t.Fatal(err)
	}
	if err := e.UnmapRange(0x5000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Walk(0x1000, false); err != nil {
		t.Errorf("unrelated unmap removed mapping: %v", err)
	}
}

func TestEPTGenerationBumps(t *testing.T) {
	e := NewEPT()
	g0 := e.Gen()
	if err := e.MapRange(0, hw.PageSize4K, PermAll); err != nil {
		t.Fatal(err)
	}
	if e.Gen() != g0+1 {
		t.Error("map did not bump generation")
	}
	if err := e.UnmapRange(0, hw.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if e.Gen() != g0+2 {
		t.Error("unmap did not bump generation")
	}
}

// Property: for any set of disjoint 4K-ranges mapped, every mapped page
// walks successfully, every unmapped probe violates, and Stats.Bytes equals
// the sum of mapped range sizes.
func TestEPTMapWalkProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		e := NewEPT()
		var total uint64
		mapped := map[uint64]bool{}
		for i, s := range seeds {
			if i >= 24 {
				break
			}
			start := uint64(s) * hw.PageSize2M // disjoint by construction
			size := uint64(s%5+1) * hw.PageSize4K
			if mapped[start] {
				continue
			}
			mapped[start] = true
			if err := e.MapRange(start, size, PermAll); err != nil {
				return false
			}
			total += size
			for off := uint64(0); off < size; off += hw.PageSize4K {
				if _, err := e.Walk(start+off, true); err != nil {
					return false
				}
			}
			if _, err := e.Walk(start+size, false); err == nil && size < hw.PageSize2M {
				return false
			}
		}
		return e.Stats().Bytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: map a range, unmap an arbitrary aligned subrange; exactly the
// pages outside the subrange remain mapped.
func TestEPTUnmapSubrangeProperty(t *testing.T) {
	f := func(startPg, sizePg, holePg, holeSzPg uint8) bool {
		size := (uint64(sizePg)%64 + 1) * hw.PageSize4K
		start := uint64(startPg) % 8 * hw.PageSize2M
		hole := start + (uint64(holePg)*hw.PageSize4K)%size
		holeSz := (uint64(holeSzPg)%32 + 1) * hw.PageSize4K
		e := NewEPT()
		if err := e.MapRange(start, size, PermAll); err != nil {
			return false
		}
		if err := e.UnmapRange(hole, holeSz); err != nil {
			return false
		}
		for off := uint64(0); off < size; off += hw.PageSize4K {
			a := start + off
			inHole := a >= hole && a < hole+holeSz
			_, err := e.Walk(a, true)
			if inHole && err == nil {
				return false
			}
			if !inHole && err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBestPageSize(t *testing.T) {
	cases := []struct {
		cur, rem, want uint64
	}{
		{0, hw.PageSize1G, hw.PageSize1G},
		{0, hw.PageSize1G - 1, hw.PageSize2M},
		{hw.PageSize2M, hw.PageSize2M, hw.PageSize2M},
		{hw.PageSize4K, hw.PageSize1G, hw.PageSize4K},
		{hw.PageSize2M, hw.PageSize2M - 1, hw.PageSize4K},
	}
	for _, c := range cases {
		if got := bestPageSize(c.cur, c.rem); got != c.want {
			t.Errorf("bestPageSize(%#x, %#x) = %#x, want %#x", c.cur, c.rem, got, c.want)
		}
	}
}

// TestEPTUnmapFreesTables: unmapping pieces in any order, across 1G, 2M
// and 4K leaves and the splits between them, leaves exactly the pages not
// yet unmapped, and once every piece is gone no table is left: each
// node's live count reached zero and its parent dropped it.
func TestEPTUnmapFreesTables(t *testing.T) {
	const base, size = uint64(1) << 30, uint64(1)<<30 + 6<<20 + 5*hw.PageSize4K
	pieces := []struct{ off, size uint64 }{
		{3 << 20, 4 * hw.PageSize4K},
		{0, 1 << 20},
		{1<<30 + 6<<20, 5 * hw.PageSize4K},
		{1 << 20, 2<<20 - hw.PageSize4K},
		{3<<20 + 4*hw.PageSize4K, 1<<30 + 3<<20 - 4*hw.PageSize4K},
		{3<<20 - hw.PageSize4K, hw.PageSize4K},
	}
	e := NewEPT()
	if err := e.MapRange(base, size, PermAll); err != nil {
		t.Fatal(err)
	}
	var gone []struct{ off, size uint64 }
	for _, p := range pieces {
		if err := e.UnmapRange(base+p.off, p.size); err != nil {
			t.Fatal(err)
		}
		gone = append(gone, p)
		for off := uint64(0); off < size; off += 1 << 20 / 2 {
			unmapped := false
			for _, g := range gone {
				unmapped = unmapped || off >= g.off && off < g.off+g.size
			}
			if e.Mapped(base+off) == unmapped {
				t.Fatalf("after unmapping %d pieces, offset %#x mapped = %v", len(gone), off, !unmapped)
			}
		}
	}
	if st := e.Stats(); st != (EPTStats{}) {
		t.Errorf("stats after unmapping everything = %+v", st)
	}
	if e.root.live != 0 {
		t.Errorf("root keeps %d live slots after unmapping everything", e.root.live)
	}
}
