package hw

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegionAddFindRemove(t *testing.T) {
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x1000, 0x4000, 0, "a")
	if err != nil {
		t.Fatalf("AddRegion: %v", err)
	}
	if got := pm.Find(0x1000); got != r {
		t.Errorf("Find(start) = %v, want %v", got, r)
	}
	if got := pm.Find(0x4FFF); got != r {
		t.Errorf("Find(end-1) = %v, want %v", got, r)
	}
	if got := pm.Find(0x5000); got != nil {
		t.Errorf("Find(end) = %v, want nil", got)
	}
	if got := pm.Find(0xFFF); got != nil {
		t.Errorf("Find(start-1) = %v, want nil", got)
	}
	if rm := pm.RemoveRegion(0x1000); rm != r {
		t.Errorf("RemoveRegion = %v, want %v", rm, r)
	}
	if got := pm.Find(0x1000); got != nil {
		t.Errorf("Find after remove = %v, want nil", got)
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0x1000, 0, "a"); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ start, size uint64 }{
		{0x1000, 0x1000}, // exact duplicate
		{0x800, 0x900},   // overlaps head
		{0x1800, 0x1000}, // overlaps tail
		{0x800, 0x3000},  // engulfs
		{0x1400, 0x100},  // inside
	}
	for _, c := range cases {
		if _, err := pm.AddRegion(c.start, c.size, 0, "b"); err == nil {
			t.Errorf("AddRegion(%#x,%#x) succeeded, want overlap error", c.start, c.size)
		}
	}
	// Adjacent regions are fine.
	if _, err := pm.AddRegion(0x2000, 0x1000, 0, "c"); err != nil {
		t.Errorf("adjacent AddRegion failed: %v", err)
	}
	if _, err := pm.AddRegion(0x0, 0x1000, 0, "d"); err != nil {
		t.Errorf("adjacent-below AddRegion failed: %v", err)
	}
}

func TestRegionRejectsZeroAndWrap(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0, 0, "zero"); err == nil {
		t.Error("zero-size region accepted")
	}
	if _, err := pm.AddRegion(^uint64(0)-0x10, 0x100, 0, "wrap"); err == nil {
		t.Error("wrapping region accepted")
	}
}

func TestPhysMemReadWrite(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x10000, 1<<20, 1, "m"); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write64(0x10008, 0xDEADBEEFCAFE); err != nil {
		t.Fatalf("Write64: %v", err)
	}
	v, err := pm.Read64(0x10008)
	if err != nil || v != 0xDEADBEEFCAFE {
		t.Fatalf("Read64 = %#x, %v; want 0xDEADBEEFCAFE", v, err)
	}
	// Unwritten memory reads zero.
	v, err = pm.Read64(0x10000 + 1<<19)
	if err != nil || v != 0 {
		t.Fatalf("Read64(untouched) = %#x, %v; want 0", v, err)
	}
	// Cross-page write/read; the write spans three 4 KiB pages.
	buf := make([]byte, PageSize4K+100)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := pm.Write(0x10000+PageSize4K-50, buf); err != nil {
		t.Fatalf("cross-page Write: %v", err)
	}
	got := make([]byte, len(buf))
	if err := pm.Read(0x10000+PageSize4K-50, got); err != nil {
		t.Fatalf("cross-page Read: %v", err)
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], buf[i])
		}
	}
	if pm.NodeOf(0x10000) != 1 {
		t.Errorf("NodeOf = %d, want 1", pm.NodeOf(0x10000))
	}
	if pm.NodeOf(0x0) != -1 {
		t.Errorf("NodeOf(unbacked) = %d, want -1", pm.NodeOf(0x0))
	}
}

// backedPages counts the pages installed in r's radix.
func backedPages(r *Region) int {
	n := 0
	for i := range r.root {
		d1 := r.root[i].Load()
		for j := 0; d1 != nil && j < len(d1); j++ {
			d2 := d1[j].Load()
			for k := 0; d2 != nil && k < len(d2); k++ {
				d3 := d2[k].Load()
				for l := 0; d3 != nil && l < len(d3); l++ {
					if d3[l].Load() != nil {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestPhysMemZeroFillIsUnbacked: a read of a page nobody has written
// returns zeros, allocates nothing and leaves the page unbacked; only a
// write backs a page. A first-touch write allocates the 4 KiB page plus
// the interior nodes above it that no earlier write installed: at most
// three 512-byte nodes, when the write is the first in its 256 KiB
// granule, and none otherwise.
func TestPhysMemZeroFillIsUnbacked(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x100000, 1<<20, 0, "z")
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x100000 + 5*PageSize4K + 8)
	if a := testing.AllocsPerRun(100, func() {
		if v, err := pm.Read64(addr); err != nil || v != 0 {
			t.Fatalf("Read64(untouched) = %#x, %v; want 0", v, err)
		}
	}); a != 0 {
		t.Errorf("Read64 of an unwritten page allocates %v per call", a)
	}
	buf := []byte{1, 2, 3}
	if err := pm.Read(0x100000+PageSize4K-1, buf); err != nil || buf[0]|buf[1]|buf[2] != 0 {
		t.Errorf("straddling Read of unwritten pages = %v, %v; want zeros", buf, err)
	}
	if n := backedPages(r); n != 0 {
		t.Fatalf("reads backed %d pages, want 0", n)
	}

	const dirBytes = 512
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
	firstTouch := func(addr uint64) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pm.Write64(addr, 0xFEED); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	// The region's first write is the first in its 256 KiB granule.
	if a, b := firstTouch(0x100000 + 16*PageSize4K); a > 4 || b > PageSize4K+3*dirBytes {
		t.Errorf("first write in a granule: %d allocations, %d bytes; want at most 4 and %d",
			a, b, PageSize4K+3*dirBytes)
	}
	if a, b := firstTouch(0x100000 + 17*PageSize4K); a != 1 || b != PageSize4K {
		t.Errorf("first write to a page in a backed granule: %d allocations, %d bytes; want 1 and %d",
			a, b, PageSize4K)
	}
	if n := backedPages(r); n != 2 {
		t.Fatalf("two first-touch writes backed %d pages, want 2", n)
	}
	if v, err := pm.Read64(0x100000 + 16*PageSize4K); err != nil || v != 0xFEED {
		t.Errorf("Read64 after first touch = %#x, %v; want 0xfeed", v, err)
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := pm.Write64(0x100000+17*PageSize4K+8, 1); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Write64 to a backed page allocates %v per call", a)
	}
}

// TestPhysMemStraddlingWrite: a word written across a page boundary reads
// back whole, and backs exactly the two pages it touches.
func TestPhysMemStraddlingWrite(t *testing.T) {
	pm := NewPhysMem()
	r, err := pm.AddRegion(0x100000, 1<<20, 0, "s")
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x100000 + 3*PageSize4K - 3)
	if err := pm.Write64(addr, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	if v, err := pm.Read64(addr); err != nil || v != 0x0123456789ABCDEF {
		t.Errorf("straddling Read64 = %#x, %v; want 0x0123456789abcdef", v, err)
	}
	// The word's low three bytes end the first page.
	if v, err := pm.Read64(addr - 5); err != nil || v != 0xABCDEF<<40 {
		t.Errorf("Read64 of the first page's last word = %#x, %v; want %#x", v, err, uint64(0xABCDEF)<<40)
	}
	if n := backedPages(r); n != 2 {
		t.Errorf("straddling write backed %d pages, want 2", n)
	}
}

// TestPhysMemFirstTouchRace writes a page's first word on one goroutine
// while another reads it, page after page. The reader must see either the
// zero fill or the whole new value, never a mix of the two. Run it under
// -race.
func TestPhysMemFirstTouchRace(t *testing.T) {
	pm := NewPhysMem()
	const base, pages = 0x100000, 256
	if _, err := pm.AddRegion(base, pages*PageSize4K, 0, "race"); err != nil {
		t.Fatal(err)
	}
	const val = 0x0123456789ABCDEF
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := uint64(0); p < pages; p++ {
			if err := pm.Write64(base+p*PageSize4K+8, val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for p := uint64(0); p < pages; p++ {
		for {
			v, err := pm.Read64(base + p*PageSize4K + 8)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 && v != val {
				t.Fatalf("page %d read %#x: neither the zero fill nor %#x", p, v, uint64(val))
			}
			if v == val {
				break
			}
		}
	}
	<-done
}

// TestPhysMemConcurrentPartialWrites: two goroutines repeatedly write
// disjoint bytes of the same 8-byte span, and after every write each reads
// the span back and checks its own bytes. A partial-word write must merge
// into the word, not load it, patch it and store it back: that would
// restore the other goroutine's stale bytes and lose its write. The span
// is an aligned word, then a span straddling a page boundary, where the
// inner writer's bytes cross into the second page. Run it under -race.
func TestPhysMemConcurrentPartialWrites(t *testing.T) {
	pm := NewPhysMem()
	const base = 0x100000
	if _, err := pm.AddRegion(base, 4*PageSize4K, 0, "partial"); err != nil {
		t.Fatal(err)
	}
	const rounds = 20000
	for _, span := range []uint64{base + PageSize4K + 64, base + 2*PageSize4K - 4} {
		// The inner writer owns bytes [2,6) of the span, the outer writer
		// bytes [0,2) and [6,8).
		owners := [2][][2]uint64{{{2, 6}}, {{0, 2}, {6, 8}}}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g, own := range owners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got, p [8]byte
				<-start
				for i := range rounds {
					v := byte(i*2 + g + 1)
					for _, rg := range own {
						for k := range p {
							p[k] = v
						}
						if err := pm.Write(span+rg[0], p[:rg[1]-rg[0]]); err != nil {
							t.Error(err)
							return
						}
					}
					if err := pm.Read(span, got[:]); err != nil {
						t.Error(err)
						return
					}
					for _, rg := range own {
						for k := rg[0]; k < rg[1]; k++ {
							if got[k] != v {
								t.Errorf("span %#x byte %d = %#x after writing %#x: the write was lost",
									span, k, got[k], v)
								return
							}
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

func TestPhysMemBusError(t *testing.T) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(0x1000, 0x1000, 0, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Read64(0x0); !IsFault(err, FaultBusError) {
		t.Errorf("Read64(unbacked) err = %v, want bus error", err)
	}
	// Access straddling the end of a region is also a bus error.
	if err := pm.Write64(0x1FFC, 1); !IsFault(err, FaultBusError) {
		t.Errorf("straddling Write64 err = %v, want bus error", err)
	}
	f := &Fault{}
	if IsFault(f, FaultEPTViolation) {
		t.Error("IsFault matched wrong kind")
	}
}

func TestAlignHelpers(t *testing.T) {
	if AlignDown(0x12345, PageSize4K) != 0x12000 {
		t.Error("AlignDown wrong")
	}
	if AlignUp(0x12345, PageSize4K) != 0x13000 {
		t.Error("AlignUp wrong")
	}
	if AlignUp(0x12000, PageSize4K) != 0x12000 {
		t.Error("AlignUp of aligned value changed it")
	}
}

// Property: a written value is always read back identically anywhere within
// a region, across chunk boundaries.
func TestPhysMemRoundTripProperty(t *testing.T) {
	pm := NewPhysMem()
	const base, size = 0x100000, 1 << 22
	if _, err := pm.AddRegion(base, size, 0, "p"); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, val uint64) bool {
		addr := base + uint64(off)%(size-8)
		if err := pm.Write64(addr, val); err != nil {
			return false
		}
		got, err := pm.Read64(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddRegion never produces overlapping regions, whatever the
// sequence of adds.
func TestRegionDisjointProperty(t *testing.T) {
	f := func(starts []uint16, sizes []uint8) bool {
		pm := NewPhysMem()
		n := len(starts)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			// Errors are fine; we only care about the invariant below.
			//covirt:allow physmem-errcheck overlap rejections are the point of this property test
			_, _ = pm.AddRegion(uint64(starts[i])*0x100, uint64(sizes[i])*0x100+0x100, 0, "r")
		}
		regs := pm.Regions()
		for i := 1; i < len(regs); i++ {
			if regs[i-1].End() > regs[i].Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
