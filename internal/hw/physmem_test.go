package hw

import (
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
	// Cross-chunk write/read (the chunk granule is one 4 KiB page); the
	// write spans three pages.
	buf := make([]byte, regionChunk+100)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := pm.Write(0x10000+regionChunk-50, buf); err != nil {
		t.Fatalf("cross-chunk Write: %v", err)
	}
	got := make([]byte, len(buf))
	if err := pm.Read(0x10000+regionChunk-50, got); err != nil {
		t.Fatalf("cross-chunk Read: %v", err)
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

// TestPhysMemZeroFillIsUnbacked: a read of a page nobody has written
// returns zeros, allocates nothing and leaves the page unbacked; only a
// write backs a page, and then exactly that one 4 KiB page.
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
	if n := len(r.chunks); n != 0 {
		t.Fatalf("reads backed %d pages, want 0", n)
	}

	// Each run writes a page nobody has written: the warm-up run sizes
	// the chunk map, after which a first-touch write is one allocation.
	next := uint64(0x100000 + 16*PageSize4K)
	if a := testing.AllocsPerRun(1, func() {
		if err := pm.Write64(next, 0xFEED); err != nil {
			t.Fatal(err)
		}
		next += PageSize4K
	}); a != 1 {
		t.Errorf("first-touch Write64 makes %v allocations, want 1", a)
	}
	if n := len(r.chunks); n != 2 {
		t.Fatalf("two first-touch writes backed %d pages, want 2", n)
	}
	for idx, c := range r.chunks {
		if len(c) != PageSize4K {
			t.Errorf("page %d backed by %d bytes, want %d", idx, len(c), PageSize4K)
		}
	}
	if v, err := pm.Read64(0x100000 + 16*PageSize4K); err != nil || v != 0xFEED {
		t.Errorf("Read64 after first touch = %#x, %v; want 0xfeed", v, err)
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
	if n := len(r.chunks); n != 2 {
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
