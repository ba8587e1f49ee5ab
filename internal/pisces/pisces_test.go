package pisces

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"covirt/internal/hw"
)

func TestLedgerAllocFree(t *testing.T) {
	l := NewLedger()
	if err := l.DonateMemory(hw.Extent{Start: 0, Size: 64 << 20, Node: 0}); err != nil {
		t.Fatal(err)
	}
	e1, err := l.AllocMemory(0, 10<<20)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Size != 10<<20 || e1.Start != 0 {
		t.Errorf("e1 = %v", e1)
	}
	e2, err := l.AllocMemory(0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Start != e1.End() {
		t.Errorf("e2 = %v, not adjacent to e1", e2)
	}
	if l.FreeBytes(0) != 64<<20-12<<20 {
		t.Errorf("free = %d", l.FreeBytes(0))
	}
	l.FreeMemory(e1)
	l.FreeMemory(e2)
	if l.FreeBytes(0) != 64<<20 {
		t.Errorf("free after return = %d", l.FreeBytes(0))
	}
	// Coalescing: a full-size alloc must succeed again.
	if _, err := l.AllocMemory(0, 64<<20); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestLedgerRoundsToGranule(t *testing.T) {
	l := NewLedger()
	if err := l.DonateMemory(hw.Extent{Start: 0, Size: 8 << 20, Node: 0}); err != nil {
		t.Fatal(err)
	}
	e, err := l.AllocMemory(0, 1) // rounds to 2M
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != hw.PageSize2M {
		t.Errorf("size = %d", e.Size)
	}
	if err := l.DonateMemory(hw.Extent{Start: 1 << 30, Size: 12345, Node: 0}); err == nil {
		t.Error("unaligned donation accepted")
	}
}

func TestLedgerExhaustion(t *testing.T) {
	l := NewLedger()
	_ = l.DonateMemory(hw.Extent{Start: 0, Size: 4 << 20, Node: 0})
	if _, err := l.AllocMemory(0, 8<<20); err == nil {
		t.Error("over-allocation succeeded")
	}
	if _, err := l.AllocMemory(1, 1<<20); err == nil {
		t.Error("allocation from empty node succeeded")
	}
}

func TestLedgerReserve(t *testing.T) {
	l := NewLedger()
	_ = l.DonateMemory(hw.Extent{Start: 0, Size: 16 << 20, Node: 0})
	mid := hw.Extent{Start: 4 << 20, Size: 4 << 20, Node: 0}
	if err := l.Reserve(mid); err != nil {
		t.Fatal(err)
	}
	if l.FreeBytes(0) != 12<<20 {
		t.Errorf("free = %d", l.FreeBytes(0))
	}
	// The reserved range cannot be reserved again.
	if err := l.Reserve(mid); err == nil {
		t.Error("double reserve succeeded")
	}
	// Both remaining halves are allocatable.
	a, err := l.AllocMemory(0, 4<<20)
	if err != nil || a.Start != 0 {
		t.Errorf("a = %v, %v", a, err)
	}
	b, err := l.AllocMemory(0, 8<<20)
	if err != nil || b.Start != 8<<20 {
		t.Errorf("b = %v, %v", b, err)
	}
}

func TestLedgerCores(t *testing.T) {
	topo := &hw.Topology{Nodes: []hw.NodeSpec{
		{ID: 0, Cores: []int{0, 1, 2}},
		{ID: 1, Cores: []int{3, 4, 5}},
	}}
	l := NewLedger()
	for c := 0; c < 6; c++ {
		l.DonateCore(c)
	}
	got, err := l.AllocCores(topo, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if topo.NodeOfCore(c) != 1 {
			t.Errorf("core %d not on node 1", c)
		}
	}
	if _, err := l.AllocCores(topo, 1, 2); err == nil {
		t.Error("over-allocation of node-1 cores succeeded")
	}
	l.FreeCores(got)
	if _, err := l.AllocCores(topo, 1, 2); err != nil {
		t.Errorf("realloc after free: %v", err)
	}
}

// Property: alloc/free sequences never lose or duplicate bytes.
func TestLedgerConservationProperty(t *testing.T) {
	const total = 256 << 20
	f := func(ops []uint8) bool {
		l := NewLedger()
		_ = l.DonateMemory(hw.Extent{Start: 0, Size: total, Node: 0})
		var held []hw.Extent
		var heldBytes uint64
		for _, op := range ops {
			if op%2 == 0 || len(held) == 0 {
				size := (uint64(op)%16 + 1) * hw.PageSize2M
				e, err := l.AllocMemory(0, size)
				if err != nil {
					continue
				}
				held = append(held, e)
				heldBytes += e.Size
			} else {
				i := int(op) % len(held)
				l.FreeMemory(held[i])
				heldBytes -= held[i].Size
				held = append(held[:i], held[i+1:]...)
			}
			if l.FreeBytes(0)+heldBytes != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBootParamsRoundTrip(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0x100000, 1<<20, 0, "bp"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	bp := &BootParams{
		EnclaveID:    7,
		Cores:        []int{3, 4, 9},
		Mem:          []hw.Extent{{Start: 0x200000, Size: 1 << 24, Node: 0}, {Start: 1 << 38, Size: 1 << 24, Node: 1}},
		CtlReqRing:   0x101000,
		CtlRespRing:  0x102000,
		LcReqRing:    0x103000,
		LcRespRing:   0x104000,
		CovirtParams: 0x105000,
	}
	if err := EncodeBootParams(io, 0x100000, bp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBootParams(io, 0x100000)
	if err != nil {
		t.Fatal(err)
	}
	if got.EnclaveID != 7 || len(got.Cores) != 3 || got.Cores[2] != 9 {
		t.Errorf("cores = %+v", got)
	}
	if len(got.Mem) != 2 || got.Mem[1].Node != 1 {
		t.Errorf("mem = %+v", got.Mem)
	}
	if got.CovirtParams != 0x105000 || got.LcRespRing != 0x104000 {
		t.Errorf("rings = %+v", got)
	}
	// Corrupt magic is detected.
	if err := pm.Write64(0x100000, 0xBAD); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBootParams(io, 0x100000); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBootParamsLimits(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "bp"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	tooManyCores := &BootParams{Cores: make([]int, MaxBootCores+1)}
	if err := EncodeBootParams(io, 0, tooManyCores); err == nil {
		t.Error("oversized core list accepted")
	}
	tooManyExts := &BootParams{Mem: make([]hw.Extent, MaxBootExtents+1)}
	if err := EncodeBootParams(io, 0, tooManyExts); err == nil {
		t.Error("oversized extent list accepted")
	}
}

func TestRingPushPop(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "ring"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	done := make(chan struct{})
	defer close(done)
	r := NewRing(0x1000, done)
	if err := r.Init(io); err != nil {
		t.Fatal(err)
	}
	var m Msg
	m.Type = 42
	m.Seq = 7
	copy(m.Payload[:], "payload bytes")
	if err := r.Push(io, &m); err != nil {
		t.Fatal(err)
	}
	var out Msg
	if err := r.Pop(io, &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != 42 || out.Seq != 7 || string(out.Payload[:13]) != "payload bytes" {
		t.Errorf("out = %+v", out)
	}
	// Empty ring: TryPop reports nothing.
	ok, err := r.TryPop(io, &out)
	if err != nil || ok {
		t.Errorf("TryPop on empty = %v, %v", ok, err)
	}
}

func TestRingOrderAndCapacity(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "ring"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	r := NewRing(0, nil)
	_ = r.Init(io)
	for i := 0; i < RingSlots; i++ {
		m := Msg{Type: uint32(i)}
		if err := r.Push(io, &m); err != nil {
			t.Fatal(err)
		}
	}
	// Ring is full now; a blocked Push should complete once we Pop.
	donePush := make(chan error, 1)
	go func() {
		m := Msg{Type: 999}
		donePush <- r.Push(io, &m)
	}()
	var out Msg
	for i := 0; i < RingSlots; i++ {
		if err := r.Pop(io, &out); err != nil {
			t.Fatal(err)
		}
		if out.Type != uint32(i) {
			t.Fatalf("pop %d = type %d (FIFO violated)", i, out.Type)
		}
	}
	if err := <-donePush; err != nil {
		t.Fatal(err)
	}
	if err := r.Pop(io, &out); err != nil || out.Type != 999 {
		t.Errorf("blocked push message = %+v, %v", out, err)
	}
}

func TestRingCloseUnblocks(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "ring"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	r := NewRing(0, nil)
	_ = r.Init(io)
	errc := make(chan error, 1)
	go func() {
		var m Msg
		errc <- r.Pop(io, &m)
	}()
	r.Close()
	if err := <-errc; err == nil {
		t.Error("Pop on closed ring returned nil")
	}
	var m Msg
	if err := r.Push(io, &m); err == nil {
		t.Error("Push on closed ring succeeded")
	}
}

// Property: any sequence of messages round-trips in order through the ring.
func TestRingFIFOProperty(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "ring"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	f := func(types []uint32) bool {
		r := NewRing(0x2000, nil)
		if r.Init(io) != nil {
			return false
		}
		if len(types) > RingSlots {
			types = types[:RingSlots]
		}
		for _, ty := range types {
			if r.Push(io, &Msg{Type: ty}) != nil {
				return false
			}
		}
		for _, ty := range types {
			var out Msg
			if r.Pop(io, &out) != nil || out.Type != ty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExtentHelpers(t *testing.T) {
	pm := hw.NewPhysMem()
	if _, err := pm.AddRegion(0, 1<<20, 0, "x"); err != nil {
		t.Fatal(err)
	}
	io := NativeMemIO{Mem: pm}
	exts := []hw.Extent{{Start: 0x1000, Size: 0x2000, Node: 0}, {Start: 1 << 38, Size: 1 << 21, Node: 1}}
	if err := PutExtents(io, 0x8000, exts); err != nil {
		t.Fatal(err)
	}
	got, err := GetExtents(io, 0x8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != exts[0] || got[1] != exts[1] {
		t.Errorf("got = %v", got)
	}
	if _, err := GetExtents(io, 0x8000, LcDataBytes); err == nil {
		t.Error("oversized extent count accepted")
	}
	if err := PutExtents(io, 0x8000, make([]hw.Extent, LcDataBytes)); err == nil {
		t.Error("oversized extent list accepted")
	}
}

// TestCtlDrainNestedCallsFoldIntoOnePass: calls made from inside a drain
// pass do not run the drain themselves; however many arrive during one
// pass, the active drain makes exactly one more pass, and the guard is
// idle again afterwards.
func TestCtlDrainNestedCallsFoldIntoOnePass(t *testing.T) {
	var d CtlDrain
	var passes, depth, maxDepth int
	var drain func()
	drain = func() {
		passes++
		depth++
		maxDepth = max(maxDepth, depth)
		if passes == 1 {
			d.Run(drain)
			d.Run(drain)
		}
		depth--
	}
	d.Run(drain)
	if passes != 2 || maxDepth != 1 {
		t.Errorf("passes = %d, max nesting = %d; want 2 passes, never nested", passes, maxDepth)
	}
	d.Run(drain)
	if passes != 3 {
		t.Errorf("idle guard ran %d passes for one call, want 1", passes-2)
	}
}

// TestCtlDrainConcurrentCallsLoseNothing: callers racing from several
// goroutines never run two passes at once, and the last pass starts after
// the last request, so every request is served.
func TestCtlDrainConcurrentCallsLoseNothing(t *testing.T) {
	var d CtlDrain
	var requested, served, inPass atomic.Int64
	drain := func() {
		if inPass.Add(1) != 1 {
			t.Error("two drain passes ran at once")
		}
		served.Store(requested.Load())
		inPass.Add(-1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				requested.Add(1)
				d.Run(drain)
			}
		}()
	}
	wg.Wait()
	if served.Load() != requested.Load() {
		t.Errorf("last pass served %d of %d requests", served.Load(), requested.Load())
	}
}

// TestNameHashStable pins the XEMEM name wire encoding to 64-bit FNV-1a:
// the guest, the host exporters and the fleet registry must agree on it,
// and the seeded job and fabric streams derive from it.
func TestNameHashStable(t *testing.T) {
	for _, s := range []string{"", "a", "abc", "stale.seg", "fabric/1/link/0/3"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := NameHash(s), h.Sum64(); got != want {
			t.Errorf("NameHash(%q) = %#x, want FNV-1a %#x", s, got, want)
		}
	}
	if NameHash("abc") == NameHash("abd") {
		t.Error("trivial collision")
	}
}
