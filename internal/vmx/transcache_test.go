package vmx

import (
	"testing"

	"covirt/internal/hw"
)

// uncachedVCPU is the reference translation path: a VCPU whose
// translation cache is emptied before every nested walk, so each TLB miss
// takes the full EPT walk.
type uncachedVCPU struct{ *VCPU }

// TranslateGPA implements hw.VirtLayer.
func (u uncachedVCPU) TranslateGPA(c *hw.CPU, gpa uint64, write bool) (uint64, uint64, error) {
	u.InvalidateTransCache()
	return u.VCPU.TranslateGPA(c, gpa, write)
}

// driveAccesses runs a representative guest access mix (TLB-missing random
// touches, streams, guarded reads) on a fresh machine + EPT-backed VCPU and
// returns the CPU for counter inspection. With cached false the VCPU runs
// behind uncachedVCPU.
func driveAccesses(t *testing.T, maxPage uint64, cached bool) *hw.CPU {
	t.Helper()
	m := vcpuTestMachine(t)
	c := m.CPU(0)
	base := m.Topo.Nodes[0].MemBase
	ept := NewEPT()
	if maxPage != 0 {
		ept.SetMaxPageSize(maxPage)
	}
	if err := ept.MapRange(hw.AlignUp(base, hw.PageSize4K), 512<<20, PermAll); err != nil {
		t.Fatal(err)
	}
	vmcs := NewVMCS(0)
	vmcs.EPT = ept
	v := Launch(c, vmcs, &killHandler{})
	if !cached {
		c.Virt = uncachedVCPU{v}
	}

	start := hw.AlignUp(base, hw.PageSize2M)
	rng := hw.NewRand(42)
	for i := 0; i < 20000; i++ {
		off := rng.Next() % (256 << 20)
		if err := c.MemAccess(start+off, i%3 == 0, hw.AccessDRAM); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.MemStream(start, 8<<20, true); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4096; i++ {
		if err := c.MemAccess(start+i*4099, false, hw.AccessDRAM); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read64G(start + 0x100); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTransCacheCostEquivalence proves the translation cache changes no
// simulated state: identical TSC, Instret, IRQ and TLB counters with the
// cache emptied before every walk vs in use, across page-size
// configurations.
func TestTransCacheCostEquivalence(t *testing.T) {
	for _, maxPage := range []uint64{0, hw.PageSize4K, hw.PageSize2M} {
		off := driveAccesses(t, maxPage, false)
		on := driveAccesses(t, maxPage, true)
		if off.TSC != on.TSC {
			t.Errorf("maxPage %d: TSC diverged: off %d on %d", maxPage, off.TSC, on.TSC)
		}
		if off.Instret != on.Instret {
			t.Errorf("maxPage %d: Instret diverged: off %d on %d", maxPage, off.Instret, on.Instret)
		}
		if off.TLB.Stats() != on.TLB.Stats() {
			t.Errorf("maxPage %d: TLB stats diverged: off %+v on %+v", maxPage, off.TLB.Stats(), on.TLB.Stats())
		}
	}
}

// TestTransCacheAbsorbsWalks checks the cache actually works: with giant
// coalesced leaves, repeated misses over one leaf walk the EPT once.
func TestTransCacheAbsorbsWalks(t *testing.T) {
	m := vcpuTestMachine(t)
	c := m.CPU(0)
	ept := NewEPT()
	// Node 1's memory base sits on a 1G boundary, so this coalesces into a
	// single giant leaf — the case where the paging-structure cache pays:
	// one cached walk covers 512 guest TLB misses.
	start := m.Topo.Nodes[1].MemBase
	if start%hw.PageSize1G != 0 {
		t.Fatalf("node1 base %#x not 1G-aligned", start)
	}
	if err := ept.MapRange(start, 1<<30, PermAll); err != nil {
		t.Fatal(err)
	}
	vmcs := NewVMCS(0)
	vmcs.EPT = ept
	Launch(c, vmcs, &killHandler{})

	rng := hw.NewRand(7)
	for i := 0; i < 5000; i++ {
		if err := c.MemAccess(start+rng.Next()%(512<<20), false, hw.AccessDRAM); err != nil {
			t.Fatal(err)
		}
	}
	// Random touches over 512 MiB of 2M guest pages miss the TLB nearly
	// every time, but all land in one giant leaf: the translation cache
	// must absorb almost every nested walk.
	if walks := ept.WalkCount(); walks > 64 {
		t.Errorf("WalkCount = %d; translation cache should have absorbed almost all walks", walks)
	}
}

// TestTransCacheInvalidatedByGen checks a remap is visible immediately: a
// cached translation must not survive an UnmapRange even without an
// explicit shootdown, because its generation stamp goes stale.
func TestTransCacheInvalidatedByGen(t *testing.T) {
	m := vcpuTestMachine(t)
	c := m.CPU(0)
	base := m.Topo.Nodes[0].MemBase
	ept := NewEPT()
	start := hw.AlignUp(base, hw.PageSize2M)
	if err := ept.MapRange(start, 4<<20, PermAll); err != nil {
		t.Fatal(err)
	}
	vmcs := NewVMCS(0)
	vmcs.EPT = ept
	v := Launch(c, vmcs, &killHandler{})

	if err := c.MemAccess(start, false, hw.AccessDRAM); err != nil {
		t.Fatal(err)
	}
	if err := ept.UnmapRange(start, 4<<20); err != nil {
		t.Fatal(err)
	}
	c.TLB.FlushAll() // hardware TLB shootdown; transcache left to gen check
	err := c.MemAccess(start, false, hw.AccessDRAM)
	if err == nil {
		t.Fatal("access to unmapped gpa succeeded via stale translation cache")
	}
	if f, ok := err.(*hw.Fault); !ok || f.Kind != hw.FaultEnclaveKilled {
		t.Fatalf("unexpected error %v", err)
	}
	v.InvalidateTransCache() // exercise the explicit hook too
}
