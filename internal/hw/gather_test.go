package hw

import (
	"fmt"
	"testing"
)

// referenceGather is the element-at-a-time loop AccessGather batches: an
// optional compute charge, then one MemAccess, with a full poll after each
// operation. Kept as the oracle the batched implementation must match
// cycle-for-cycle.
func referenceGather(c *CPU, addrs []uint64, computePer uint64, write bool, kind AccessKind) error {
	for _, addr := range addrs {
		if computePer != 0 {
			if err := c.Compute(computePer); err != nil {
				return err
			}
		}
		if err := c.MemAccess(addr, write, kind); err != nil {
			return err
		}
	}
	return nil
}

// gatherAddrs builds a deterministic pseudo-random address pattern that
// alternates between two extents, the shape the workload chargers feed in.
func gatherAddrs(n int, aBase, aSize, bBase, bSize uint64) []uint64 {
	rng := NewRand(0x5DEECE66D)
	addrs := make([]uint64, n)
	for i := range addrs {
		if i%2 == 1 && bSize > 0 {
			addrs[i] = bBase + (rng.Next()%(bSize/8))*8
		} else {
			addrs[i] = aBase + (rng.Next()%(aSize/8))*8
		}
	}
	return addrs
}

func TestAccessGatherMatchesComputeAccessLoop(t *testing.T) {
	local := uint64(1 << 21)
	remote := uint64(1<<38) + 4<<20 // node-1 memory: remote-scaled costs
	cases := []struct {
		name       string
		addrs      []uint64
		computePer uint64
		kind       AccessKind
	}{
		{"local-dram", gatherAddrs(4096, local, 64<<20, 0, 0), 0, AccessDRAM},
		{"local-hot", gatherAddrs(4096, local, 64<<20, 0, 0), 0, AccessHot},
		{"alternating-remote", gatherAddrs(4096, local, 64<<20, remote, 64<<20), 0, AccessDRAM},
		{"with-compute", gatherAddrs(4096, local, 64<<20, remote, 64<<20), 6, AccessDRAM},
		{"single", gatherAddrs(1, local, 1<<20, 0, 0), 3, AccessDRAM},
		{"empty", nil, 6, AccessDRAM},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, r := twinCPUs(t)
			if err := b.AccessGather(tc.addrs, tc.computePer, true, tc.kind); err != nil {
				t.Fatalf("batched: %v", err)
			}
			if err := referenceGather(r, tc.addrs, tc.computePer, true, tc.kind); err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameState(t, tc.name, b, r)
		})
	}
}

func TestAccessGatherTimerTickLandsOnSameElement(t *testing.T) {
	for _, computePer := range []uint64{0, 6} {
		b, r := twinCPUs(t)
		const vec = 0x42
		interval := uint64(9_973) // prime, lands mid-batch
		b.APIC.ArmTimer(b.TSC, interval, vec)
		r.APIC.ArmTimer(r.TSC, interval, vec)
		addrs := gatherAddrs(50_000, 1<<21, 128<<20, (1<<38)+4<<20, 64<<20)
		if err := b.AccessGather(addrs, computePer, false, AccessDRAM); err != nil {
			t.Fatalf("batched: %v", err)
		}
		if err := referenceGather(r, addrs, computePer, false, AccessDRAM); err != nil {
			t.Fatalf("reference: %v", err)
		}
		assertSameState(t, "timer", b, r)
		if b.IRQsTaken == 0 {
			t.Fatalf("timer never fired")
		}
	}
}

func TestAccessGatherFaultChargesExactPrefix(t *testing.T) {
	// Walk off the end of node 0's memory natively: the access that leaves
	// backed space aborts, and the prefix before it must charge exactly
	// what the per-element loop charged.
	b, r := twinCPUs(t)
	reg := b.M.Mem.Find(1 << 21)
	if reg == nil {
		t.Fatalf("no backing region")
	}
	addrs := make([]uint64, 128)
	for i := range addrs {
		addrs[i] = reg.End() - 64*PageSize4K + uint64(i)*PageSize4K
	}
	berr := b.AccessGather(addrs, 4, false, AccessDRAM)
	rerr := referenceGather(r, addrs, 4, false, AccessDRAM)
	if berr == nil || rerr == nil {
		t.Fatalf("expected faults, got batched=%v reference=%v", berr, rerr)
	}
	if bf, rf := berr.(*Fault), rerr.(*Fault); bf.Kind != rf.Kind {
		t.Fatalf("fault kinds diverged: batched %v reference %v", bf.Kind, rf.Kind)
	}
	assertSameState(t, "fault-prefix", b, r)
}

func TestAccessGatherPublishesTSCShadow(t *testing.T) {
	// A long batch with no pending events must still keep the published
	// shadow within gatherShadowEvery elements of the true TSC: the
	// watchdog reads it cross-goroutine to prove the core is alive.
	b, _ := twinCPUs(t)
	addrs := gatherAddrs(10_000, 1<<21, 64<<20, 0, 0)
	if err := b.AccessGather(addrs, 0, false, AccessDRAM); err != nil {
		t.Fatalf("gather: %v", err)
	}
	if got := b.TSCSnapshot(); got != b.TSC {
		t.Errorf("final shadow %d != TSC %d", got, b.TSC)
	}
}

// threeRegionAddrs alternates elements between node 0's memory and node 1's,
// the sparse chargers' halo shape, and sends every 16th element to a third
// region instead.
func threeRegionAddrs(n int, third uint64) []uint64 {
	addrs := gatherAddrs(n, 1<<21, 64<<20, nodeStride+4<<20, 64<<20)
	for i := 5; i < n; i += 16 {
		addrs[i] = third + uint64(i)*PageSize4K%(16<<20)
	}
	return addrs
}

// TestAccessGatherRegionMemoAcrossRegions drives the batched gather and the
// per-element loop over three regions on two nodes and requires the same
// TSC, Instret and IRQ count. The unmapped cases put a bus error at the
// first, second, middle and last element: both paths must crash the node at
// the same element, naming the same address. The layout case gathers from
// one region while the timer handler moves it to the other node, many
// times mid-batch: the region never leaves the memo, so the memo must
// drop it at each generation change or charge a stale node's cost.
func TestAccessGatherRegionMemoAcrossRegions(t *testing.T) {
	const n = 4096
	const third = uint64(1) << 37 // between node 0's and node 1's memory
	const unmapped = uint64(1) << 36
	addThird := func(t *testing.T, c *CPU, node int) {
		t.Helper()
		if _, err := c.M.Mem.AddRegion(third, 16<<20, node, "third"); err != nil {
			t.Fatal(err)
		}
	}
	for _, computePer := range []uint64{0, 6} {
		t.Run(fmt.Sprintf("compute%d", computePer), func(t *testing.T) {
			for _, bad := range []int{-1, 0, 1, n / 2, n - 1} {
				b, r := twinCPUs(t)
				addThird(t, b, 0)
				addThird(t, r, 0)
				addrs := threeRegionAddrs(n, third)
				if bad >= 0 {
					addrs[bad] = unmapped + uint64(bad)*PageSize4K
				}
				berr := b.AccessGather(addrs, computePer, false, AccessDRAM)
				rerr := referenceGather(r, addrs, computePer, false, AccessDRAM)
				what := fmt.Sprintf("unmapped at %d", bad)
				if bad < 0 {
					what = "all mapped"
					if berr != nil || rerr != nil {
						t.Fatalf("%s: errs = %v, %v", what, berr, rerr)
					}
				} else if berr == nil || rerr == nil || berr.Error() != rerr.Error() {
					t.Errorf("%s: batched err %v, reference err %v", what, berr, rerr)
				}
				assertSameState(t, what, b, r)
			}

			b, r := twinCPUs(t)
			moves := 0
			for _, c := range []*CPU{b, r} {
				addThird(t, c, 0)
				node := 0
				c.SetIRQHandler(func(c *CPU, vector uint8, external bool) {
					node ^= 1
					c.M.Mem.RemoveRegion(third)
					if _, err := c.M.Mem.AddRegion(third, 16<<20, node, "third"); err != nil {
						t.Error(err)
					}
					if c == b {
						moves++
					}
				})
				c.APIC.ArmTimer(c.TSC, 9_973, 0x42)
			}
			addrs := gatherAddrs(n, third, 16<<20, 0, 0)
			if err := b.AccessGather(addrs, computePer, false, AccessDRAM); err != nil {
				t.Fatalf("batched: %v", err)
			}
			if err := referenceGather(r, addrs, computePer, false, AccessDRAM); err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameState(t, "layout change", b, r)
			if moves < 2 {
				t.Fatalf("the third region moved %d times; want several mid-batch", moves)
			}
		})
	}
}
