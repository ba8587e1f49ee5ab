package hw

import (
	"fmt"
	"slices"
	"testing"
)

// referenceGather is the element-at-a-time loop AccessGather batches: an
// optional compute charge, then one data access, with poll's slow path
// after each operation. Kept as the oracle the batched implementation must
// match cycle-for-cycle.
func referenceGather(c *CPU, addrs []uint64, computePer uint64, write bool, kind AccessKind) error {
	for _, addr := range addrs {
		if computePer != 0 {
			if err := referenceCompute(c, computePer); err != nil {
				return err
			}
		}
		if err := referenceAccess(c, addr, write, kind); err != nil {
			return err
		}
	}
	return nil
}

// referenceCompute is Compute with poll's slow path in place of poll, so
// an oracle built on it shares no event check with the code under test.
func referenceCompute(c *CPU, n uint64) error {
	c.Instret += n
	c.charge(n * c.Costs().Compute)
	return c.deliver()
}

// referenceAccess is MemAccess with poll's slow path in place of poll.
func referenceAccess(c *CPU, addr uint64, write bool, kind AccessKind) error {
	if err := c.guardData(addr, write, kind); err != nil {
		return err
	}
	return c.deliver()
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

// pageAddrs returns n word addresses at pseudo-random offsets in pages
// drawn at random from the given 2 MiB pages.
func pageAddrs(n int, seed uint64, pages ...uint64) []uint64 {
	rng := NewRand(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = pages[rng.Next()%uint64(len(pages))] + rng.Next()%PageSize2M&^7
	}
	return addrs
}

// warmPages caches the 2 MiB translation of every page addrs touch
// without counting a hit or a miss.
func warmPages(c *CPU, addrs []uint64) {
	for _, a := range addrs {
		c.TLB.Insert(a, PageSize2M)
	}
}

// TestAccessGatherResidentRun holds the batched gather to the per-element
// loop, under assertSameState, on batches that start on TLB-resident
// pages and so begin with a resident run. Each case runs two batches
// back to back on one CPU, the first one's pages cached before it, and checks
// the state after each: 1 to 4 resident pages and then a fifth, which
// joins the set or, after four, ends the run on a full set; local and
// remote extents that straddle 2 MiB boundaries; a page of the set
// evicted between the batches by inserts that fill the 2M class, so which
// page goes depends on the recency the first run left; a timer handler
// that flushes a page of the set mid-run; a region the timer handler
// moves to the other node mid-batch; a timer handler that kills the CPU
// mid-run; 1G, 2M and 4K entries over one page; and an unmapped first
// element in the second batch.
func TestAccessGatherResidentRun(t *testing.T) {
	const n = 3000
	const third = uint64(1) << 37 // a 4 MiB region between node 0's and node 1's memory
	set := []uint64{4 * PageSize2M, nodeStride + 6*PageSize2M, 5 * PageSize2M, nodeStride + 7*PageSize2M}
	fifth := uint64(9 * PageSize2M)
	type gatherCase struct {
		name          string
		first, second []uint64
		prep          func(t *testing.T, c *CPU) // before the first batch
		warm          func(c *CPU)               // nil: cache first's 2 MiB pages
		between       func(c *CPU)
		wantErr       bool // the second batch fails
	}
	var cases []gatherCase
	for k := 1; k <= len(set); k++ {
		pages := append(slices.Clone(set[:k]), fifth)
		second := pageAddrs(n, 2, set[:k]...)
		copy(second[n/2:], pageAddrs(n/2, 3, pages...))
		cases = append(cases, gatherCase{
			name:   fmt.Sprintf("%d pages then a fifth", k),
			first:  pageAddrs(n, 1, pages...),
			second: second,
		})
	}
	// An extent straddling a 2 MiB boundary on each node, as MiniFE's
	// 512 KiB vector extents do.
	straddle := gatherAddrs(n, 3*PageSize2M-256<<10, 512<<10, nodeStride+5*PageSize2M-128<<10, 512<<10)
	cases = append(cases, gatherCase{name: "straddling extents", first: straddle, second: straddle})
	cases = append(cases, gatherCase{
		name:   "page evicted between batches",
		first:  pageAddrs(n, 4, set...),
		second: pageAddrs(n, 5, set...),
		between: func(c *CPU) {
			for i := range uint64(c.TLB.Capacity(PageSize2M) - len(set) + 1) {
				c.TLB.Insert(16*PageSize2M+i*PageSize2M, PageSize2M)
			}
		},
	})
	onTick := func(h func(c *CPU, tick int)) func(t *testing.T, c *CPU) {
		return func(t *testing.T, c *CPU) {
			tick := 0
			c.SetIRQHandler(func(c *CPU, vector uint8, external bool) {
				h(c, tick)
				tick++
			})
			c.APIC.ArmTimer(c.TSC, 9_973, 0x42)
		}
	}
	cases = append(cases, gatherCase{
		name:   "timer handler flushes a page of the set",
		first:  pageAddrs(n, 6, set...),
		second: pageAddrs(n, 7, set...),
		prep: onTick(func(c *CPU, tick int) {
			c.TLB.FlushRange(set[tick%len(set)], PageSize2M)
		}),
	})
	moving := gatherAddrs(n, third, 4<<20, nodeStride+6*PageSize2M, PageSize2M)
	cases = append(cases, gatherCase{
		name:   "region moves to the other node mid-batch",
		first:  moving,
		second: moving,
		prep: func(t *testing.T, c *CPU) {
			if _, err := c.M.Mem.AddRegion(third, 4<<20, 0, "third"); err != nil {
				t.Fatal(err)
			}
			onTick(func(c *CPU, tick int) {
				c.M.Mem.RemoveRegion(third)
				if _, err := c.M.Mem.AddRegion(third, 4<<20, (tick+1)%2, "third"); err != nil {
					t.Error(err)
				}
			})(t, c)
		},
	})
	cases = append(cases, gatherCase{
		name:    "timer handler kills the CPU",
		first:   pageAddrs(n, 8, set...),
		second:  pageAddrs(n, 9, set...),
		prep:    onTick(func(c *CPU, tick int) { c.Kill() }),
		wantErr: true,
	})
	// A 1G entry over node 0's first GiB, with 4K entries and a 2M entry
	// inside it, which the TLB probes first. The batch starts in a 4 KiB
	// page only the 1G entry covers, so that entry joins the set first:
	// any more of the 1G page than that 4 KiB would take in the others'
	// elements and refresh the wrong entry. The batch ends on the second
	// 4K page and then the first, the reverse of their insertion order.
	mixedPages := []uint64{12 * PageSize2M, 8*PageSize2M + 3*PageSize4K, 8*PageSize2M + 5*PageSize4K}
	mixed := func(seed uint64) []uint64 {
		rng := NewRand(seed)
		addrs := make([]uint64, n)
		for i := range addrs {
			if k := rng.Next() % 4; i > 0 && k == 3 {
				addrs[i] = set[0] + rng.Next()%PageSize2M&^7
			} else {
				addrs[i] = mixedPages[k%3] + rng.Next()%PageSize4K&^7
			}
		}
		addrs[n-2], addrs[n-1] = mixedPages[2]+8, mixedPages[1]+8
		return addrs
	}
	cases = append(cases, gatherCase{
		name:   "mixed page sizes",
		first:  mixed(12),
		second: mixed(13),
		warm: func(c *CPU) {
			c.TLB.Insert(0, PageSize1G)
			c.TLB.Insert(set[0], PageSize2M)
			for _, p := range mixedPages[1:] {
				c.TLB.Insert(p, PageSize4K)
			}
		},
	})
	unmapped := pageAddrs(n, 11, set...)
	unmapped[0] = uint64(1) << 36
	cases = append(cases, gatherCase{
		name:    "unmapped first element",
		first:   pageAddrs(n, 10, set...),
		second:  unmapped,
		wantErr: true,
	})

	for _, tc := range cases {
		for _, computePer := range []uint64{0, 6} {
			t.Run(fmt.Sprintf("%s/compute%d", tc.name, computePer), func(t *testing.T) {
				b, r := twinCPUs(t)
				for _, c := range []*CPU{b, r} {
					if tc.prep != nil {
						tc.prep(t, c)
					}
					if tc.warm != nil {
						tc.warm(c)
					} else {
						warmPages(c, tc.first)
					}
				}
				for i, addrs := range [][]uint64{tc.first, tc.second} {
					if i == 1 && tc.between != nil {
						tc.between(b)
						tc.between(r)
					}
					what := fmt.Sprintf("batch %d", i+1)
					berr := b.AccessGather(addrs, computePer, false, AccessDRAM)
					rerr := referenceGather(r, addrs, computePer, false, AccessDRAM)
					if fmt.Sprint(berr) != fmt.Sprint(rerr) {
						t.Errorf("%s: batched err %v, reference err %v", what, berr, rerr)
					}
					if i == 1 && tc.wantErr && berr == nil {
						t.Errorf("%s: no error", what)
					}
					assertSameState(t, what, b, r)
				}
			})
		}
	}
}

// TestResidentRunEnds checks where a resident run stops on a warm CPU: at
// the end of a batch on four cached pages, at the first element on a
// fifth page or an uncached one, at an element whose page is cached but
// backs no region, before the element whose access would reach the timer
// deadline, and at once when an interrupt is pending.
func TestResidentRunEnds(t *testing.T) {
	set := []uint64{4 * PageSize2M, nodeStride + 6*PageSize2M, 5 * PageSize2M, nodeStride + 7*PageSize2M}
	const cachedFifth, uncached, unbacked = 9 * PageSize2M, 10 * PageSize2M, uint64(1) << 36
	at := func(page uint64, i int, addrs []uint64) []uint64 {
		addrs = slices.Clone(addrs)
		addrs[i] = page + 64
		return addrs
	}
	batch := pageAddrs(1000, 1, set...)
	for _, tc := range []struct {
		name  string
		addrs []uint64
		arm   func(c *CPU)
		want  int
	}{
		{"four pages", batch, nil, 1000},
		{"a fifth page", at(cachedFifth, 700, batch), nil, 700},
		{"an uncached page", at(uncached, 300, batch), nil, 300},
		{"a page backing no region", at(unbacked, 500, batch), nil, 500},
		{"the timer deadline", batch, func(c *CPU) {
			// 100 local or remote DRAM accesses land before the deadline,
			// and not 200.
			c.APIC.ArmTimer(c.TSC, 200*c.Costs().MemDRAM, 0x42)
		}, -1},
		{"a pending interrupt", batch, func(c *CPU) { c.APIC.Raise(0x43, true) }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := twinCPUs(t)
			warmPages(c, []uint64{cachedFifth, unbacked})
			warmPages(c, batch)
			if tc.arm != nil {
				tc.arm(c)
			}
			cs := c.Costs()
			tsc := c.TSC
			got := c.residentRun(tc.addrs, 0, 0, cs.MemDRAM, cs.remoteScale(cs.MemDRAM))
			want := tc.want
			if want < 0 { // the timer case: stop on the first element to reach the deadline
				deadline := tsc + 200*cs.MemDRAM
				for want = 0; ; want++ {
					cost := cs.MemDRAM
					if tc.addrs[want] >= nodeStride {
						cost = cs.remoteScale(cost)
					}
					if tsc+cost >= deadline {
						break
					}
					tsc += cost
				}
				if want < 100 || want >= 200 {
					t.Fatalf("the deadline falls after %d elements; want 100 to 199", want)
				}
			}
			if got != want {
				t.Errorf("run charged %d elements, want %d", got, want)
			}
		})
	}
}
