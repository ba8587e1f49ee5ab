package hw

// gatherShadowEvery bounds how many elements AccessGather may charge before
// republishing the TSC shadow (and re-reading the timer deadline) when no
// full poll intervenes, so cross-goroutine TSC readers — the supervisor's
// heartbeat watchdog above all — keep sub-microsecond-scale granularity
// even through long gather batches.
const gatherShadowEvery = 64

// residentWays is the size of a resident run's page set. MiniFE's halo
// gathers alternate between a local and a remote 512 KiB vector extent,
// and either may straddle a 2 MiB boundary, so four pages hold both.
const residentWays = 4

// residentPage is one page of a resident run's set: the addresses
// [lo, lo+n) that hit one TLB entry and lie in one region, so each costs
// cost, and the entry's class and slot, refreshed when the run ends.
type residentPage struct {
	lo, n, cost uint64
	cls         *tlbClass
	slot        int
	last        int // index of the last element charged to the page; -1 for none
}

// AccessGather models one data access per element of addrs — the
// index-driven gathers of HPCG/GUPS-style kernels, whose targets hop
// between extents and pages with no span to batch over. When computePer
// is nonzero, each access is preceded by computePer compute operations
// (the RNG/index arithmetic feeding the gather address).
//
// It charges exactly what the equivalent loop of Compute and MemAccess
// calls would: the same per-element TLB lookup, translation and data
// costs, the same Instret count, and identical fault and timer-delivery
// points. The difference is the poll: the per-element loop runs the full
// CPU.poll after every operation, while this path checks the APIC pending
// word and the timer deadline inline and only falls into poll when one of
// them actually demands it — poll is a no-op apart from republishing the
// TSC shadow otherwise, so skipping it leaves the charged state
// bit-identical. The deadline is cached between polls; retiming the timer
// from a management context mid-batch is observed at gatherShadowEvery
// granularity, the same chunk-scale exposure MemStream accepts via
// pollsUntilTimer.
//
// The batch starts with a resident run (residentRun), which charges the
// longest prefix whose pages are already in the TLB without probing it.
// The loop below charges whatever the run did not, element by element.
//
// The loop works out the data cost once per batch, not once per element:
// a hot access costs MemHit anywhere, and any other kind costs MemDRAM,
// remote-scaled on another node's memory. The target's region matters
// only in that second case, and the loop keeps the last region's bounds
// and cost as locals, re-checked against the layout generation on every
// element, so an element in the same region as the one before it costs
// one range compare. One way, not two: a second way here made GUPS-shaped
// batches, which stay in one region and miss the TLB on most elements,
// slower, and the batches that alternate regions every element, the
// sparse chargers' halo gathers, hit the TLB on nearly every element and
// are charged by the resident run instead (DESIGN.md §10).
func (c *CPU) AccessGather(addrs []uint64, computePer uint64, write bool, kind AccessKind) error {
	cs := c.Costs()
	computeCost := computePer * cs.Compute
	local, remote := cs.MemHit, cs.MemHit
	if kind != AccessHot {
		local, remote = cs.MemDRAM, cs.remoteScale(cs.MemDRAM)
	}
	addrs = addrs[c.residentRun(addrs, computePer, computeCost, local, remote):]
	mem := c.M.Mem
	gen := mem.Gen()
	var lo, hi, regionCost uint64 // memo: [lo, hi) costs regionCost; empty at first
	apic := c.APIC
	deadline := apic.timerDeadline.Load()
	since := 0
	for _, addr := range addrs {
		if computePer != 0 {
			c.Instret += computePer
			c.TSC += computeCost
			if apic.pending.Load() != 0 || c.TSC >= deadline {
				if err := c.poll(); err != nil {
					return err
				}
				deadline = apic.timerDeadline.Load()
				since = 0
			}
		}
		c.Instret++
		if !c.TLB.Lookup(addr) {
			if err := c.translate(addr, write); err != nil {
				return err
			}
		}
		cost := local
		if local != remote {
			if g := mem.Gen(); g != gen || addr < lo || addr >= hi {
				gen, lo, hi, regionCost = g, 0, 0, local
				if r := c.findRegion(addr); r != nil {
					lo, hi = r.Start, r.End()
					if r.Node != c.Node {
						regionCost = remote
					}
				}
			}
			cost = regionCost
		}
		c.TSC += cost
		if apic.pending.Load() != 0 || c.TSC >= deadline {
			if err := c.poll(); err != nil {
				return err
			}
			deadline = apic.timerDeadline.Load()
			since = 0
			continue
		}
		if since++; since >= gatherShadowEvery {
			c.tscShadow.Store(c.TSC)
			deadline = apic.timerDeadline.Load()
			since = 0
		}
	}
	c.tscShadow.Store(c.TSC)
	return nil
}

// residentRun charges the longest prefix of addrs whose elements each hit
// a page of a set of up to residentWays TLB-resident pages, and returns
// its length. An element costs one compare per page of the set and no
// TLB probe. A page joins the set when an element first lands on it,
// through one probe that neither counts a hit nor refreshes recency
// (TLB.resident), and is cut to the element's region, so it gives the
// element's data cost too. The run ends before the first element that
//   - lands on no page of the set, when its page is not cached or backs no
//     region, or the set is full;
//   - would make a poll due, after its compute or after its access;
//   - finds the APIC's pending word set or the layout generation moved.
//
// Inside the run nothing inserts into or removes from the TLB, and
// nothing reads its recency or its counters, so the recency updates and
// hit counts that per-element Covers would make can wait until it ends.
// After any sequence of hits the LRU order is the hit entries by their
// last hit, most recent first, ahead of the others in their old order.
// Refreshing each page once, in order of its last hit, leaves that order,
// and adding the run's length to the hit counter leaves TLBStats where
// per-element Covers would.
func (c *CPU) residentRun(addrs []uint64, computePer, computeCost, local, remote uint64) int {
	var set [residentWays]residentPage
	ways := 0
	apic, mem := c.APIC, c.M.Mem
	gen := mem.Gen()
	deadline := apic.timerDeadline.Load()
	tsc := c.TSC
	n, since := len(addrs), 0
	for i, addr := range addrs {
		// The page choice is data, random between a batch's pages, so the
		// set is scanned with one compare per way and no branch to
		// mispredict, each way written out. A way not yet filled has
		// n == 0 and matches nothing.
		j := 0
		if addr-set[1].lo < set[1].n {
			j = 1
		}
		if addr-set[2].lo < set[2].n {
			j = 2
		}
		if addr-set[3].lo < set[3].n {
			j = 3
		}
		if addr-set[j].lo >= set[j].n {
			j = ways
			if ways == residentWays || !c.fillPage(&set[j], addr, local, remote) {
				n = i
				break
			}
			ways++
		}
		t := tsc + computeCost + set[j].cost
		if t >= deadline || apic.pending.Load() != 0 || mem.Gen() != gen {
			n = i
			break
		}
		tsc = t
		set[j].last = i
		if since++; since == gatherShadowEvery {
			c.tscShadow.Store(tsc)
			deadline = apic.timerDeadline.Load()
			since = 0
		}
	}
	if n == 0 {
		return 0
	}
	c.TSC = tsc
	c.tscShadow.Store(tsc) // the loop's shadow cadence starts again from here
	c.Instret += uint64(n) * (computePer + 1)
	pages := set[:ways]
	for a := 1; a < len(pages); a++ { // by last hit, oldest first
		for b := a; b > 0 && pages[b].last < pages[b-1].last; b-- {
			pages[b], pages[b-1] = pages[b-1], pages[b]
		}
	}
	for _, p := range pages {
		if p.last >= 0 {
			p.cls.touch(p.slot)
		}
	}
	c.TLB.stats.Hits += uint64(n)
	return n
}

// fillPage fills p with the page of addr's TLB entry cut to addr's region,
// and reports false, leaving p as it was, when the TLB does not hold
// addr's translation or no region backs addr.
func (c *CPU) fillPage(p *residentPage, addr, local, remote uint64) bool {
	cls, slot, base, size, ok := c.TLB.resident(addr)
	if !ok {
		return false
	}
	r := c.findRegion(addr)
	if r == nil {
		return false
	}
	lo, hi := max(base, r.Start), min(base+size, r.End())
	cost := local
	if r.Node != c.Node {
		cost = remote
	}
	*p = residentPage{lo: lo, n: hi - lo, cost: cost, cls: cls, slot: slot, last: -1}
	return true
}
