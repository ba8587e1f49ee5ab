package hw

// gatherShadowEvery bounds how many elements AccessGather may charge before
// republishing the TSC shadow (and re-reading the timer deadline) when no
// full poll intervenes, so cross-goroutine TSC readers — the supervisor's
// heartbeat watchdog above all — keep sub-microsecond-scale granularity
// even through long gather batches.
const gatherShadowEvery = 64

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
// The data cost is worked out once per batch, not once per element: a hot
// access costs MemHit anywhere, and any other kind costs MemDRAM,
// remote-scaled on another node's memory. The target's region matters
// only in that second case, and the loop keeps the last region's bounds
// and cost as locals, re-checked against the layout generation on every
// element, so an element in the same region as the one before it costs
// one range compare. One way, not two: the sparse chargers' halo batches
// alternate nodes every element and so miss it each time, falling through
// to findRegion's two-way cache, while a second way here made GUPS-shaped
// batches, which stay in one region and miss the TLB on most elements,
// slower (DESIGN.md §10).
func (c *CPU) AccessGather(addrs []uint64, computePer uint64, write bool, kind AccessKind) error {
	cs := c.Costs()
	computeCost := computePer * cs.Compute
	local, remote := cs.MemHit, cs.MemHit
	if kind != AccessHot {
		local, remote = cs.MemDRAM, cs.remoteScale(cs.MemDRAM)
	}
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
