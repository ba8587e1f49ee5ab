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
func (c *CPU) AccessGather(addrs []uint64, computePer uint64, write bool, kind AccessKind) error {
	cs := c.Costs()
	computeCost := computePer * cs.Compute
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
		c.dataCost(addr, kind)
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
