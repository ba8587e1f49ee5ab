package hw

import "sync/atomic"

// AccessKind selects the data-cost class of a memory access. Workloads pick
// the class matching their access pattern; the TLB/translation path is
// identical for all classes.
type AccessKind int

const (
	// AccessHot models a cache-resident access.
	AccessHot AccessKind = iota
	// AccessDRAM models a random access missing all caches.
	AccessDRAM
)

// EmulInstr identifies an instruction that traps to the hypervisor for
// emulation when virtualization is active.
type EmulInstr int

const (
	// InstrCPUID is the cpuid instruction.
	InstrCPUID EmulInstr = iota
	// InstrXSETBV is the xsetbv instruction.
	InstrXSETBV
)

// VirtLayer intercepts privileged operations of a CPU running guest code.
// A nil VirtLayer means native (bare-metal) execution. The vmx package
// provides the implementation used by Covirt.
//
// Every method returns the extra simulated cycles charged to the CPU by the
// interception (world switches, emulation work, nested walks).
type VirtLayer interface {
	// TranslateGPA performs the nested (EPT) stage of a TLB-miss walk for
	// guest-physical address gpa. On success it returns the nested page
	// size backing the mapping so the combined TLB entry can be sized. On
	// an EPT violation it returns a fault, after giving the hypervisor's
	// exit handler the chance to act (typically terminating the enclave).
	TranslateGPA(c *CPU, gpa uint64, write bool) (extra uint64, pageSize uint64, err error)

	// FilterIPI is consulted when the guest writes the APIC ICR. deliver
	// reports whether the IPI should reach the destination.
	FilterIPI(c *CPU, dest int, vector uint8) (deliver bool, extra uint64, err error)

	// MSRRead and MSRWrite mediate RDMSR/WRMSR.
	MSRRead(c *CPU, msr uint32) (val uint64, extra uint64, err error)
	MSRWrite(c *CPU, msr uint32, val uint64) (extra uint64, err error)

	// IO mediates port I/O. For reads, val is ignored and out carries the
	// result; for writes, out is ignored.
	IO(c *CPU, port uint16, write bool, val uint32) (out uint32, extra uint64, err error)

	// OnInterrupt is invoked when a maskable interrupt is delivered to the
	// guest. The implementation charges exit/entry or posted-interrupt
	// costs according to its configuration.
	OnInterrupt(c *CPU, vector uint8, external bool) (extra uint64)

	// OnNMI is invoked when the NMI line fires; Covirt uses NMIs as the
	// hypervisor command-queue doorbell.
	OnNMI(c *CPU) (extra uint64)

	// Emulate executes a trapped instruction.
	Emulate(c *CPU, instr EmulInstr) (extra uint64, err error)

	// OnAbort handles an abort-class fault raised while the guest was
	// executing. The returned error replaces the fault (e.g. an
	// enclave-killed error if the hypervisor contained it).
	OnAbort(c *CPU, f *Fault) error
}

// CPU is one simulated core. All execution methods (Compute, MemAccess,
// Read64G, SendIPI, ...) must be called from a single goroutine — the
// "execution context" of that core — but control-plane methods (Kill) and
// APIC raises may come from anywhere.
type CPU struct {
	ID   int
	Node int
	M    *Machine

	// TSC is the simulated time-stamp counter in cycles. Owned by the
	// execution goroutine; other goroutines must use TSCSnapshot.
	TSC uint64

	TLB  *TLB
	APIC *APIC
	MSRs *MSRFile

	// Virt intercepts privileged operations; nil for native execution.
	Virt VirtLayer

	// GuestWalkLevels is the page-table depth charged on a native TLB miss
	// and for the guest stage of a nested miss. Kitten identity-maps with
	// 2 MiB pages, giving 3 levels.
	GuestWalkLevels int
	// StreamSharers is the number of cores concurrently sharing this
	// core's NUMA node memory bandwidth (set by the guest OS from its
	// partition layout). Streaming costs scale once enough sharers exist
	// to saturate the socket's bandwidth.
	StreamSharers int
	// GuestPageSize is the page size of guest mappings (TLB granularity
	// when no smaller nested page applies).
	GuestPageSize uint64

	killed atomic.Bool

	irqHandler func(c *CPU, vector uint8, external bool)
	nmiHandler func(c *CPU)

	tscShadow atomic.Uint64 // published copy of TSC for cross-goroutine reads

	// regionCache memoizes the last two PhysMem regions this core touched
	// (single-goroutine owned; revalidated against the layout generation).
	// Two ways, not one: AccessGather's per-element loop alternates local
	// and remote targets every element on the halo batches a resident run
	// leaves to it (a rank's batches that begin on a cold TLB), which a
	// single slot thrashes on.
	regionCache    [2]*Region
	regionCacheGen uint64

	// Counters.
	Instret   uint64 // abstract operations retired
	IRQsTaken uint64
}

// findRegion resolves addr to its backing region through a per-core cache.
func (c *CPU) findRegion(addr uint64) *Region {
	if gen := c.M.Mem.Gen(); gen != c.regionCacheGen {
		c.regionCache = [2]*Region{}
		c.regionCacheGen = gen
	}
	if r := c.regionCache[0]; r != nil && r.Contains(addr, 1) {
		return r
	}
	if r := c.regionCache[1]; r != nil && r.Contains(addr, 1) {
		c.regionCache[0], c.regionCache[1] = r, c.regionCache[0]
		return r
	}
	r := c.M.Mem.Find(addr)
	if r != nil {
		c.regionCache[0], c.regionCache[1] = r, c.regionCache[0]
	}
	return r
}

// newCPU wires a CPU into machine m.
func newCPU(m *Machine, id, node int) *CPU {
	return &CPU{
		ID:              id,
		Node:            node,
		M:               m,
		TLB:             NewTLB(),
		APIC:            newAPIC(id),
		MSRs:            NewMSRFile(),
		GuestWalkLevels: 3,
		GuestPageSize:   PageSize2M,
	}
}

// Costs returns the machine cost model.
func (c *CPU) Costs() *Costs { return &c.M.Costs }

// charge advances the TSC by n cycles.
func (c *CPU) charge(n uint64) { c.TSC += n }

// TSCSnapshot returns a recently published TSC value; safe from any
// goroutine. The value lags the true TSC by at most one poll interval.
func (c *CPU) TSCSnapshot() uint64 { return c.tscShadow.Load() }

// Kill marks the CPU's current guest context as terminated. Every
// subsequent operation returns a FaultEnclaveKilled error, and every
// Handoff wait naming the CPU returns one. Safe from any goroutine;
// Covirt's hypervisor uses it to stop an enclave's cores.
func (c *CPU) Kill() {
	c.killed.Store(true)
	c.APIC.setKillPending()
	c.M.wakeSleepers()
}

// Revive clears the killed latch so a new guest context can boot on the
// core (enclave teardown + reboot path).
func (c *CPU) Revive() {
	c.killed.Store(false)
	c.APIC.clearKillPending()
}

// SetIRQHandler installs the guest interrupt handler invoked (on the
// execution goroutine) for each delivered vector.
func (c *CPU) SetIRQHandler(h func(c *CPU, vector uint8, external bool)) { c.irqHandler = h }

// SetNMIHandler installs the native NMI handler; ignored while a VirtLayer
// is installed (the hypervisor owns NMIs then).
func (c *CPU) SetNMIHandler(h func(c *CPU)) { c.nmiHandler = h }

// poll delivers pending events and checks for termination conditions. It is
// called at operation boundaries, mirroring how real interrupts are
// recognized at instruction retirement.
func (c *CPU) poll() error {
	c.tscShadow.Store(c.TSC)
	// One atomic load covers the kill/crash mirror bits, keeping the
	// overwhelmingly common "nothing pending" case down to four atomic
	// ops (shadow store, pending word, timer deadline, pending recheck).
	w := c.APIC.pending.Load()
	if w&pendingCrash != 0 && c.M.Crashed() {
		return &Fault{Kind: FaultMachineCrashed, CPU: c.ID, Msg: c.M.CrashReason()}
	}
	if w&pendingKill != 0 && c.killed.Load() {
		return &Fault{Kind: FaultEnclaveKilled, CPU: c.ID}
	}
	c.APIC.checkTimer(c.TSC)
	if !c.APIC.HasPending() {
		return nil
	}
	// NMIs preempt maskable interrupts.
	for c.APIC.takeNMI() {
		c.APIC.NMICount++
		c.charge(c.Costs().NMIHandler)
		if c.Virt != nil {
			c.charge(c.Virt.OnNMI(c))
		} else if c.nmiHandler != nil {
			c.nmiHandler(c)
		}
	}
	for {
		vector, external, ok := c.APIC.takeIntr()
		if !ok {
			break
		}
		c.APIC.Delivered++
		c.IRQsTaken++
		c.charge(c.Costs().IntrDeliver)
		if c.Virt != nil {
			c.charge(c.Virt.OnInterrupt(c, vector, external))
		}
		c.charge(c.Costs().GuestIRQ)
		if c.irqHandler != nil {
			// The handler runs in interrupt context: its cycles are charged
			// to IntrDeliver/GuestIRQ, not the interrupted code's budget,
			// and any locks it takes are its own frame's, so hot-path and
			// lock-ordering traversal stop at this dispatch.
			//covirt:allow transitive-hot,lock-order interrupt-context boundary
			c.irqHandler(c, vector, external)
		}
	}
	if c.killed.Load() { // an event handler may have terminated us
		return &Fault{Kind: FaultEnclaveKilled, CPU: c.ID}
	}
	c.tscShadow.Store(c.TSC)
	return nil
}

// Compute retires n abstract compute operations.
func (c *CPU) Compute(n uint64) error {
	c.Instret += n
	c.charge(n * c.Costs().Compute)
	return c.poll()
}

// translate performs the TLB-miss path for addr, charging walk costs and
// inserting the resulting translation. It returns the protection error, if
// any.
func (c *CPU) translate(addr uint64, write bool) error {
	cs := c.Costs()
	c.charge(uint64(c.GuestWalkLevels) * cs.WalkPerLevel)
	pageSize := c.GuestPageSize
	if c.Virt != nil {
		extra, nps, err := c.Virt.TranslateGPA(c, addr, write)
		c.charge(extra)
		if err != nil {
			return err
		}
		if nps != 0 && nps < pageSize {
			pageSize = nps
		}
	} else {
		// Native: the walk found whatever the (possibly misconfigured)
		// guest tables said; unbacked targets become bus errors at access
		// time, not here.
		if c.findRegion(addr) == nil {
			// Accessing unbacked space natively is an abort: nothing can
			// handle it, the node goes down.
			f := &Fault{Kind: FaultBusError, Addr: addr, Write: write, CPU: c.ID}
			return c.abort(f)
		}
	}
	// translate only runs after a TLB miss on addr, so the entry is known
	// absent and the presence scan can be skipped.
	c.TLB.InsertFresh(addr, pageSize)
	return nil
}

// abort escalates an abort-class fault: a VirtLayer may contain it
// (terminating only the guest), otherwise the whole simulated node crashes.
func (c *CPU) abort(f *Fault) error {
	if c.Virt != nil {
		return c.Virt.OnAbort(c, f)
	}
	c.M.Crash(f.Error())
	return &Fault{Kind: FaultMachineCrashed, CPU: c.ID, Msg: f.Error()}
}

// dataCost charges the data-stage cost of one access of the given kind,
// applying the NUMA remote multiplier when addr is on another node.
func (c *CPU) dataCost(addr uint64, kind AccessKind) {
	cs := c.Costs()
	var base uint64
	switch kind {
	case AccessHot:
		base = cs.MemHit
	default:
		base = cs.MemDRAM
	}
	if kind != AccessHot {
		if r := c.findRegion(addr); r != nil && r.Node != c.Node {
			base = cs.remoteScale(base)
		}
	}
	c.charge(base)
}

// MemAccess models a single data access at addr without touching backing
// bytes (timing/protection only). Use the Read/Write accessors when real
// data movement matters.
func (c *CPU) MemAccess(addr uint64, write bool, kind AccessKind) error {
	c.Instret++
	if !c.TLB.Lookup(addr) {
		if err := c.translate(addr, write); err != nil {
			return err
		}
	}
	c.dataCost(addr, kind)
	return c.poll()
}

// streamChunkPages bounds how many full pages a batched stream charges
// between polls, so the published TSC shadow and async event delivery keep
// page-scale granularity even under giant translation spans.
const streamChunkPages = 512

// streamPageCost computes the per-page streaming cost the element-at-a-time
// path charges for the byte range [lo, hi) of one 4K page. The integer
// scaling must happen per page, in this order, for batched charging to stay
// byte-identical (charge n pages as n*cost, never recompute on n*lines).
func (c *CPU) streamPageCost(lo, hi uint64, remote bool) (lines, cost uint64) {
	cs := c.Costs()
	lines = (hi - lo + 63) / 64
	cost = lines * cs.MemLinePerStream
	// Bandwidth contention: one core uses roughly 30% of a socket's
	// bandwidth, so beyond ~3 streaming cores the per-core rate drops.
	if s := uint64(c.StreamSharers); s > 3 {
		cost = cost * 3 * s / 10
	}
	if remote {
		cost = cs.remoteScale(cost)
	}
	return lines, cost
}

// streamSpan resolves the translation and region span covering page,
// translating on a TLB miss. It returns the first page-start past which the
// (translation, region) pair may change, and whether the region is remote.
// It counts one TLB hit or miss, for page, as the per-page loop does.
func (c *CPU) streamSpan(page, end uint64, write bool) (limit uint64, remote bool, err error) {
	base, span, ok := c.TLB.Cover(page)
	if !ok {
		if err := c.translate(page, write); err != nil {
			return 0, false, err
		}
		// Find the entry translate inserted. This re-probe is no access
		// of its own, so its hit is taken back.
		if base, span, ok = c.TLB.Cover(page); ok {
			c.TLB.stats.Hits--
		} else {
			base, span = page, PageSize4K // unreachable: translate inserts
		}
	}
	r, bound := c.M.Mem.Span(page)
	limit = base + span
	if bound < limit {
		limit = bound
	}
	if end < limit {
		limit = end
	}
	return limit, r != nil && r.Node != c.Node, nil
}

// MemStream models a sequential streaming access over [addr, addr+length),
// charging per-line bandwidth costs and simulating per-page translations.
//
// Charging is batched per translation span: the per-4K-page cost is computed
// once and multiplied by the page count, which is byte-identical to the
// per-page loop because the cost is constant within one (TLB entry, region)
// span. Timer interrupts still land on the exact page boundary the per-page
// loop would have delivered them on (see pollsUntilTimer), and the TLB
// counts one hit or miss per 4 KiB page, as that loop's lookups do.
func (c *CPU) MemStream(addr, length uint64, write bool) error {
	if length == 0 {
		return c.poll()
	}
	end := addr + length
	page := AlignDown(addr, PageSize4K)
	for page < end {
		limit, remote, err := c.streamSpan(page, end, write)
		if err != nil {
			return err
		}
		// Partial leading/trailing pages charge alone (the per-page loop
		// polls after every page, so an extra poll here changes nothing).
		if page < addr || page+PageSize4K > end {
			lo, hi := page, page+PageSize4K
			if lo < addr {
				lo = addr
			}
			if hi > end {
				hi = end
			}
			lines, cost := c.streamPageCost(lo, hi, remote)
			c.Instret += lines
			c.charge(cost)
			if err := c.poll(); err != nil {
				return err
			}
			page += PageSize4K
			continue
		}
		// Full pages with identical cost up to limit: charge as one batch,
		// splitting where the per-page loop would have taken a timer tick.
		full := (limit - page) / PageSize4K
		if full == 0 {
			full = 1 // region boundary inside this page; cost still from its start
		}
		if full > streamChunkPages {
			full = streamChunkPages
		}
		lines, cost := c.streamPageCost(page, page+PageSize4K, remote)
		if j := c.APIC.pollsUntilTimer(c.TSC, cost); j < full {
			full = j
		}
		c.Instret += full * lines
		c.charge(full * cost)
		c.TLB.stats.Hits += full - 1 // streamSpan counted the first page
		if err := c.poll(); err != nil {
			return err
		}
		page += full * PageSize4K
	}
	return nil
}

// guardData runs the translation/protection path for a data accessor and
// reports whether the access may proceed to backing memory.
func (c *CPU) guardData(addr uint64, write bool, kind AccessKind) error {
	c.Instret++
	if !c.TLB.Lookup(addr) {
		if err := c.translate(addr, write); err != nil {
			return err
		}
	}
	c.dataCost(addr, kind)
	return nil
}

// backing resolves the region holding [addr, addr+size) for a guarded
// accessor through the per-core region memo, with the same requirement as
// PhysMem.Read/Write: the whole range must sit in a single region. An
// access anywhere else is a bus error, escalated as an abort.
func (c *CPU) backing(addr, size uint64, write bool) (*Region, error) {
	r := c.findRegion(addr)
	if r == nil || !r.Contains(addr, size) {
		return nil, c.abort(&Fault{Kind: FaultBusError, Addr: addr, Write: write})
	}
	return r, nil
}

// Read64G reads a guest-visible 64-bit value at physical addr, going
// through the full translation/protection path. A read of unbacked space
// is an abort.
func (c *CPU) Read64G(addr uint64) (uint64, error) {
	if err := c.guardData(addr, false, AccessHot); err != nil {
		return 0, err
	}
	r, err := c.backing(addr, 8, false)
	if err != nil {
		return 0, err
	}
	v := r.load64(addr)
	if perr := c.poll(); perr != nil {
		return v, perr
	}
	return v, nil
}

// Write64G writes a guest-visible 64-bit value at physical addr through the
// full translation/protection path. Writes reaching backed memory really
// modify it — including memory owned by other OS instances, when no
// protection layer intervenes.
func (c *CPU) Write64G(addr, val uint64) error {
	if err := c.guardData(addr, true, AccessHot); err != nil {
		return err
	}
	r, err := c.backing(addr, 8, true)
	if err != nil {
		return err
	}
	r.store64(addr, val)
	return c.poll()
}

// ReadBytesG and WriteBytesG are byte-slice variants of the guarded
// accessors, charging one access per touched page.
func (c *CPU) ReadBytesG(addr uint64, p []byte) error {
	for page := AlignDown(addr, PageSize4K); page < addr+uint64(len(p)); page += PageSize4K {
		if err := c.guardData(page, false, AccessHot); err != nil {
			return err
		}
	}
	r, err := c.backing(addr, uint64(len(p)), false)
	if err != nil {
		return err
	}
	r.read(addr, p)
	return c.poll()
}

// WriteBytesG writes p at addr with per-page protection checks.
func (c *CPU) WriteBytesG(addr uint64, p []byte) error {
	for page := AlignDown(addr, PageSize4K); page < addr+uint64(len(p)); page += PageSize4K {
		if err := c.guardData(page, true, AccessHot); err != nil {
			return err
		}
	}
	r, err := c.backing(addr, uint64(len(p)), true)
	if err != nil {
		return err
	}
	r.write(addr, p)
	return c.poll()
}

// SendIPI writes the APIC ICR to deliver vector to CPU dest. With a
// VirtLayer installed the write traps and may be filtered.
func (c *CPU) SendIPI(dest int, vector uint8) error {
	c.Instret++
	c.charge(c.Costs().IPISend)
	deliver := true
	if c.Virt != nil {
		d, extra, err := c.Virt.FilterIPI(c, dest, vector)
		c.charge(extra)
		if err != nil {
			return err
		}
		deliver = d
	}
	if deliver {
		c.M.RouteIPI(c.ID, dest, vector)
	}
	return c.poll()
}

// RDMSR reads a model-specific register.
func (c *CPU) RDMSR(msr uint32) (uint64, error) {
	c.Instret++
	c.charge(c.Costs().MSRAccess)
	if c.Virt != nil {
		v, extra, err := c.Virt.MSRRead(c, msr)
		c.charge(extra)
		if err != nil {
			return 0, err
		}
		if perr := c.poll(); perr != nil {
			return v, perr
		}
		return v, nil
	}
	v := c.MSRs.Read(msr)
	if err := c.poll(); err != nil {
		return v, err
	}
	return v, nil
}

// WRMSR writes a model-specific register.
func (c *CPU) WRMSR(msr uint32, val uint64) error {
	c.Instret++
	c.charge(c.Costs().MSRAccess)
	if c.Virt != nil {
		extra, err := c.Virt.MSRWrite(c, msr, val)
		c.charge(extra)
		if err != nil {
			return err
		}
		return c.poll()
	}
	c.MSRs.Write(msr, val)
	return c.poll()
}

// IOIn reads from an I/O port.
func (c *CPU) IOIn(port uint16) (uint32, error) {
	c.Instret++
	c.charge(c.Costs().IOAccess)
	if c.Virt != nil {
		out, extra, err := c.Virt.IO(c, port, false, 0)
		c.charge(extra)
		if err != nil {
			return 0, err
		}
		if perr := c.poll(); perr != nil {
			return out, perr
		}
		return out, nil
	}
	v := c.M.Ports.In(port)
	if err := c.poll(); err != nil {
		return v, err
	}
	return v, nil
}

// IOOut writes to an I/O port.
func (c *CPU) IOOut(port uint16, val uint32) error {
	c.Instret++
	c.charge(c.Costs().IOAccess)
	if c.Virt != nil {
		_, extra, err := c.Virt.IO(c, port, true, val)
		c.charge(extra)
		if err != nil {
			return err
		}
		return c.poll()
	}
	c.M.Ports.Out(port, val)
	return c.poll()
}

// CPUID executes the (trapping under virtualization) cpuid instruction.
func (c *CPU) CPUID() error {
	c.Instret++
	c.charge(c.Costs().Compute * 40)
	if c.Virt != nil {
		extra, err := c.Virt.Emulate(c, InstrCPUID)
		c.charge(extra)
		if err != nil {
			return err
		}
	}
	return c.poll()
}

// RaiseDoubleFault injects an abort-class #DF on this CPU, as a buggy guest
// might trigger. Without a protection layer the node crashes.
func (c *CPU) RaiseDoubleFault(msg string) error {
	f := &Fault{Kind: FaultDoubleFault, CPU: c.ID, Msg: msg}
	return c.abort(f)
}

// Idle halts the core until an interrupt or NMI is pending or stop
// reports true, then delivers pending events and returns poll's verdict.
// A nil stop never holds. A halted core charges nothing, and an event a
// poll already took does not wake it: a core waiting on a longcall
// response re-probes the ring only when a simulated event arrives. A kill
// or node crash ends the halt with the fault poll would return.
func (c *CPU) Idle(stop func() bool) error {
	err := c.APIC.idle.Wait(c, func() (bool, error) {
		return c.APIC.HasPending() || stop != nil && stop(), nil
	})
	if err != nil {
		c.tscShadow.Store(c.TSC) // as poll publishes before reporting it
		return err
	}
	return c.poll()
}

// Wake makes a halted core re-check its Idle stop without posting an
// event, so waking it charges nothing. Safe from any goroutine.
func (c *CPU) Wake() { c.APIC.idle.Broadcast() }

// StallNoIRQ models a core locking up with interrupts disabled — the
// soft-hang failure mode a watchdog must catch, since the core still owns
// its hardware but no longer takes timer ticks or doorbells. The stall
// charges cycles up front (the lockup's simulated duration, immediately
// visible to cross-goroutine TSC readers) and then blocks without servicing
// interrupts until the guest context is killed or the machine crashes.
// Pending and newly raised vectors stay pending, exactly as they would with
// IF clear.
func (c *CPU) StallNoIRQ(cycles uint64) error {
	c.Instret++
	c.charge(cycles)
	c.tscShadow.Store(c.TSC)
	return c.APIC.idle.Wait(c, func() (bool, error) { return false, nil })
}

// ReadTSC samples the simulated time-stamp counter (rdtsc).
func (c *CPU) ReadTSC() uint64 {
	c.Instret++
	c.charge(c.Costs().Compute * 24) // rdtsc latency
	return c.TSC
}
