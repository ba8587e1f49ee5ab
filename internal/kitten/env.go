package kitten

import (
	"encoding/binary"
	"errors"
	"fmt"

	"covirt/internal/hw"
	"covirt/internal/pisces"
)

// ErrSegfault is returned when a task touches memory outside Kitten's
// memory map — the guest-page-table fault the kernel turns into a task
// kill (the co-kernel itself stays up).
var ErrSegfault = errors.New("kitten: segmentation fault (outside memory map)")

// guestError wraps an error carried by a guest panic through Env helpers.
type guestError struct{ err error }

// Env is the guest programming interface handed to tasks: every method
// charges simulated cycles on the task's CPU and is subject to whatever
// protection layer is installed beneath the kernel.
type Env struct {
	K    *Kernel
	CPU  *hw.CPU
	Core int // local core index within the enclave
	Task *Task

	// extCache memoizes the last two memory-map extents a containment
	// check hit, MRU first. Two ways, not one: gather loops alternate
	// local and remote targets every element (halo and scatter traffic),
	// which a single slot thrashes on. extCacheGen records the MemMap
	// generation the entries were looked up under, and they are consulted
	// only while K.mm.Gen() still matches — an XemDetach or Free on any
	// core bumps the generation and implicitly drops them. Env is owned
	// by one task goroutine, so the fields need no locking.
	extCache    [2]hw.Extent
	extCacheGen uint64
}

// resolve is the memory-map check behind every Env access: a gen-validated
// hit on a cached extent, falling back to the map's lock-free search,
// returning the extent covering [addr, addr+size). The generation is read
// before the search so a concurrent map mutation can only make the
// refreshed cache entry look stale, never a stale one fresh.
func (e *Env) resolve(addr, size uint64) (hw.Extent, bool) {
	gen := e.K.mm.Gen()
	if e.extCacheGen == gen {
		if e.extCache[0].ContainsRange(addr, size) {
			return e.extCache[0], true
		}
		if e.extCache[1].ContainsRange(addr, size) {
			e.extCache[0], e.extCache[1] = e.extCache[1], e.extCache[0]
			return e.extCache[0], true
		}
	}
	ext, ok := e.K.mm.Find(addr)
	if !ok || !ext.ContainsRange(addr, size) {
		return hw.Extent{}, false
	}
	if e.extCacheGen != gen {
		e.extCache[1] = hw.Extent{}
		e.extCacheGen = gen
	} else {
		e.extCache[1] = e.extCache[0]
	}
	e.extCache[0] = ext
	return ext, true
}

// contains reports whether [addr, addr+size) is mapped.
func (e *Env) contains(addr, size uint64) bool {
	_, ok := e.resolve(addr, size)
	return ok
}

// fail aborts the current task with err (via panic, recovered by the task
// runner) so workload code can stay straight-line.
func (e *Env) fail(err error) {
	panic(guestError{err})
}

// check aborts the task when err is non-nil.
func (e *Env) check(err error) {
	if err != nil {
		e.fail(err)
	}
}

// Compute retires n abstract compute operations.
func (e *Env) Compute(n uint64) { e.check(e.CPU.Compute(n)) }

// TSC samples the time-stamp counter.
func (e *Env) TSC() uint64 { return e.CPU.ReadTSC() }

// Await parks the task on h until ready reports true. The wait names the
// task's own core, so the kill of that core or a node crash ends it, and
// the task then fails as any kill fault fails it.
func (e *Env) Await(h *hw.Handoff, ready func() bool) {
	e.check(h.Wait(e.CPU, func() (bool, error) { return ready(), nil }))
}

// Access performs one data access at addr, enforcing the kernel memory
// map (the simulation of Kitten's own page tables).
func (e *Env) Access(addr uint64, write bool, kind hw.AccessKind) {
	if !e.contains(addr, 1) {
		e.fail(fmt.Errorf("%w: %#x", ErrSegfault, addr))
	}
	e.check(e.CPU.MemAccess(addr, write, kind))
}

// AccessGather performs one data access per element of addrs, each
// optionally preceded by computePer compute operations — equivalent to
//
//	for _, a := range addrs { e.Compute(computePer); e.Access(a, write, kind) }
//
// with the same memory-map check for every element, the same charged
// cycles, and the same fault points, but batched: the mapped prefix is
// established first (resolving each element against the map in order, as
// the per-element loop would) and then streams through hw.CPU.AccessGather
// in one call. A segfault aborts the task at exactly the element a
// per-element loop would have reached, including the faulting element's
// compute charge, which the per-element loop retires before noticing the
// bad address. The prepass keeps the bounds of the last two extents it
// resolved and resolves only the elements that fall outside both. Two
// ways, not one: the sparse chargers alternate local and remote targets
// every element, which a single memo misses on every time.
func (e *Env) AccessGather(addrs []uint64, computePer uint64, write bool, kind hw.AccessKind) {
	mapped := len(addrs)
	// The memo's two ways, most recent first: [lo0, lo0+n0) and
	// [lo1, lo1+n1). An empty way has n == 0.
	var lo0, n0, lo1, n1 uint64
	for i, a := range addrs {
		if a-lo0 < n0 || a-lo1 < n1 {
			continue
		}
		ext, ok := e.resolve(a, 1)
		if !ok {
			mapped = i
			break
		}
		lo1, n1 = lo0, n0
		lo0, n0 = ext.Start, ext.Size
	}
	e.check(e.CPU.AccessGather(addrs[:mapped], computePer, write, kind))
	if mapped < len(addrs) {
		if computePer != 0 {
			e.Compute(computePer)
		}
		e.fail(fmt.Errorf("%w: %#x", ErrSegfault, addrs[mapped]))
	}
}

// Stream performs a sequential streaming access over [addr, addr+length).
func (e *Env) Stream(addr, length uint64, write bool) {
	if !e.contains(addr, length) {
		e.fail(fmt.Errorf("%w: [%#x,+%#x)", ErrSegfault, addr, length))
	}
	e.check(e.CPU.MemStream(addr, length, write))
}

// Read64 reads guest memory through the full protection path.
func (e *Env) Read64(addr uint64) uint64 {
	if !e.contains(addr, 8) {
		e.fail(fmt.Errorf("%w: %#x", ErrSegfault, addr))
	}
	v, err := e.CPU.Read64G(addr)
	e.check(err)
	return v
}

// Write64 writes guest memory through the full protection path.
func (e *Env) Write64(addr, val uint64) {
	if !e.contains(addr, 8) {
		e.fail(fmt.Errorf("%w: %#x", ErrSegfault, addr))
	}
	e.check(e.CPU.Write64G(addr, val))
}

// RawWrite64 writes guest memory bypassing the kernel memory map —
// simulating a co-kernel whose mapping state is buggy or stale. Only a
// hardware protection layer (Covirt's EPT) can stop it. With nothing
// underneath, the wild write lands in whatever physical memory is there,
// or crashes the node.
func (e *Env) RawWrite64(addr, val uint64) error {
	return e.CPU.Write64G(addr, val)
}

// RawRead64 is the wild-read variant of RawWrite64.
func (e *Env) RawRead64(addr uint64) (uint64, error) {
	return e.CPU.Read64G(addr)
}

// SendIPI sends vector to another local core of this enclave.
func (e *Env) SendIPI(localCore int, vector uint8) {
	if localCore < 0 || localCore >= len(e.K.cores) {
		e.fail(fmt.Errorf("kitten: no local core %d", localCore))
	}
	e.check(e.CPU.SendIPI(e.K.cores[localCore].cpu.ID, vector))
}

// SendIPIRaw sends vector to an arbitrary machine core — including cores
// outside the enclave, which is exactly the errant-IPI bug class Covirt's
// IPI protection filters.
func (e *Env) SendIPIRaw(machineCore int, vector uint8) error {
	return e.CPU.SendIPI(machineCore, vector)
}

// Alloc carves size bytes of contiguous memory on node from the enclave's
// assignment.
func (e *Env) Alloc(node int, size uint64) hw.Extent {
	ext, err := e.K.AllocMemory(node, size)
	e.check(err)
	return ext
}

// Free returns a region from Alloc.
func (e *Env) Free(ext hw.Extent) { e.K.FreeMemory(ext) }

// --- Longcall client (system-call forwarding to the host OS) ---

// Syscall forwards a system call to the host over the longcall channel and
// waits for the result. The host's processing cycles plus the doorbell IPI
// round trip are charged to the calling CPU as wait time.
//
// While waiting, the calling core stays responsive: it idles through the
// interrupt path, so NMI doorbells (Covirt command-queue synchronization)
// and control commands are still serviced — the property that lets Covirt
// update configurations while a process blocks on a shared-memory request.
func (e *Env) Syscall(nr uint32, args ...uint64) (val0, val1 uint64, err error) {
	if len(args) > pisces.LcReqCallerCore/8 {
		return 0, 0, fmt.Errorf("kitten: too many syscall args")
	}
	k := e.K
	// Acquire the longcall channel without parking the core: a parked
	// core could not take interrupts, and another core's flush could then
	// never complete.
	for !k.lcMu.TryLock() {
		if err := e.CPU.Compute(50); err != nil {
			return 0, 0, err
		}
	}
	defer k.lcMu.Unlock()
	k.lcSeq++
	var m pisces.Msg
	m.Type = nr
	m.Seq = k.lcSeq
	for i, a := range args {
		put64(m.Payload[:], i*8, a)
	}
	put64(m.Payload[:], pisces.LcReqCallerCore, uint64(e.CPU.ID))
	io := pisces.CPUMemIO{CPU: e.CPU}
	if err := k.enc.LcReq.Push(io, &m, e.CPU); err != nil {
		return 0, 0, err
	}
	// Doorbell to the host (modelled as an IPI's worth of cycles; the host
	// service is woken through the ring itself).
	e.CPU.TSC += e.CPU.Costs().IPISend

	// Charged looks at the response ring follow simulated events, not how
	// far the host goroutine has got: a header-only look right after the
	// request and after every NMI (a hypervisor command-queue doorbell),
	// since in simulated time both precede the host's answer, whose work
	// is charged below as hostCycles.
	seenNMI := e.CPU.APIC.NMICount
	empty, err := k.enc.LcResp.Empty(io)
	if err != nil {
		return 0, 0, err
	}
	var resp pisces.Msg
	for {
		if empty && k.lcRespEmpty() {
			if ierr := e.CPU.Idle(k.stopped.Load); ierr != nil {
				return 0, 0, ierr
			}
		}
		if n := e.CPU.APIC.NMICount; n != seenNMI {
			seenNMI = n
			if empty, err = k.enc.LcResp.Empty(io); err != nil {
				return 0, 0, err
			}
			continue
		}
		ok, perr := k.enc.LcResp.TryPop(io, &resp)
		if perr != nil {
			return 0, 0, perr
		}
		if ok {
			break
		}
		empty = true
	}
	if resp.Seq != m.Seq {
		return 0, 0, fmt.Errorf("kitten: longcall seq mismatch: %d != %d", resp.Seq, m.Seq)
	}
	status := get64(resp.Payload[:], pisces.LcRespStatus)
	hostCycles := get64(resp.Payload[:], pisces.LcRespCycles)
	// The caller was blocked while the host worked: advance its clock by
	// the host's processing time plus the return doorbell.
	e.CPU.TSC += hostCycles + e.CPU.Costs().IPISend
	val0 = get64(resp.Payload[:], pisces.LcRespVal0)
	val1 = get64(resp.Payload[:], pisces.LcRespVal1)
	if status != pisces.LcOK {
		return val0, val1, fmt.Errorf("kitten: longcall %d failed with status %d", nr, status)
	}
	return val0, val1, nil
}

// lcRespEmpty reports whether the longcall response ring is still empty,
// reading it from the host side: uncharged and without polling. A charged
// look polls between and after its header reads, so the answer's doorbell
// can be taken inside a look that read the header just before the host's
// push. The look then reports empty, and the doorbell that should end the
// idle wait is already spent; this second look sees the answer instead.
func (k *Kernel) lcRespEmpty() bool {
	empty, err := k.enc.LcResp.Empty(pisces.NativeMemIO{Mem: k.mach.Mem})
	return empty && err == nil
}

// WriteConsole forwards a console write to the host.
func (e *Env) WriteConsole(s string) error {
	// Stage the bytes in the longcall data buffer.
	base := e.K.enc.Base() + pisces.OffLcData
	if len(s) > pisces.LcDataBytes {
		s = s[:pisces.LcDataBytes]
	}
	io := pisces.CPUMemIO{CPU: e.CPU}
	if err := io.WriteBytes(base, []byte(s)); err != nil {
		return err
	}
	_, _, err := e.Syscall(pisces.SysWriteConsole, base, uint64(len(s)))
	return err
}

// --- XEMEM application interface (forwarded to the host name service) ---

// XemMake exports [ext.Start, ext.End) as a named XEMEM segment, returning
// its segid.
func (e *Env) XemMake(name string, ext hw.Extent) (uint64, error) {
	segid, _, err := e.Syscall(pisces.SysXemMake, pisces.NameHash(name), ext.Start, ext.Size)
	return segid, err
}

// XemGet looks up a segment by name.
func (e *Env) XemGet(name string) (uint64, error) {
	segid, _, err := e.Syscall(pisces.SysXemGet, pisces.NameHash(name))
	return segid, err
}

// XemAttach maps a segment into this enclave, returning the now-accessible
// extents. The host transmits the page-frame extent list through the
// longcall data buffer; Kitten walks the list, adds each extent to its
// memory map, and charges per-extent mapping work — the operation whose
// latency Fig. 4 of the paper measures.
//
// This is the guest side of the attach protocol: the host verified the
// consumer's attach key and mapped the EPT before transmitting the frame
// list, so the co-kernel only mirrors an already-authorized mapping.
//
//covirt:ambient guest mirror of a host-verified attach
func (e *Env) XemAttach(segid uint64) ([]hw.Extent, error) {
	_, count, err := e.Syscall(pisces.SysXemAttach, segid)
	if err != nil {
		return nil, err
	}
	io := pisces.CPUMemIO{CPU: e.CPU}
	exts, err := pisces.GetExtents(io, e.K.enc.Base()+pisces.OffLcData, int(count))
	if err != nil {
		return nil, err
	}
	cs := e.CPU.Costs()
	for _, x := range exts {
		e.K.mm.Add(x)
		// Page-table population: one write per 2M mapping.
		pages := (x.Size + hw.PageSize2M - 1) / hw.PageSize2M
		e.CPU.TSC += pages * cs.WalkPerLevel
	}
	return exts, nil
}

// XemDetach unmaps a previously attached segment, following the paper's
// ordering: the co-kernel relinquishes its own mappings first, and only
// then is the detach completed on the host side — where the protection
// layer unmaps the hardware context and flushes TLBs before the management
// layer considers the memory released.
//
// This is the guest side of the detach protocol: dropping the enclave's
// own mirror of a host-verified mapping withdraws access, it cannot grant
// any; the authoritative unmap happens host-side at detach-done.
//
//covirt:ambient guest mirror drop; withdraws access, grants none
func (e *Env) XemDetach(segid uint64) error {
	_, count, err := e.Syscall(pisces.SysXemDetach, segid)
	if err != nil {
		return err
	}
	io := pisces.CPUMemIO{CPU: e.CPU}
	exts, err := pisces.GetExtents(io, e.K.enc.Base()+pisces.OffLcData, int(count))
	if err != nil {
		return err
	}
	for _, x := range exts {
		e.K.mm.Remove(x)
		e.K.shootdown(e.CPU, x)
	}
	_, _, err = e.Syscall(pisces.SysXemDetachDone, segid)
	return err
}

// put64/get64: little-endian payload packing.
func put64(p []byte, off int, v uint64) { binary.LittleEndian.PutUint64(p[off:], v) }
func get64(p []byte, off int) uint64    { return binary.LittleEndian.Uint64(p[off:]) }
