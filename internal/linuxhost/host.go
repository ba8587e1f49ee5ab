// Package linuxhost simulates the general-purpose host OS of a co-kernel
// node: it owns all hardware at boot, donates (offlines) cores and memory
// to the Pisces framework for enclave use, hosts the Hobbes master control
// process and XEMEM name service, and services longcalls (forwarded system
// calls) from co-kernel enclaves.
package linuxhost

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"covirt/internal/hobbes"
	"covirt/internal/hw"
	"covirt/internal/pisces"
)

// Host-side longcall processing costs (simulated cycles, charged to the
// calling guest as wait time).
const (
	lcBaseCost    = 3500 // syscall forwarding fixed overhead
	lcPerExtent   = 400  // per extent record handled
	lcPerPage4K   = 150  // per 4 KiB frame walked when building page lists
	lcConsolePerB = 2    // per console byte
)

// LongcallHandler services one forwarded system call. It fills resp's
// payload (status/val0/val1 slots) and returns the host cycles consumed.
type LongcallHandler func(h *Host, enc *pisces.Enclave, m *pisces.Msg, resp *pisces.Msg) uint64

// Host is the simulated general-purpose OS instance.
type Host struct {
	M *hw.Machine
	// HostLedger tracks resources the host retains for itself.
	HostLedger *pisces.Ledger
	// EnclaveLedger holds offlined resources available to Pisces enclaves.
	EnclaveLedger *pisces.Ledger
	Pisces        *pisces.Framework
	Master        *hobbes.Master

	io pisces.NativeMemIO

	mu         sync.Mutex
	consoles   map[int]*bytes.Buffer
	handlers   map[uint32]LongcallHandler
	hostCores  map[int]bool
	fs         *memFS
	surcharges map[uint64]uint64 // segid -> extra attach cycles (fabric pulls)
}

// New boots the host OS on machine m: the host initially owns every core
// and all (large-page-aligned) memory.
func New(m *hw.Machine) (*Host, error) {
	h := &Host{
		M:             m,
		HostLedger:    pisces.NewLedger(),
		EnclaveLedger: pisces.NewLedger(),
		io:            pisces.NativeMemIO{Mem: m.Mem},
		consoles:      make(map[int]*bytes.Buffer),
		handlers:      make(map[uint32]LongcallHandler),
		hostCores:     make(map[int]bool),
		fs:            newMemFS(),
		surcharges:    make(map[uint64]uint64),
	}
	for _, n := range m.Topo.Nodes {
		start := hw.AlignUp(n.MemBase, hw.PageSize2M)
		end := hw.AlignDown(n.MemBase+n.MemSize, hw.PageSize2M)
		if err := h.HostLedger.DonateMemory(hw.Extent{Start: start, Size: end - start, Node: n.ID}); err != nil {
			return nil, err
		}
		for _, c := range n.Cores {
			h.hostCores[c] = true
		}
	}
	h.Pisces = pisces.NewFramework(m, h.EnclaveLedger)
	h.Master = hobbes.NewMaster(h.Pisces)

	// Serve every enclave's longcalls once it boots, and drop dead
	// enclaves' descriptor tables.
	h.Pisces.Bus.Subscribe(func(ev *pisces.Event) error {
		switch ev.Kind {
		case pisces.EvEnclaveBooted:
			lc := &longcalls{h: h}
			ev.Enclave.SetLongcallServer(lc.serve)
		case pisces.EvEnclaveCrashed, pisces.EvEnclaveDestroyed:
			h.fs.dropEnclave(ev.Enclave.ID)
		}
		return nil
	})
	h.registerDefaultLongcalls()
	h.registerFileLongcalls()
	return h, nil
}

// OfflineCores removes cores from the host and donates them to the enclave
// resource pool, as the Pisces kernel module does at enclave setup.
func (h *Host) OfflineCores(ids ...int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range ids {
		if !h.hostCores[id] {
			return fmt.Errorf("linuxhost: core %d not owned by host", id)
		}
		delete(h.hostCores, id)
		h.EnclaveLedger.DonateCore(id)
	}
	return nil
}

// OfflineMemory carves size bytes on node out of the host's memory and
// donates them for enclave use.
func (h *Host) OfflineMemory(node int, size uint64) error {
	ext, err := h.HostLedger.AllocMemory(node, size)
	if err != nil {
		return err
	}
	return h.EnclaveLedger.DonateMemory(ext)
}

// QuarantineResources permanently withdraws a dead enclave's hardware from
// the enclave pool and returns it to the host — the supervisor's terminal
// escalation when an enclave has exhausted its restart budget. The caller
// must pass resources that have already been reclaimed into the enclave
// ledger (wait for the enclave's Reclaimed channel first); the exact cores
// and extents are pulled back out and onlined for the host.
func (h *Host) QuarantineResources(cores []int, mem []hw.Extent) error {
	for _, c := range cores {
		if !h.EnclaveLedger.WithdrawCore(c) {
			return fmt.Errorf("linuxhost: core %d not reclaimable for quarantine", c)
		}
	}
	h.onlineCores(cores)
	for _, e := range mem {
		if err := h.EnclaveLedger.Reserve(e); err != nil {
			return fmt.Errorf("linuxhost: quarantine memory: %w", err)
		}
		h.HostLedger.FreeMemory(e)
	}
	return nil
}

// onlineCores marks cores as host-owned again under the lock.
func (h *Host) onlineCores(cores []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range cores {
		h.hostCores[c] = true
	}
}

// HostAlloc allocates host-private memory (buffers, canaries, host-side
// shared segments).
func (h *Host) HostAlloc(node int, size uint64) (hw.Extent, error) {
	return h.HostLedger.AllocMemory(node, size)
}

// HostFree returns memory from HostAlloc.
func (h *Host) HostFree(e hw.Extent) { h.HostLedger.FreeMemory(e) }

// Console returns everything enclave encID has written to its console.
func (h *Host) Console(encID int) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if b := h.consoles[encID]; b != nil {
		return b.String()
	}
	return ""
}

// appendConsole buffers console output from enclave encID.
func (h *Host) appendConsole(encID int, buf []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.consoles[encID]
	if b == nil {
		b = &bytes.Buffer{}
		h.consoles[encID] = b
	}
	b.Write(buf)
}

// SetAttachSurcharge attaches extra host-side cycles to every XEMEM
// attach of segid. The cluster fabric uses this hook to charge a
// cross-node window pull (latency + bytes/bandwidth) through the same
// longcall cost path every local attach already rides, so remote attach
// latency lands on the attaching guest's TSC like any other host work.
// A zero value clears the surcharge.
func (h *Host) SetAttachSurcharge(segid, cycles uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cycles == 0 {
		delete(h.surcharges, segid)
		return
	}
	h.surcharges[segid] = cycles
}

// attachSurcharge returns the extra attach cycles registered for segid.
func (h *Host) attachSurcharge(segid uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.surcharges[segid]
}

// RegisterLongcall installs (or overrides) a longcall handler.
func (h *Host) RegisterLongcall(nr uint32, fn LongcallHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[nr] = fn
}

// handlerFor looks up the longcall handler for nr, or nil.
func (h *Host) handlerFor(nr uint32) LongcallHandler {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.handlers[nr]
}

// longcalls is the host side of one enclave's longcall rings. It runs on
// the calling core's goroutine (pisces.Enclave.ServeLongcall), one call at
// a time. The request and response messages escape into the handler's
// function value, so it reuses one pair for every call instead of
// allocating a pair per call; handlers do not retain them.
type longcalls struct {
	h *Host

	mu      sync.Mutex //covirt:guards m,resp
	m, resp pisces.Msg
}

// errNoLongcall reports a request ring the caller's push left empty.
var errNoLongcall = fmt.Errorf("linuxhost: no longcall to serve: %w", pisces.ErrCorruptRing)

// serve handles the enclave's pending longcall. A guest that rewrote its
// own ring header crashes: with one call outstanding, an honest caller
// leaves exactly its request pending and room for the answer.
func (lc *longcalls) serve(enc *pisces.Enclave) error {
	err := lc.answer(enc)
	if errors.Is(err, pisces.ErrCorruptRing) {
		lc.h.Pisces.ReportCrash(enc, "corrupt longcall-ring header")
	}
	return err
}

// answer pops one request, runs its handler, pushes the answer and rings
// the caller's response doorbell. It fails when a ring access fails: the
// enclave stopped or crashed, the node crashed, or the guest corrupted a
// ring header.
func (lc *longcalls) answer(enc *pisces.Enclave) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	h := lc.h
	ok, err := enc.LcReq.TryPop(h.io, &lc.m)
	if err != nil {
		return err
	}
	if !ok {
		return errNoLongcall
	}
	lc.resp = pisces.Msg{Type: lc.m.Type, Seq: lc.m.Seq}
	fn := h.handlerFor(lc.m.Type)
	var cycles uint64 = lcBaseCost
	if fn == nil {
		put64(lc.resp.Payload[:], pisces.LcRespStatus, pisces.LcErrNoSys)
	} else {
		cycles += fn(h, enc, &lc.m, &lc.resp)
	}
	put64(lc.resp.Payload[:], pisces.LcRespCycles, cycles)
	if ok, err = enc.LcResp.TryPush(h.io, &lc.resp); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("linuxhost: longcall response ring full: %w", pisces.ErrCorruptRing)
	}
	// Response doorbell: the caller takes it once it leaves the call.
	caller := int(get64(lc.m.Payload[:], pisces.LcReqCallerCore))
	h.M.RouteIPI(-1, caller, pisces.VectorLcResp)
	return nil
}

// PlantCanary fills [e.Start, e.End) with a deterministic pattern derived
// from seed. Used to detect cross-enclave corruption.
func (h *Host) PlantCanary(e hw.Extent, seed uint64) error {
	for off := uint64(0); off < e.Size; off += 4096 {
		if err := h.M.Mem.Write64(e.Start+off, seed^(e.Start+off)); err != nil {
			return err
		}
	}
	return nil
}

// CheckCanary verifies a pattern from PlantCanary, returning the first
// corrupted address or 0 if intact.
func (h *Host) CheckCanary(e hw.Extent, seed uint64) (uint64, error) {
	for off := uint64(0); off < e.Size; off += 4096 {
		v, err := h.M.Mem.Read64(e.Start + off)
		if err != nil {
			return 0, err
		}
		if v != seed^(e.Start+off) {
			return e.Start + off, nil
		}
	}
	return 0, nil
}
