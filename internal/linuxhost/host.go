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
	services   map[int]chan struct{} // enclave id -> longcall service exited
	surcharges map[uint64]uint64     // segid -> extra attach cycles (fabric pulls)
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
		services:      make(map[int]chan struct{}),
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

	// Start the longcall service for every enclave as it boots, and drop
	// dead enclaves' descriptor tables.
	h.Pisces.Bus.Subscribe(func(ev *pisces.Event) error {
		switch ev.Kind {
		case pisces.EvEnclaveBooted:
			enc := ev.Enclave
			svcDone := make(chan struct{})
			h.setService(enc.ID, svcDone)
			go func() {
				err := h.longcallService(enc)
				close(svcDone)
				// A guest that rewrote its own ring header crashes; the
				// report comes after close, since the crash handler
				// below waits for this service.
				if errors.Is(err, pisces.ErrCorruptRing) {
					h.Pisces.ReportCrash(enc, "corrupt longcall-ring header")
				}
			}()
		case pisces.EvEnclaveCrashed, pisces.EvEnclaveDestroyed:
			// Teardown ends the service's ring waits; wait for the service
			// to stop touching the enclave's (about to be recycled) memory.
			if svcDone := h.takeService(ev.Enclave.ID); svcDone != nil {
				<-svcDone
			}
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

// setService records the done channel of an enclave's longcall service.
func (h *Host) setService(encID int, done chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.services[encID] = done
}

// takeService removes and returns an enclave's longcall-service done
// channel; the caller waits on it outside the lock.
func (h *Host) takeService(encID int) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	done := h.services[encID]
	delete(h.services, encID)
	return done
}

// longcallService processes forwarded system calls for one enclave until
// a ring access fails: the enclave stopped or crashed, the node crashed,
// or the guest corrupted a ring header. The request and response messages
// escape into the handler's function value, so the service reuses one
// pair for every call instead of allocating a pair per call; handlers do
// not retain them.
func (h *Host) longcallService(enc *pisces.Enclave) error {
	var m, resp pisces.Msg
	for {
		if err := enc.LcReq.Pop(h.io, &m, nil); err != nil {
			return err
		}
		resp = pisces.Msg{Type: m.Type, Seq: m.Seq}
		fn := h.handlerFor(m.Type)
		var cycles uint64 = lcBaseCost
		if fn == nil {
			put64(resp.Payload[:], pisces.LcRespStatus, pisces.LcErrNoSys)
		} else {
			cycles += fn(h, enc, &m, &resp)
		}
		put64(resp.Payload[:], pisces.LcRespCycles, cycles)
		if err := enc.LcResp.Push(h.io, &resp, nil); err != nil {
			return err
		}
		// Response doorbell: kick the calling core so its idle wait wakes.
		caller := int(get64(m.Payload[:], pisces.LcReqCallerCore))
		h.M.RouteIPI(-1, caller, pisces.VectorLcResp)
	}
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
