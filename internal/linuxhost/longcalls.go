package linuxhost

import (
	"encoding/binary"

	"covirt/internal/hw"
	"covirt/internal/pisces"
)

func put64(p []byte, off int, v uint64) { binary.LittleEndian.PutUint64(p[off:], v) }
func get64(p []byte, off int) uint64    { return binary.LittleEndian.Uint64(p[off:]) }

// setResp fills the standard response slots.
func setResp(resp *pisces.Msg, status, val0, val1 uint64) {
	put64(resp.Payload[:], pisces.LcRespStatus, status)
	put64(resp.Payload[:], pisces.LcRespVal0, val0)
	put64(resp.Payload[:], pisces.LcRespVal1, val1)
}

// pagesOf counts 4 KiB frames backing a set of extents — the granularity
// at which the host assembles page-frame lists, which dominates the cost
// of large attach operations (and masks the protection layer's per-entry
// EPT work, as the paper's Fig. 4 discussion concludes).
func pagesOf(exts []hw.Extent) uint64 {
	var p uint64
	for _, e := range exts {
		p += (e.Size + hw.PageSize4K - 1) / hw.PageSize4K
	}
	return p
}

// registerDefaultLongcalls wires up the standard forwarded system calls and
// the XEMEM name-service operations.
func (h *Host) registerDefaultLongcalls() {
	h.RegisterLongcall(pisces.SysGetPID, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		setResp(resp, pisces.LcOK, uint64(enc.ID)<<16|1, 0)
		return 50
	})

	h.RegisterLongcall(pisces.SysNodeInfo, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		setResp(resp, pisces.LcOK, uint64(len(h.M.Topo.Nodes)), uint64(len(h.M.CPUs)))
		return 50
	})

	h.RegisterLongcall(pisces.SysNanosleep, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		cycles := get64(m.Payload[:], 0)
		setResp(resp, pisces.LcOK, 0, 0)
		return cycles
	})

	h.RegisterLongcall(pisces.SysWriteConsole, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		addr := get64(m.Payload[:], 0)
		n := get64(m.Payload[:], 8)
		if n > pisces.LcDataBytes || !enc.OwnsAddr(addr) {
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 100
		}
		buf := make([]byte, n)
		if err := h.io.ReadBytes(addr, buf); err != nil {
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 100
		}
		h.appendConsole(enc.ID, buf)
		setResp(resp, pisces.LcOK, n, 0)
		return n * lcConsolePerB
	})

	h.RegisterLongcall(pisces.SysXemMake, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		nameHash := get64(m.Payload[:], 0)
		start := get64(m.Payload[:], 8)
		size := get64(m.Payload[:], 16)
		if size == 0 || !enc.OwnsAddr(start) || !enc.OwnsAddr(start+size-1) {
			setResp(resp, pisces.LcErrInval, 0, 0)
			return 100
		}
		ext := hw.Extent{Start: start, Size: size, Node: h.M.Mem.NodeOf(start)}
		// The guest names an address range; the host resolves the memory
		// capability backing it. The registry re-verifies the key covers
		// the exported frames, so a guest can never export memory it was
		// not granted.
		memCap, ok := enc.CapForAddr(start)
		if !ok {
			setResp(resp, pisces.LcErrInval, 0, 0)
			return 100
		}
		seg, err := h.Master.Reg.Make(nameHash, memCap, []hw.Extent{ext})
		if err != nil {
			setResp(resp, pisces.LcErrInval, 0, 0)
			return 100
		}
		setResp(resp, pisces.LcOK, seg.ID, 0)
		return lcPerExtent + pagesOf(seg.Extents)*lcPerPage4K
	})

	h.RegisterLongcall(pisces.SysXemGet, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		segid, err := h.Master.Reg.Get(get64(m.Payload[:], 0))
		if err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		setResp(resp, pisces.LcOK, segid, 0)
		return 150
	})

	h.RegisterLongcall(pisces.SysXemAttach, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		segid := get64(m.Payload[:], 0)
		exts, attachCap, err := h.Master.Reg.Attach(segid, enc.ID)
		if err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		// Protection layers map the consumer's context BEFORE the frame
		// list is transmitted (Covirt's map-before-notify ordering); the
		// event names the consumer's freshly delegated attach key.
		ev := &pisces.Event{Kind: pisces.EvXememAttachPre, Enclave: enc, Extents: exts, SegID: segid, Cap: attachCap}
		if err := h.Master.Bus.Emit(ev); err != nil {
			_, _ = h.Master.Reg.DetachDone(segid, enc.ID) // roll back
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 200
		}
		if err := pisces.PutExtents(h.io, enc.Base()+pisces.OffLcData, exts); err != nil {
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 200
		}
		setResp(resp, pisces.LcOK, segid, uint64(len(exts)))
		return uint64(len(exts))*lcPerExtent + pagesOf(exts)*lcPerPage4K + ev.Cost +
			h.attachSurcharge(segid)
	})

	h.RegisterLongcall(pisces.SysXemDetach, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		segid := get64(m.Payload[:], 0)
		exts, err := h.Master.Reg.DetachStart(segid, enc.ID)
		if err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		if err := pisces.PutExtents(h.io, enc.Base()+pisces.OffLcData, exts); err != nil {
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 200
		}
		setResp(resp, pisces.LcOK, segid, uint64(len(exts)))
		return uint64(len(exts))*lcPerExtent + pagesOf(exts)*lcPerPage4K
	})

	h.RegisterLongcall(pisces.SysXemDetachDone, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		segid := get64(m.Payload[:], 0)
		exts, err := h.Master.Reg.DetachDone(segid, enc.ID)
		if err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		// The co-kernel has acknowledged removal; protection layers now
		// unmap and flush, before completion is reported.
		ev := &pisces.Event{Kind: pisces.EvXememDetachPost, Enclave: enc, Extents: exts, SegID: segid}
		if err := h.Master.Bus.Emit(ev); err != nil {
			setResp(resp, pisces.LcErrFault, 0, 0)
			return 200
		}
		setResp(resp, pisces.LcOK, 0, 0)
		return uint64(len(exts))*lcPerExtent + ev.Cost
	})

	h.RegisterLongcall(pisces.SysXemRemove, func(h *Host, enc *pisces.Enclave, m, resp *pisces.Msg) uint64 {
		segid := get64(m.Payload[:], 0)
		// Resolve the segment's owner key for the caller; a non-owner (or
		// an owner whose authority died) cannot name a valid key.
		ownerCap, err := h.Master.Reg.OwnerCapOf(segid, enc.ID)
		if err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		if err := h.Master.Reg.Remove(segid, ownerCap); err != nil {
			setResp(resp, pisces.LcErrNoEnt, 0, 0)
			return 100
		}
		setResp(resp, pisces.LcOK, 0, 0)
		return 200
	})
}
