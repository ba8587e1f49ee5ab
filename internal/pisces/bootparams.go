package pisces

import (
	"fmt"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

// BootParamsMagic identifies a Pisces boot-parameter block in memory.
const BootParamsMagic = 0x5049534345530001 // "PISCES\0\1"

// Limits of the fixed-layout boot parameter block.
const (
	MaxBootCores   = 16
	MaxBootExtents = 16
)

// Reserved layout inside an enclave's first memory extent. The co-kernel
// treats this area as kernel data; applications never receive it.
const (
	OffBootParams   = 0x0000
	OffCtlReqRing   = 0x1000
	OffCtlRespRing  = 0x2000
	OffLcReqRing    = 0x3000
	OffLcRespRing   = 0x4000
	OffCovirtParams = 0x5000 // Covirt boot-parameter block (hypervisor-owned)
	OffHeartbeat    = 0x7000 // liveness heartbeat page (supervisor-watched)
	// ReservedBytes is the area's size. Nothing above the longcall data
	// window (OffLcData) uses it, but the co-kernel's entry point and
	// every allocation of its own sit above it, so shrinking it would
	// move every simulated address and every golden.
	ReservedBytes = 0x20000
)

// Heartbeat page layout: two 64-bit words the supervised co-kernel writes
// from its boot core's timer interrupt and the host-side watchdog reads
// natively. The count is monotonic; the TSC records the boot core's cycle
// counter at the moment of the beat, so "missed beats" can be judged
// against the core's own elapsed cycles rather than any wall clock.
const (
	HbCount = 0 // offset of the monotonic beat counter
	HbTSC   = 8 // offset of the boot core's TSC at the last beat
)

// WriteHeartbeat publishes beat n into the heartbeat page at hb from cpu,
// the supervised co-kernel's boot core. Both writes go through the guest's
// protection path, so a supervised enclave pays for its beats; the TSC is
// read after the charged count write, so the stamp includes its cost. A
// failed write means the enclave is already being killed and ends the
// beat.
func WriteHeartbeat(cpu *hw.CPU, hb, n uint64) {
	io := CPUMemIO{CPU: cpu}
	if err := io.Write64(hb+HbCount, n); err != nil {
		return
	}
	_ = io.Write64(hb+HbTSC, cpu.TSC)
}

// Interrupt vectors used by the co-kernel control plane.
const (
	VectorCtl   uint8 = 0xF2 // host -> enclave: control command pending
	VectorTimer uint8 = 0xEF // local APIC timer
)

// BootParams is the boot-parameter structure Pisces passes to a co-kernel:
// the assigned hardware plus the communication channels used to coordinate
// with the master control process. Covirt wraps (but does not modify) this
// block; the co-kernel always sees the original.
type BootParams struct {
	EnclaveID uint64
	Cores     []int
	Mem       []hw.Extent
	// MemCaps carries the capability reference for each extent in Mem
	// (parallel slices). The co-kernel resolves and verifies each key
	// against the node's table before adopting the extent.
	MemCaps []authority.Ref

	CtlReqRing  uint64
	CtlRespRing uint64
	LcReqRing   uint64
	LcRespRing  uint64

	// CovirtParams points at the Covirt boot-parameter block, or 0 when
	// the enclave boots bare. The co-kernel itself never reads this; it is
	// consumed by the interposed hypervisor.
	CovirtParams uint64

	// Heartbeat points at the liveness heartbeat page the co-kernel must
	// beat from its boot core's timer interrupt, or 0 when the enclave is
	// unsupervised (no beats, no extra cycles charged).
	Heartbeat uint64
}

// bootParamsBytes is the serialized size (fits well inside one 4K page):
// each extent record carries (start, size, node) plus its 16-byte
// capability reference.
const bootParamsBytes = 8 + 8 + 8 + MaxBootCores*8 + 8 + MaxBootExtents*(24+16) + 6*8

// EncodeBootParams writes bp at addr via io.
func EncodeBootParams(io MemIO, addr uint64, bp *BootParams) error {
	if len(bp.Cores) > MaxBootCores {
		return fmt.Errorf("pisces: %d cores exceeds boot-param limit %d", len(bp.Cores), MaxBootCores)
	}
	if len(bp.Mem) > MaxBootExtents {
		return fmt.Errorf("pisces: %d extents exceeds boot-param limit %d", len(bp.Mem), MaxBootExtents)
	}
	buf := make([]byte, bootParamsBytes)
	off := 0
	w := func(v uint64) { put64(buf, off, v); off += 8 }
	w(BootParamsMagic)
	w(bp.EnclaveID)
	w(uint64(len(bp.Cores)))
	for i := 0; i < MaxBootCores; i++ {
		if i < len(bp.Cores) {
			w(uint64(bp.Cores[i]))
		} else {
			w(0)
		}
	}
	w(uint64(len(bp.Mem)))
	for i := 0; i < MaxBootExtents; i++ {
		var ref authority.Ref
		if i < len(bp.MemCaps) {
			ref = bp.MemCaps[i]
		}
		if i < len(bp.Mem) {
			w(bp.Mem[i].Start)
			w(bp.Mem[i].Size)
			w(uint64(bp.Mem[i].Node))
		} else {
			w(0)
			w(0)
			w(0)
		}
		w(ref.ID)
		w(ref.Gen)
	}
	w(bp.CtlReqRing)
	w(bp.CtlRespRing)
	w(bp.LcReqRing)
	w(bp.LcRespRing)
	w(bp.CovirtParams)
	w(bp.Heartbeat)
	return io.WriteBytes(addr, buf)
}

// DecodeBootParams reads a boot-parameter block at addr via io, validating
// the magic.
func DecodeBootParams(io MemIO, addr uint64) (*BootParams, error) {
	buf := make([]byte, bootParamsBytes)
	if err := io.ReadBytes(addr, buf); err != nil {
		return nil, err
	}
	off := 0
	r := func() uint64 { v := get64(buf, off); off += 8; return v }
	if m := r(); m != BootParamsMagic {
		return nil, fmt.Errorf("pisces: bad boot-param magic %#x at %#x", m, addr)
	}
	bp := &BootParams{EnclaveID: r()}
	n := int(r())
	if n > MaxBootCores {
		return nil, fmt.Errorf("pisces: corrupt core count %d", n)
	}
	for i := 0; i < MaxBootCores; i++ {
		v := int(r())
		if i < n {
			bp.Cores = append(bp.Cores, v)
		}
	}
	ne := int(r())
	if ne > MaxBootExtents {
		return nil, fmt.Errorf("pisces: corrupt extent count %d", ne)
	}
	for i := 0; i < MaxBootExtents; i++ {
		s, sz, nd := r(), r(), r()
		cid, cgen := r(), r()
		if i < ne {
			bp.Mem = append(bp.Mem, hw.Extent{Start: s, Size: sz, Node: int(nd)})
			bp.MemCaps = append(bp.MemCaps, authority.Ref{ID: cid, Gen: cgen})
		}
	}
	bp.CtlReqRing = r()
	bp.CtlRespRing = r()
	bp.LcReqRing = r()
	bp.LcRespRing = r()
	bp.CovirtParams = r()
	bp.Heartbeat = r()
	return bp, nil
}
