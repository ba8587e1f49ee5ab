package pisces

import (
	"fmt"

	"covirt/internal/hw"
)

// Longcall (forwarded system call) numbers. Longcalls are the Pisces
// mechanism by which co-kernel applications delegate heavyweight operations
// to the general-purpose host OS; XEMEM's name-service operations ride the
// same channel.
const (
	SysWriteConsole uint32 = 201 // payload: addr(8) len(8) of message in enclave memory
	SysNanosleep    uint32 = 202 // payload: cycles(8) to advance
	SysGetPID       uint32 = 203
	SysNodeInfo     uint32 = 204

	SysXemMake   uint32 = 210 // payload: name-hash(8) addr(8) size(8) -> segid
	SysXemGet    uint32 = 211 // payload: name-hash(8) -> segid
	SysXemAttach uint32 = 212 // payload: segid(8) -> extent list in LcData
	SysXemDetach uint32 = 213 // payload: segid(8) -> extent list to unmap
	SysXemRemove uint32 = 214 // payload: segid(8)
	// SysXemDetachDone completes a detach after the co-kernel has
	// relinquished its mappings; protection layers unmap and flush here,
	// before the operation is reported complete to the management layer.
	SysXemDetachDone uint32 = 215 // payload: segid(8)

	// File I/O forwarding: the LWK has no filesystem; open/read/write all
	// delegate to the host OS, with path and data staged through LcData.
	SysOpen   uint32 = 220 // payload: pathlen(8) flags(8); path in LcData -> fd
	SysClose  uint32 = 221 // payload: fd(8)
	SysRead   uint32 = 222 // payload: fd(8) off(8) len(8) -> data in LcData, n
	SysWrite  uint32 = 223 // payload: fd(8) off(8) len(8); data in LcData -> n
	SysUnlink uint32 = 224 // payload: pathlen(8); path in LcData
	SysFsize  uint32 = 225 // payload: fd(8) -> size
)

// NameHash is the 64-bit wire encoding of an XEMEM segment name (FNV-1a),
// the name-hash the SysXemMake and SysXemGet payloads carry. Host-side
// exporters, the fleet registry and the seeded job and link streams hash
// through it too, so every layer agrees on every name.
func NameHash(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Open flags for SysOpen.
const (
	OpenRead   uint64 = 0
	OpenWrite  uint64 = 1 // create/truncate for writing
	OpenAppend uint64 = 2
)

// Longcall response layout within Msg.Payload:
//
//	[0:8)   status (0 = OK, else errno-style code)
//	[8:16)  host-side processing cycles (charged to the caller as wait time)
//	[16:24) primary result value
//	[24:32) secondary result value (e.g. extent count in LcData)
const (
	LcRespStatus = 0
	LcRespCycles = 8
	LcRespVal0   = 16
	LcRespVal1   = 24
)

// VectorLcResp is the host -> enclave doorbell announcing a longcall
// response; the calling core identifies itself in the request payload's
// LcReqCallerCore slot so the host knows which core to kick.
const VectorLcResp uint8 = 0xF4

// LcReqCallerCore is the payload offset where the calling machine core id
// is stored in every longcall request (limits requests to 6 argument
// slots).
const LcReqCallerCore = 48

// Longcall status codes.
const (
	LcOK uint64 = iota
	LcErrNoSys
	LcErrInval
	LcErrNoEnt
	LcErrFault
)

// LcData is a per-enclave shared buffer for longcall bulk data (page-frame
// extent lists, console strings). It lives in the reserved head of the
// enclave's first extent.
const (
	OffLcData   = 0x8000
	LcDataBytes = 0x8000
)

// ExtentRecordBytes is the wire size of one extent record in LcData.
const ExtentRecordBytes = 24

// PutExtents serializes an extent list into shared memory at base via io.
// It fails if the list would overflow the LcData buffer.
func PutExtents(io MemIO, base uint64, exts []hw.Extent) error {
	if len(exts)*ExtentRecordBytes > LcDataBytes {
		return fmt.Errorf("pisces: %d extents overflow LcData", len(exts))
	}
	buf := make([]byte, len(exts)*ExtentRecordBytes)
	for i, e := range exts {
		put64(buf, i*ExtentRecordBytes, e.Start)
		put64(buf, i*ExtentRecordBytes+8, e.Size)
		put64(buf, i*ExtentRecordBytes+16, uint64(e.Node))
	}
	return io.WriteBytes(base, buf)
}

// GetExtents deserializes n extent records from shared memory at base.
func GetExtents(io MemIO, base uint64, n int) ([]hw.Extent, error) {
	if n < 0 || n > LcDataBytes/ExtentRecordBytes {
		return nil, fmt.Errorf("pisces: bad extent count %d", n)
	}
	buf := make([]byte, n*ExtentRecordBytes)
	if err := io.ReadBytes(base, buf); err != nil {
		return nil, err
	}
	out := make([]hw.Extent, n)
	for i := range out {
		out[i] = hw.Extent{
			Start: get64(buf, i*ExtentRecordBytes),
			Size:  get64(buf, i*ExtentRecordBytes+8),
			Node:  int(get64(buf, i*ExtentRecordBytes+16)),
		}
	}
	return out, nil
}
