package hw

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Page and large-page sizes used throughout the simulation.
const (
	PageSize4K = 1 << 12
	PageSize2M = 1 << 21
	PageSize1G = 1 << 30
)

// Region is a contiguous range of backed physical memory belonging to one
// NUMA node. Backing bytes are allocated lazily on first write, one 4 KiB
// page at a time, so multi-gigabyte address space layouts stay cheap to
// construct. A page nobody has written reads as zeros without being backed.
type Region struct {
	Start uint64
	Size  uint64
	Node  int
	Label string // owner tag, e.g. "host", "enclave-1"

	mu     sync.Mutex
	chunks map[uint64][]byte // chunk index -> backing
}

const regionChunk = PageSize4K // lazy-allocation granule

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + r.Size }

// Contains reports whether the [addr, addr+size) range is fully inside r.
func (r *Region) Contains(addr, size uint64) bool {
	return addr >= r.Start && addr+size >= addr && addr+size <= r.End()
}

// copyChunk moves bytes between p and the chunk covering addr and returns
// the count moved. A write allocates the chunk on first touch; a read of a
// chunk nobody has written fills zeros and allocates nothing. The copy runs
// under the region lock: cores and the host legitimately share pages
// (rings, the heartbeat page), so the backing itself must serialize access
// — an aligned 64-bit load can then observe a stale word but never a torn
// one.
func (r *Region) copyChunk(addr uint64, p []byte, write bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := (addr - r.Start) / regionChunk
	off := (addr - r.Start) % regionChunk
	c, ok := r.chunks[idx]
	if !ok {
		if !write {
			n := min(uint64(len(p)), regionChunk-off)
			clear(p[:n])
			return int(n)
		}
		//covirt:allow transitive-hot first-touch backing allocation, once per chunk
		c = make([]byte, regionChunk)
		r.chunks[idx] = c
	}
	if write {
		return copy(c[off:], p)
	}
	return copy(p, c[off:])
}

// read copies backed bytes at addr into p. addr must be inside the region.
func (r *Region) read(addr uint64, p []byte) {
	for len(p) > 0 {
		n := r.copyChunk(addr, p, false)
		p = p[n:]
		addr += uint64(n)
	}
}

// write copies p into the region's backing at addr.
func (r *Region) write(addr uint64, p []byte) {
	for len(p) > 0 {
		n := r.copyChunk(addr, p, true)
		p = p[n:]
		addr += uint64(n)
	}
}

// PhysMem is the machine's physical address space: an ordered set of
// non-overlapping backed regions. Reads and writes outside any region are
// physical bus errors (machine aborts). PhysMem is safe for concurrent use:
// the region list is published as an immutable copy-on-write snapshot, so
// the read side (every simulated memory access) is lock-free; mutations are
// serialized under mu and each bumps the layout generation.
type PhysMem struct {
	mu      sync.Mutex
	regions atomic.Pointer[[]*Region] // immutable snapshot, sorted by Start
	gen     atomic.Uint64
}

// Gen returns the region-layout generation; it bumps whenever a region is
// added or removed, letting CPUs cache region lookups safely.
func (pm *PhysMem) Gen() uint64 { return pm.gen.Load() }

// NewPhysMem returns an empty physical address space.
func NewPhysMem() *PhysMem { return &PhysMem{} }

// snapshot returns the current immutable region list (callers must not
// modify it).
func (pm *PhysMem) snapshot() []*Region {
	if p := pm.regions.Load(); p != nil {
		return *p
	}
	return nil
}

// AddRegion registers a new backed region. It returns an error if the range
// overlaps an existing region or wraps the address space.
func (pm *PhysMem) AddRegion(start, size uint64, node int, label string) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("hw: zero-size region %q", label)
	}
	if start+size < start {
		return nil, fmt.Errorf("hw: region %q wraps address space", label)
	}
	r := &Region{Start: start, Size: size, Node: node, Label: label, chunks: make(map[uint64][]byte)}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	old := pm.snapshot()
	i := sort.Search(len(old), func(i int) bool { return old[i].Start >= start })
	if i > 0 && old[i-1].End() > start {
		return nil, fmt.Errorf("hw: region %q [%#x,%#x) overlaps %q", label, start, start+size, old[i-1].Label)
	}
	if i < len(old) && old[i].Start < start+size {
		return nil, fmt.Errorf("hw: region %q [%#x,%#x) overlaps %q", label, start, start+size, old[i].Label)
	}
	next := make([]*Region, 0, len(old)+1)
	next = append(next, old[:i]...)
	next = append(next, r)
	next = append(next, old[i:]...)
	pm.regions.Store(&next)
	pm.gen.Add(1)
	return r, nil
}

// RemoveRegion drops the region starting exactly at start. Backing memory is
// released. It returns the removed region, or nil if none matched.
func (pm *PhysMem) RemoveRegion(start uint64) *Region {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	old := pm.snapshot()
	i := sort.Search(len(old), func(i int) bool { return old[i].Start >= start })
	if i == len(old) || old[i].Start != start {
		return nil
	}
	r := old[i]
	next := make([]*Region, 0, len(old)-1)
	next = append(next, old[:i]...)
	next = append(next, old[i+1:]...)
	pm.regions.Store(&next)
	pm.gen.Add(1)
	return r
}

// Find returns the region containing addr, or nil. Lock-free.
func (pm *PhysMem) Find(addr uint64) *Region {
	regions := pm.snapshot()
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > addr })
	if i == len(regions) || regions[i].Start > addr {
		return nil
	}
	return regions[i]
}

// Span returns the region containing addr (nil when unbacked) together with
// the first address above addr where the containing-region answer changes:
// the region's end on a hit, the next region's start (or the top of the
// address space) on a miss. Batched access paths use it to charge a whole
// run of addresses with one lookup. Lock-free.
func (pm *PhysMem) Span(addr uint64) (*Region, uint64) {
	regions := pm.snapshot()
	i := sort.Search(len(regions), func(i int) bool { return regions[i].End() > addr })
	if i == len(regions) {
		return nil, ^uint64(0)
	}
	if regions[i].Start > addr {
		return nil, regions[i].Start
	}
	return regions[i], regions[i].End()
}

// Regions returns a snapshot of all regions in address order.
func (pm *PhysMem) Regions() []*Region {
	regions := pm.snapshot()
	out := make([]*Region, len(regions))
	copy(out, regions)
	return out
}

// NodeOf returns the NUMA node owning addr, or -1 if unbacked.
func (pm *PhysMem) NodeOf(addr uint64) int {
	if r := pm.Find(addr); r != nil {
		return r.Node
	}
	return -1
}

// Read copies len(p) bytes at physical addr into p. The whole range must be
// backed by a single region; otherwise a *Fault (bus error) is returned.
func (pm *PhysMem) Read(addr uint64, p []byte) error {
	r := pm.Find(addr)
	if r == nil || !r.Contains(addr, uint64(len(p))) {
		return &Fault{Kind: FaultBusError, Addr: addr}
	}
	r.read(addr, p)
	return nil
}

// Write copies p to physical addr, with the same backing requirement as Read.
func (pm *PhysMem) Write(addr uint64, p []byte) error {
	r := pm.Find(addr)
	if r == nil || !r.Contains(addr, uint64(len(p))) {
		return &Fault{Kind: FaultBusError, Addr: addr, Write: true}
	}
	r.write(addr, p)
	return nil
}

// Read64 reads a little-endian uint64 at addr.
func (pm *PhysMem) Read64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := pm.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Write64 writes a little-endian uint64 at addr.
func (pm *PhysMem) Write64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return pm.Write(addr, b[:])
}

// AlignDown rounds addr down to a multiple of align (a power of two).
func AlignDown(addr, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to a multiple of align (a power of two).
func AlignUp(addr, align uint64) uint64 { return (addr + align - 1) &^ (align - 1) }
