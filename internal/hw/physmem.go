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
// NUMA node. Its bytes live in a lazily built radix of 4 KiB pages, each
// page 512 atomic 64-bit words, under three levels of 64-way interior
// nodes and a root of one slot per GiB. The first write to a page installs
// the page and any missing interior nodes by compare-and-swap; a page
// nobody has written reads as zeros and backs nothing, so multi-gigabyte
// address space layouts stay cheap to construct.
//
// Access takes no lock. Cores and the host legitimately share pages
// (rings, command queues, the heartbeat page), and the atomics give the
// same guarantee the hardware does: an aligned 64-bit load observes the
// old word or the new one, never a torn mix. A multi-byte copy is not
// atomic as a whole; it moves word by word, and a partial word is merged
// by compare-and-swap, so a concurrent write to the word's other bytes
// survives.
type Region struct {
	Start uint64
	Size  uint64
	Node  int
	Label string // owner tag, e.g. "host", "enclave-1"

	root []atomic.Pointer[dir1] // one slot per GiB of the region
}

// Radix geometry of a region's backing.
const (
	pageWords = PageSize4K / 8 // words per backing page
	dirBits   = 6              // interior nodes are 64-way
	dirMask   = 1<<dirBits - 1
	rootShift = 3 * dirBits // page-number bits below one root slot: 1 GiB
)

// page is one 4 KiB backing page. dir3, dir2 and dir1 are the interior
// nodes covering 256 KiB, 16 MiB and 1 GiB; each is 512 bytes.
type (
	page [pageWords]atomic.Uint64
	dir3 [1 << dirBits]atomic.Pointer[page]
	dir2 [1 << dirBits]atomic.Pointer[dir3]
	dir1 [1 << dirBits]atomic.Pointer[dir2]
)

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + r.Size }

// Contains reports whether the [addr, addr+size) range is fully inside r.
func (r *Region) Contains(addr, size uint64) bool {
	return addr >= r.Start && addr+size >= addr && addr+size <= r.End()
}

// lookup returns the page holding region offset off, or nil if nobody has
// written it.
func (r *Region) lookup(off uint64) *page {
	pn := off / PageSize4K
	d1 := r.root[pn>>rootShift].Load()
	if d1 == nil {
		return nil
	}
	d2 := d1[pn>>(2*dirBits)&dirMask].Load()
	if d2 == nil {
		return nil
	}
	d3 := d2[pn>>dirBits&dirMask].Load()
	if d3 == nil {
		return nil
	}
	return d3[pn&dirMask].Load()
}

// back returns the page holding region offset off, installing it and any
// missing interior node on the way down.
func (r *Region) back(off uint64) *page {
	pn := off / PageSize4K
	d1 := install(&r.root[pn>>rootShift])
	d2 := install(&d1[pn>>(2*dirBits)&dirMask])
	d3 := install(&d2[pn>>dirBits&dirMask])
	return install(&d3[pn&dirMask])
}

// install returns the node in slot, first publishing a zeroed one if the
// slot is empty. Racing installers agree on the compare-and-swap winner;
// a loser's node is garbage. This is backing's only allocation: once per
// page, and once per interior node.
func install[T any](slot *atomic.Pointer[T]) *T {
	if n := slot.Load(); n != nil {
		return n
	}
	n := new(T)
	if slot.CompareAndSwap(nil, n) {
		return n
	}
	return slot.Load()
}

// load64 reads the word at addr, which must be inside the region. An
// aligned word (its offset from Start a multiple of 8) is one page walk
// and one atomic load.
func (r *Region) load64(addr uint64) uint64 {
	off := addr - r.Start
	if off%8 != 0 {
		var b [8]byte
		r.read(addr, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	pg := r.lookup(off)
	if pg == nil {
		return 0
	}
	return pg[off%PageSize4K/8].Load()
}

// store64 writes the word v at addr, which must be inside the region. An
// aligned word is one page walk and one atomic store.
func (r *Region) store64(addr, v uint64) {
	off := addr - r.Start
	if off%8 != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		r.write(addr, b[:])
		return
	}
	r.back(off)[off%PageSize4K/8].Store(v)
}

// read copies the region's bytes at addr into p. addr must be inside the
// region.
func (r *Region) read(addr uint64, p []byte) {
	off := addr - r.Start
	for len(p) > 0 {
		in := off % PageSize4K
		n := min(uint64(len(p)), PageSize4K-in)
		if pg := r.lookup(off); pg != nil {
			pg.read(in, p[:n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// write copies p into the region's backing at addr.
func (r *Region) write(addr uint64, p []byte) {
	off := addr - r.Start
	for len(p) > 0 {
		in := off % PageSize4K
		n := min(uint64(len(p)), PageSize4K-in)
		r.back(off).write(in, p[:n])
		p = p[n:]
		off += n
	}
}

// read copies the page's bytes at offset in into p, which must end inside
// the page. Each word is one atomic load.
func (pg *page) read(in uint64, p []byte) {
	for len(p) > 0 {
		sh := in % 8
		n := min(uint64(len(p)), 8-sh)
		w := pg[in/8].Load()
		if n == 8 {
			binary.LittleEndian.PutUint64(p, w)
		} else {
			for i := range n {
				p[i] = byte(w >> (8 * (sh + i)))
			}
		}
		p = p[n:]
		in += n
	}
}

// write copies p into the page at offset in. A whole word is one atomic
// store; a partial word is merged into the word by compare-and-swap, so
// the bytes it does not cover keep whatever a concurrent writer put there.
func (pg *page) write(in uint64, p []byte) {
	for len(p) > 0 {
		sh := in % 8
		n := min(uint64(len(p)), 8-sh)
		w := &pg[in/8]
		if n == 8 {
			w.Store(binary.LittleEndian.Uint64(p))
		} else {
			var mask, bits uint64
			for i := range n {
				mask |= 0xFF << (8 * (sh + i))
				bits |= uint64(p[i]) << (8 * (sh + i))
			}
			for old := w.Load(); !w.CompareAndSwap(old, old&^mask|bits); old = w.Load() {
			}
		}
		p = p[n:]
		in += n
	}
}

// PhysMem is the machine's physical address space: an ordered set of
// non-overlapping backed regions. Reads and writes outside any region are
// physical bus errors (machine aborts). PhysMem is safe for concurrent use
// and its data path takes no lock: the region list is published as an
// immutable copy-on-write snapshot, and each region's backing is a radix
// of atomic words, so an aligned Read64 or Write64 is one region search,
// one page walk and one atomic load or store. Layout mutations are
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
	r := &Region{Start: start, Size: size, Node: node, Label: label,
		root: make([]atomic.Pointer[dir1], (size-1)/PageSize1G+1)}
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

// Read64 reads a little-endian uint64 at addr, with the same backing
// requirement as Read. An aligned word is read with one atomic load.
func (pm *PhysMem) Read64(addr uint64) (uint64, error) {
	r := pm.Find(addr)
	if r == nil || !r.Contains(addr, 8) {
		return 0, &Fault{Kind: FaultBusError, Addr: addr}
	}
	return r.load64(addr), nil
}

// Write64 writes a little-endian uint64 at addr, with the same backing
// requirement as Write. An aligned word is written with one atomic store.
func (pm *PhysMem) Write64(addr, v uint64) error {
	r := pm.Find(addr)
	if r == nil || !r.Contains(addr, 8) {
		return &Fault{Kind: FaultBusError, Addr: addr, Write: true}
	}
	r.store64(addr, v)
	return nil
}

// AlignDown rounds addr down to a multiple of align (a power of two).
func AlignDown(addr, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to a multiple of align (a power of two).
func AlignUp(addr, align uint64) uint64 { return (addr + align - 1) &^ (align - 1) }
