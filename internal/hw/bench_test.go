package hw

import (
	"sync"
	"testing"
)

// BenchmarkPhysMemReadWrite measures the backing-store data path: region
// resolution (lock-free snapshot + binary search) plus the page walk and
// the atomic word access, the cost under every simulated Read64/Write64.
func BenchmarkPhysMemReadWrite(b *testing.B) {
	pm := NewPhysMem()
	if _, err := pm.AddRegion(1<<30, 64<<20, 0, "bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := pm.AddRegion(1<<38, 64<<20, 1, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(1) << 30
		if i%4 == 3 {
			base = 1 << 38 // exercise the non-first region too
		}
		addr := base + uint64(i%(1<<20))*8
		if err := pm.Write64(addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := pm.Read64(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhysMemReadWriteParallel measures the same data path with two
// goroutines sharing one page's words, the way the host and a guest share
// a command-queue or ring page: each writes and reads back its own
// interleaved words of the page, b.N times.
func BenchmarkPhysMemReadWriteParallel(b *testing.B) {
	pm := NewPhysMem()
	const page = 1 << 30
	if _, err := pm.AddRegion(page, 64<<20, 0, "bench"); err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := range uint64(2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				addr := page + (uint64(i)*16+g*8)%PageSize4K
				if err := pm.Write64(addr, uint64(i)); err != nil {
					b.Error(err)
					return
				}
				if _, err := pm.Read64(addr); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTLBLookup measures the hit path of the simulated TLB, which
// every memory access takes before charging: per class probed, a filter
// load and a tag compare (the hint slot, else a scan of the flat tag
// array), then two slot-index relinks to refresh the hit's recency.
func BenchmarkTLBLookup(b *testing.B) {
	t := NewTLB()
	base := uint64(1) << 30
	for i := uint64(0); i < 48; i++ {
		t.Insert(base+i*PageSize4K, PageSize4K)
	}
	for i := uint64(0); i < 16; i++ {
		t.Insert(base+1<<29+i*PageSize2M, PageSize2M)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr uint64
		if i%4 == 3 {
			addr = base + 1<<29 + uint64(i%16)*PageSize2M + 64
		} else {
			addr = base + uint64(i%48)*PageSize4K + 8
		}
		if !t.Lookup(addr) {
			b.Fatal("unexpected TLB miss")
		}
	}
}

// gatherBenchCPU returns CPU 0 of a native two-node machine with 1 GiB of
// memory per node.
func gatherBenchCPU(b *testing.B) *CPU {
	spec := DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := NewMachine(spec)
	if err != nil {
		b.Fatal(err)
	}
	return m.CPU(0)
}

// benchGather charges one AccessGather over addrs per op.
func benchGather(b *testing.B, addrs []uint64, computePer uint64) {
	c := gatherBenchCPU(b)
	if err := c.AccessGather(addrs, computePer, true, AccessDRAM); err != nil {
		b.Fatal(err) // warm-up pass: fills the TLB as the steady state has it
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AccessGather(addrs, computePer, true, AccessDRAM); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessGatherGUPS measures a GUPS-shaped gather: one OpenMP
// chunk (1536) of random words over 256 MiB of 2 MiB pages, 6 compute ops
// per element. The 32-entry 2M class holds a quarter of the 128 pages, so
// about 25 % of the elements hit and the rest walk and insert.
func BenchmarkAccessGatherGUPS(b *testing.B) {
	rng := NewRand(1)
	addrs := make([]uint64, 1536)
	for i := range addrs {
		addrs[i] = PageSize2M + rng.Next()%(256<<20)&^7
	}
	benchGather(b, addrs, 6)
}

// BenchmarkAccessGatherHalo measures a halo-exchange-shaped gather: 1536
// words alternating between a local and a remote 2 MiB page, so every
// element hits the TLB and the region changes on every element.
func BenchmarkAccessGatherHalo(b *testing.B) {
	rng := NewRand(2)
	addrs := make([]uint64, 1536)
	for i := range addrs {
		base := uint64(PageSize2M)
		if i%2 == 1 {
			base = nodeStride + PageSize2M // node 1's memory
		}
		addrs[i] = base + rng.Next()%PageSize2M&^7
	}
	benchGather(b, addrs, 0)
}

// BenchmarkAccessGatherFourPages measures MiniFE's halo shape: 1536 words
// alternating between a local and a remote 512 KiB extent, each straddling
// a 2 MiB boundary, so every element hits one of four TLB-resident pages
// and one resident run charges the whole batch.
func BenchmarkAccessGatherFourPages(b *testing.B) {
	rng := NewRand(3)
	addrs := make([]uint64, 1536)
	for i := range addrs {
		base := uint64(2*PageSize2M - 256<<10)
		if i%2 == 1 {
			base = nodeStride + 3*PageSize2M - 128<<10 // node 1's memory
		}
		addrs[i] = base + rng.Next()%(512<<10)&^7
	}
	benchGather(b, addrs, 0)
}
