package workloads

import (
	"fmt"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// RandomAccess is the HPCC RandomAccess (GUPS) benchmark: random read-
// modify-write updates over a table far larger than the TLB reach, making
// it the paper's most translation-sensitive workload (Fig. 5b).
//
// Each update is charged as one random DRAM access at an address spread
// across the full logical table, so the simulated TLB and nested-walk
// behaviour matches a table of LogTableSize. The updates are also XORed
// into a real Go-side table of at most gupsRealWords words, which serves
// only the standard self-inverse verification: each rank replays its
// stream and checks every word of its table.
type RandomAccess struct {
	// LogTableSize is log2 of the logical table length in 64-bit words
	// (Table I runs the benchmark with parameter 25).
	LogTableSize uint
	// Updates is the number of updates per thread (default 4x table size
	// scaled down; we use a fixed count for bounded runs).
	Updates int
	// Seed displaces the per-rank update streams (0 = legacy fixed stream).
	Seed uint64
}

// ompChunk models the OpenMP runtime's dynamic-scheduling signalling:
// every ompChunk updates, the runtime performs one APIC ICR write
// (work-distribution check) — traffic that traps under IPI protection.
const ompChunk = 1536

// gupsRealWords caps the real table at 32 KiB, which stays in a host
// core's L1 or L2. The table backs only the verification; the charged
// addresses derive from the logical index, so its size moves no simulated
// number.
const gupsRealWords = 1 << 12

// Name implements Runner.
func (r *RandomAccess) Name() string { return "randomaccess" }

// SetSeed implements Seeder.
func (r *RandomAccess) SetSeed(s uint64) { r.Seed = s }

// fillUpdates performs len(buf) update steps on the real table and records
// the charged address of each: the RNG draw, logical index derivation, and
// XOR into the (capped) real table, one update at a time — XOR is
// commutative, so batching the table writes ahead of the charges preserves
// the verification property.
//
//covirt:hot
func fillUpdates(buf []uint64, rng *hw.Rand, table []uint64, logicalWords uint64, ext hw.Extent) {
	realMask := uint64(len(table) - 1)
	for i := range buf {
		v := rng.Next()
		idx := v & (logicalWords - 1)
		table[idx&realMask] ^= v
		buf[i] = ext.Start + idx*8
	}
}

// Run implements Runner.
func (r *RandomAccess) Run(k *kitten.Kernel, threads int) (*Result, error) {
	logN := r.LogTableSize
	if logN == 0 {
		logN = 25
	}
	updates := r.Updates
	if updates == 0 {
		updates = 1 << 19
	}
	logicalWords := uint64(1) << logN
	realWords := min(logicalWords, gupsRealWords)

	ord := NewRankOrder(threads)
	res, err := runParallel(k, r.Name(), threads, func(e *kitten.Env, rank int) error {
		table := make([]uint64, realWords)
		for i := range table {
			table[i] = uint64(i)
		}
		var ext hw.Extent
		ord.Do(e, rank, func() { ext = allocSpread(e, logicalWords*8) })
		defer e.Free(ext)

		seed := 0x243F6A8885A308D3 ^ r.Seed ^ uint64(rank+1)
		rng := hw.NewRand(seed)
		// Updates are charged one OMP chunk per batch, so the
		// dynamic-schedule IPI fires after the last update of each full
		// chunk. Each update charges 6 compute ops (RNG + index
		// arithmetic) before its table access.
		buf := make([]uint64, min(updates, ompChunk))
		for u := 0; u < updates; u += len(buf) {
			seg := buf[:min(updates-u, len(buf))]
			fillUpdates(seg, &rng, table, logicalWords, ext)
			e.AccessGather(seg, 6, true, hw.AccessDRAM)
			if len(seg) == ompChunk {
				// OpenMP dynamic-schedule check: one ICR write to self.
				e.SendIPI(rank, VectorOMPSched)
			}
		}
		return verifyUpdates(table, seed, updates)
	})
	if err != nil {
		return nil, err
	}
	totalUpdates := float64(updates * threads)
	res.Metrics["GUPS"] = totalUpdates / Seconds(res.Cycles) / 1e9
	res.Metrics["updates"] = totalUpdates
	return res, nil
}

// verifyUpdates replays the first n updates of seed's stream into table,
// which started with every word equal to its index, and reports an error
// unless every word holds its index again. XOR is self-inverse, so a table
// that took each update exactly once returns to its initial state, and a
// single lost or repeated update leaves its word off by the update's
// value, which the generator never draws as zero. The real table is no
// longer than the logical one and both are powers of two, so an update's
// real index is its value masked to the table.
func verifyUpdates(table []uint64, seed uint64, n int) error {
	rng := hw.NewRand(seed)
	mask := uint64(len(table) - 1)
	for range n {
		v := rng.Next()
		table[v&mask] ^= v
	}
	for i, v := range table {
		if v != uint64(i) {
			return fmt.Errorf("randomaccess: verification failed at word %d", i)
		}
	}
	return nil
}
