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
// The updates are performed for real on a Go-side table (with the standard
// self-inverse verification) while each update is charged as one random
// DRAM access at an address spread across the full logical table, so the
// simulated TLB and nested-walk behaviour matches a table of LogTableSize.
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
	// Real table: capped so wall-clock memory stays modest; the address
	// pattern still spans the full logical table.
	realLog := logN
	if realLog > 21 {
		realLog = 21
	}
	realWords := uint64(1) << realLog

	ord := NewRankOrder(threads)
	res, err := runParallel(k, r.Name(), threads, func(e *kitten.Env, rank int) error {
		table := getGUPSTable(realWords)
		defer putGUPSTable(table)
		for i := range table {
			table[i] = uint64(i)
		}
		var ext hw.Extent
		ord.Do(rank, func() { ext = allocSpread(e, logicalWords*8) })
		defer e.Free(ext)

		rng := hw.NewRand(0x243F6A8885A308D3 ^ r.Seed ^ uint64(rank+1))
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

		// Verify by replaying the same update stream: XOR is self-inverse,
		// so the table must return to its initial state.
		rng = hw.NewRand(0x243F6A8885A308D3 ^ r.Seed ^ uint64(rank+1))
		for u := 0; u < updates; u++ {
			v := rng.Next()
			idx := v & (logicalWords - 1)
			table[idx&(realWords-1)] ^= v
		}
		for i := 0; i < len(table); i += len(table)/64 + 1 {
			if table[i] != uint64(i) {
				return fmt.Errorf("randomaccess: verification failed at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	totalUpdates := float64(updates * threads)
	res.Metrics["GUPS"] = totalUpdates / Seconds(res.Cycles) / 1e9
	res.Metrics["updates"] = totalUpdates
	return res, nil
}
