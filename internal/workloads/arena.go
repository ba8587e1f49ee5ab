package workloads

import "sync"

// This file is the workload state arena layer (DESIGN.md §11 "Zero-alloc
// workload discipline"): steady-state inner loops must not allocate, so
// every buffer they touch is either owned by a per-rank scratch struct
// sized once before the measured region, or — when its lifetime genuinely
// crosses repetitions, like the CG vector set and the GUPS table — drawn
// from a sync.Pool here. Per-rank result slots written concurrently under
// -parallel are padded to a cache line so ranks never false-share.

// padFloat64 is a float64 padded to a cache line, for per-rank slots
// written concurrently during the measured region.
type padFloat64 struct {
	v float64
	_ [56]byte
}

// padUint64 is the uint64 variant of padFloat64.
type padUint64 struct {
	v uint64
	_ [56]byte
}

// cgState is the solver vector set for an n-row stencil problem, shared by
// all ranks of one solve (the harness reuses it across repetitions through
// cgPool — allocating seven n-row vectors per rep was the dominant
// workload-side allocation).
type cgState struct {
	n                            int
	x, b, r, p, ap, z, ones, tmp []float64
}

// cgPool recycles cgState across solves. Lifetime genuinely crosses reps
// (one solve ends, the next begins on a fresh kernel), which is the one
// case DESIGN §11 admits a sync.Pool for.
var cgPool sync.Pool

// getCGState returns a vector set for n rows with x and z zeroed — the two
// vectors the solver reads before first writing them (x accumulates from
// zero; symgs consumes the initial z of unswept neighbour rows). The rest
// are fully overwritten by setup and iteration code before any read.
func getCGState(n int) *cgState {
	if st, _ := cgPool.Get().(*cgState); st != nil && st.n == n {
		zeroVec(st.x)
		zeroVec(st.z)
		return st
	}
	return &cgState{
		n: n,
		x: make([]float64, n), b: make([]float64, n), r: make([]float64, n),
		p: make([]float64, n), ap: make([]float64, n), z: make([]float64, n),
		ones: make([]float64, n), tmp: make([]float64, n),
	}
}

// putCGState returns a vector set to the pool.
func putCGState(st *cgState) { cgPool.Put(st) }

// zeroVec clears v.
func zeroVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// gupsTablePool recycles the RandomAccess real table (16 MiB per rank at
// the default size) across repetitions. Every table in it holds
// table[i] == i: a new table is filled once, when it is allocated, and a
// run puts its table back only after the self-inverse replay has restored
// it and the verification passed. A run that fails or is killed drops its
// table.
var gupsTablePool sync.Pool

// getGUPSTable returns a words-long table holding table[i] == i.
func getGUPSTable(words uint64) []uint64 {
	if t, _ := gupsTablePool.Get().([]uint64); uint64(len(t)) == words {
		return t
	}
	t := make([]uint64, words)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// putGUPSTable returns a table to the pool; t must hold t[i] == i again.
func putGUPSTable(t []uint64) { gupsTablePool.Put(t) }

// streamBufs is one rank's three STREAM vectors (48 MiB at the default
// per-thread size). Contents are never cleaned on reuse: Run re-initializes
// every element of a and b, and the Copy kernel fully overwrites c before
// its first read.
type streamBufs struct {
	n       int
	a, b, c []float64
}

// streamBufPool recycles streamBufs across repetitions and ranks.
var streamBufPool sync.Pool

// getStreamBufs returns a vector triple of length n each.
func getStreamBufs(n int) *streamBufs {
	if s, _ := streamBufPool.Get().(*streamBufs); s != nil && s.n == n {
		return s
	}
	return &streamBufs{
		n: n,
		a: make([]float64, n), b: make([]float64, n), c: make([]float64, n),
	}
}

// putStreamBufs returns a triple to the pool.
func putStreamBufs(s *streamBufs) { streamBufPool.Put(s) }

// ljBoxPool recycles the per-rank MD system (nine n-length component
// arrays plus the cell index) across repetitions.
var ljBoxPool sync.Pool

// getLJBox returns an initialized n-atom box, reusing pooled storage when
// the size matches.
func getLJBox(n int, seed uint64) *ljBox {
	b, _ := ljBoxPool.Get().(*ljBox)
	if b == nil || b.n != n {
		b = &ljBox{
			n: n,
			x: make([]float64, n), y: make([]float64, n), z: make([]float64, n),
			vx: make([]float64, n), vy: make([]float64, n), vz: make([]float64, n),
			fx: make([]float64, n), fy: make([]float64, n), fz: make([]float64, n),
		}
	}
	b.init(seed)
	return b
}

// putLJBox returns a box to the pool.
func putLJBox(b *ljBox) { ljBoxPool.Put(b) }
