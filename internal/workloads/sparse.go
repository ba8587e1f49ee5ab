package workloads

import (
	"math"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// stencil27 models the HPCG-style symmetric positive-definite problem: a
// 27-point stencil discretization on an nx x ny x nz grid with 26 on the
// diagonal and -1 off-diagonal. The matrix is implicit (regenerated from
// the stencil), matching how proxy apps avoid storing what they can
// recompute — but the *memory system* sees the CSR-equivalent traffic via
// the charge helpers below.
type stencil27 struct {
	nx, ny, nz int
	// cls[row] is the row's boundary class: one bit per grid face the row
	// lies on (the clsXLo..clsZHi bits), 0 for an interior row. A row on
	// both faces of an axis (a grid one point wide) has both bits set.
	cls []uint8
	// nbr[class] lists the linear offsets of the neighbours a row of that
	// class has, in dk/dj/di order: the boundary kernels walk it instead
	// of re-deriving (i, j, k) with three divisions and testing every
	// neighbour. nbr[0] is all 26 offsets, ascending on any grid with an
	// interior row. The lists share one backing array, filled once at
	// construction, so the kernels never allocate.
	nbr [64][]int
}

// Boundary-class bits: a row at i == 0 has clsXLo, at i == nx-1 clsXHi,
// and likewise for j and k.
const (
	clsXLo = 1 << iota
	clsXHi
	clsYLo
	clsYHi
	clsZLo
	clsZHi
)

// newStencil27 builds the stencil with its per-row boundary classes and
// per-class neighbour lists filled.
func newStencil27(nx, ny, nz int) stencil27 {
	s := stencil27{nx: nx, ny: ny, nz: nz}
	backing := make([]int, 26*len(s.nbr))
	for c := range s.nbr {
		s.nbr[c] = backing[26*c : 26*c : 26*(c+1)]
	}
	// has reports whether a row of class c has a neighbour d steps along
	// the axis whose low-face bit is lo.
	has := func(c, d, lo int) bool {
		return d < 0 && c&lo == 0 || d == 0 || d > 0 && c&(lo<<1) == 0
	}
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				o := (dk*ny+dj)*nx + di
				for c := range s.nbr {
					if has(c, di, clsXLo) && has(c, dj, clsYLo) && has(c, dk, clsZLo) {
						s.nbr[c] = append(s.nbr[c], o)
					}
				}
			}
		}
	}
	// edge returns the class bits of coordinate v on an axis of n points.
	edge := func(v, n int, lo uint8) uint8 {
		var c uint8
		if v == 0 {
			c |= lo
		}
		if v == n-1 {
			c |= lo << 1
		}
		return c
	}
	s.cls = make([]uint8, nx*ny*nz)
	row := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			kj := edge(k, nz, clsZLo) | edge(j, ny, clsYLo)
			for i := 0; i < nx; i++ {
				s.cls[row] = kj | edge(i, nx, clsXLo)
				row++
			}
		}
	}
	return s
}

func (s *stencil27) rows() int { return s.nx * s.ny * s.nz }

// spmv computes dst = A*src for rows in [lo, hi) — real arithmetic — and
// returns the dot product of src and dst over those rows, added in row
// order as each row is written: the CG solver's p·Ap, with no second pass
// over the vectors. On an interior row, every row until the end of its
// x-line is also interior (only i advances), so the kernel hands the whole
// run to spmvLine without looking at the rows' classes again.
//
//covirt:hot
func (s *stencil27) spmv(dst, src []float64, lo, hi int) float64 {
	nx := s.nx
	dot := 0.0
	for row := lo; row < hi; {
		if s.cls[row] != 0 {
			dot += src[row] * s.spmvSlow(dst, src, row)
			row++
			continue
		}
		end := row - row%nx + nx - 1 // last interior i in this x-line, exclusive
		if end > hi {
			end = hi
		}
		dot = s.spmvLine(dst[row:end], src, row, dot)
		row = end
	}
	return dot
}

// spmvLine computes d = (A*src)[row:row+len(d)], a run of interior rows in
// one x-line. The 26 neighbours of those rows lie on nine neighbour lines,
// one per (dk, dj), each len(d)+2 long starting one point before the run:
// neighbour (dk, dj, di) of row+t is that line's element t+1+di. The body
// subtracts them in dk/dj/di order, nbr[0]'s order, so the summation order,
// and every result bit, is the boundary kernels'. With each line sliced to
// one common length, the compiler keeps 3 of the 26 per-row bounds checks
// that indexing src by row+offset costs. It returns dot plus each row's
// src·d term, added in row order.
func (s *stencil27) spmvLine(d, src []float64, row int, dot float64) float64 {
	nx, plane, n := s.nx, s.nx*s.ny, len(d)+2
	base := row - plane - nx - 1 // neighbour (-1, -1, -1) of row
	lmm, lm0, lmp := src[base:][:n], src[base+nx:][:n], src[base+2*nx:][:n]
	base += plane
	l0m, l00, l0p := src[base:][:n], src[base+nx:][:n], src[base+2*nx:][:n]
	base += plane
	lpm, lp0, lpp := src[base:][:n], src[base+nx:][:n], src[base+2*nx:][:n]
	for t := range d {
		sum := 26.0 * l00[t+1]
		sum -= lmm[t]
		sum -= lmm[t+1]
		sum -= lmm[t+2]
		sum -= lm0[t]
		sum -= lm0[t+1]
		sum -= lm0[t+2]
		sum -= lmp[t]
		sum -= lmp[t+1]
		sum -= lmp[t+2]
		sum -= l0m[t]
		sum -= l0m[t+1]
		sum -= l0m[t+2]
		sum -= l00[t]
		sum -= l00[t+2]
		sum -= l0p[t]
		sum -= l0p[t+1]
		sum -= l0p[t+2]
		sum -= lpm[t]
		sum -= lpm[t+1]
		sum -= lpm[t+2]
		sum -= lp0[t]
		sum -= lp0[t+1]
		sum -= lp0[t+2]
		sum -= lpp[t]
		sum -= lpp[t+1]
		sum -= lpp[t+2]
		d[t] = sum
		dot += l00[t+1] * sum
	}
	return dot
}

// spmvSlow computes one boundary row from its class's neighbour list, in
// dk/dj/di order, and returns it.
func (s *stencil27) spmvSlow(dst, src []float64, row int) float64 {
	sum := 26.0 * src[row]
	for _, o := range s.nbr[s.cls[row]] {
		sum -= src[row+o]
	}
	dst[row] = sum
	return sum
}

// symgs performs one block-local symmetric Gauss-Seidel sweep (forward
// then backward) on rows [lo, hi): HPCG's preconditioner, restricted to
// the rank's own block so parallel ranks never read each other's
// in-flight values (block-Jacobi across ranks, Gauss-Seidel within — the
// standard race-free parallel formulation). Rows that are grid-interior
// AND whose whole neighbourhood lies inside the block take the
// offset-only path, batched per x-line like spmv; every other row takes
// sweepSlow.
//
//covirt:hot
func (s *stencil27) symgs(z, r []float64, lo, hi int) {
	// The fast path needs row+offs[0] >= lo and row+offs[25] < hi: the
	// offsets ascend wherever the path runs.
	offs := s.nbr[0]
	fastLo := lo - offs[0]
	fastHi := hi - offs[len(offs)-1]
	for row := lo; row < hi; {
		if row < fastLo || row >= fastHi || s.cls[row] != 0 {
			s.sweepSlow(z, r, row, lo, hi)
			row++
			continue
		}
		end := row - row%s.nx + s.nx - 1
		if end > hi {
			end = hi
		}
		if end > fastHi {
			end = fastHi
		}
		for ; row < end; row++ {
			sum := r[row]
			for _, o := range offs {
				sum += z[row+o]
			}
			z[row] = sum / 26.0
		}
	}
	for row := hi - 1; row >= lo; {
		if row < fastLo || row >= fastHi || s.cls[row] != 0 {
			s.sweepSlow(z, r, row, lo, hi)
			row--
			continue
		}
		start := row - row%s.nx + 1 // first interior i in this x-line
		if start < lo {
			start = lo
		}
		if start < fastLo {
			start = fastLo
		}
		for ; row >= start; row-- {
			sum := r[row]
			for _, o := range offs {
				sum += z[row+o]
			}
			z[row] = sum / 26.0
		}
	}
}

// sweepSlow relaxes one row from its class's neighbour list, treating a
// neighbour outside the block [lo, hi) as zero. It serves both grid-
// boundary rows and interior rows (class 0, all 26 offsets) whose
// neighbourhood crosses the block edge, a large share of a small per-rank
// block. The list is in dk/dj/di order, as the fast path sums, so the
// summation order, and the result bits, are the fast path's.
func (s *stencil27) sweepSlow(z, r []float64, row, lo, hi int) {
	sum := r[row]
	for _, o := range s.nbr[s.cls[row]] {
		if nrow := row + o; nrow >= lo && nrow < hi {
			sum += z[nrow]
		}
	}
	z[row] = sum / 26.0
}

// sparseCharger charges the memory-system footprint of sparse kernels on a
// rank's CPU: CSR-equivalent matrix streaming, vector streaming, and a
// fraction of truly random gathers (cache-missing indirect accesses).
type sparseCharger struct {
	env     *kitten.Env
	matrix  hw.Extent // simulated CSR storage for this rank's rows
	vec     hw.Extent // simulated local vector storage
	remote  hw.Extent // neighbour-rank vector storage on the other node
	scatter hw.Extent // large poor-locality working set (e.g. MG hierarchy)
	rows    uint64
	rng     hw.Rand

	// gatherMissFrac*rows random DRAM accesses per SpMV-equivalent model
	// the indirect x-gathers that fall out of cache. When the enclave
	// spans NUMA nodes, half of them target the remote node's portion of
	// the vector (halo/boundary gathers). When scatterBytes is set, the
	// local share targets the scatter extent, whose size exceeds TLB
	// reach — HPCG's multigrid hierarchy behaves this way, which is what
	// gives it the small but persistent translation overhead the paper
	// reports.
	gatherMissFrac float64
	scatterBytes   uint64

	// gatherBuf is the reusable address buffer, one slot per random
	// gather of an SpMV, that fillGatherAddrs fills and chargeSpMV hands
	// to Env.AccessGather in one call.
	gatherBuf []uint64

	// vecMod/remMod/scatMod are fixed-divisor reciprocals for the
	// per-target word counts (extent size / 8). The extents are fixed at
	// carve-out time, so fillGatherAddrs reduces each RNG draw with a
	// multiply instead of a per-element DIV; hw.FixedDiv.Mod is exact, so
	// the gather addresses are bit-identical to the modulo form. Zero for
	// targets that were never allocated.
	vecMod, remMod, scatMod hw.FixedDiv
}

// matrixBytesPerRow is the CSR traffic per 27-entry row (27 values + 27
// column indices + row pointer).
const matrixBytesPerRow = 27*12 + 8

// newSparseCharger sizes the simulated storage for a rank owning `rows` of
// a problem with `totalRows`. gatherFrac and scatterBytes configure the
// random-gather model (see the field docs); seed displaces the gather
// stream (0 = legacy fixed stream). ord serializes the carve-out in rank
// order so concurrent ranks see a scheduling-independent layout.
func newSparseCharger(e *kitten.Env, ord *RankOrder, rank, rows, totalRows int, gatherFrac float64, scatterBytes, seed uint64) *sparseCharger {
	c := &sparseCharger{
		env:            e,
		rows:           uint64(rows),
		rng:            hw.NewRand(0x9E3779B97F4A7C15 ^ seed ^ uint64(rank+1)),
		gatherMissFrac: gatherFrac,
		scatterBytes:   scatterBytes,
	}
	c.gatherBuf = make([]uint64, uint64(float64(c.rows*27)*c.gatherMissFrac))
	ord.Do(e, rank, func() {
		c.matrix = allocSpread(e, hw.AlignUp(uint64(rows)*matrixBytesPerRow, hw.PageSize4K))
		c.vec = allocSpread(e, hw.AlignUp(uint64(totalRows)*8, hw.PageSize4K))
		if scatterBytes > 0 {
			c.scatter = allocSpread(e, scatterBytes)
		}
		for _, node := range e.K.Nodes() {
			if node != e.CPU.Node {
				c.remote = e.Alloc(node, hw.AlignUp(uint64(totalRows)*8, hw.PageSize4K))
				break
			}
		}
	})
	// The extents are assigned inside the ordered carve-out above, so the
	// reciprocals can only be derived here, after ord.Do has run it.
	if w := c.vec.Size / 8; w > 0 {
		c.vecMod = hw.NewFixedDiv(w)
	}
	if w := c.remote.Size / 8; w > 0 {
		c.remMod = hw.NewFixedDiv(w)
	}
	if w := c.scatter.Size / 8; w > 0 {
		c.scatMod = hw.NewFixedDiv(w)
	}
	return c
}

// free releases the simulated storage.
func (c *sparseCharger) free() {
	c.env.Free(c.matrix)
	c.env.Free(c.vec)
	if c.remote.Size > 0 {
		c.env.Free(c.remote)
	}
	if c.scatter.Size > 0 {
		c.env.Free(c.scatter)
	}
}

// fillGatherAddrs generates one SpMV's worth of random gather addresses
// into buf, one RNG draw per address. Gathers alternate between local and
// remote targets when the partition spans NUMA nodes; the local share goes
// to the scatter extent when one is configured.
//
//covirt:hot
func (c *sparseCharger) fillGatherAddrs(buf []uint64) {
	// The per-target word counts are extent sizes fixed at carve-out, so
	// each draw is reduced with the precomputed reciprocal (hw.FixedDiv)
	// instead of a per-element DIV. Mod is exact, so the offsets match the
	// per-element modulo form bit for bit.
	haveRem := c.remMod.D() > 0
	haveScat := c.scatMod.D() > 0
	for m := range buf {
		start, mod := c.vec.Start, c.vecMod
		if haveRem && uint64(m)%2 == 1 {
			start, mod = c.remote.Start, c.remMod
		} else if haveScat {
			start, mod = c.scatter.Start, c.scatMod
		}
		buf[m] = start + mod.Mod(c.rng.Next())*8
	}
}

// chargeSpMV charges one sparse matrix-vector multiply over the rank's rows.
//
//covirt:hot
func (c *sparseCharger) chargeSpMV() {
	e := c.env
	// Stream the matrix (values + indices) and the destination vector.
	e.Stream(c.matrix.Start, c.rows*matrixBytesPerRow, false)
	e.Stream(c.vec.Start, c.rows*8, true)
	// Source vector: mostly streaming reuse, plus the cache-missing
	// indirect gathers.
	e.Stream(c.vec.Start, c.rows*8, false)
	c.fillGatherAddrs(c.gatherBuf)
	e.AccessGather(c.gatherBuf, 0, false, hw.AccessDRAM)
	// 2 flops per nonzero.
	e.Compute(c.rows * 27 * 2)
}

// chargeSymGS charges one symmetric Gauss-Seidel sweep (≈2x SpMV traffic).
func (c *sparseCharger) chargeSymGS() {
	c.chargeSpMV()
	c.chargeSpMV()
}

// chargeAXPY charges y = a*x + y over the rank's rows.
func (c *sparseCharger) chargeAXPY() {
	e := c.env
	e.Stream(c.vec.Start, c.rows*8, false)
	e.Stream(c.vec.Start, c.rows*8, true)
	e.Compute(c.rows * 2)
}

// chargeDot charges a local dot product over the rank's rows.
func (c *sparseCharger) chargeDot() {
	e := c.env
	e.Stream(c.vec.Start, c.rows*8*2, false)
	e.Compute(c.rows * 2)
}

// cgSolver runs preconditioned (optional) conjugate gradients on the
// stencil problem across `threads` guest ranks with real arithmetic and
// charged memory traffic, returning the final relative residual and
// iteration count.
type cgSolver struct {
	s       stencil27
	precond bool
	iters   int
	// gatherFrac and scatterBytes configure the sparseCharger (see its
	// field docs); zero values select MiniFE-like cache-friendly gathers.
	gatherFrac   float64
	scatterBytes uint64
	// seed displaces the charger's gather streams (0 = legacy fixed).
	seed uint64
	// st is the pooled vector set, checked out by makeRankFn and returned
	// by release after the solve.
	st *cgState
}

// release returns the solver's vector set to the arena pool. Callers must
// invoke it after the parallel region has completed.
func (cg *cgSolver) release() {
	if cg.st != nil {
		putCGState(cg.st)
		cg.st = nil
	}
}

// run executes the solve; fn is invoked per rank by runParallel's caller.
func (cg *cgSolver) makeRankFn(threads int, finalRes *float64) func(e *kitten.Env, rank int) error {
	n := cg.s.rows()
	st := getCGState(n) // x and z arrive zeroed; the rest are overwritten below
	cg.st = st
	x, b, r, p, ap, z := st.x, st.b, st.r, st.p, st.ap, st.z

	// b = A * ones, so the exact solution is all-ones.
	ones := st.ones
	for i := range ones {
		ones[i] = 1
	}
	cg.s.spmv(b, ones, 0, n)

	bar := NewBarrier(threads)
	ord := NewRankOrder(threads)
	redRR := NewAllreduce(threads)
	redPAp := NewAllreduce(threads)
	var bNorm float64
	for _, v := range b {
		bNorm += v * v
	}
	bNorm = math.Sqrt(bNorm)

	// Shared scalar state (rank 0 publishes between barriers).
	var alpha, beta, rr float64

	return func(e *kitten.Env, rank int) error {
		lo := rank * n / threads
		hi := (rank + 1) * n / threads
		gf := cg.gatherFrac
		if gf == 0 {
			gf = 0.02
		}
		ch := newSparseCharger(e, ord, rank, hi-lo, n, gf, cg.scatterBytes, cg.seed)
		defer ch.free()

		// The rank's rows of each vector, resliced to one common length so
		// the dot and axpy loops below index them without bounds checks.
		// Without a preconditioner z = r exactly, so zs reads r's rows.
		xs := x[lo:hi]
		bs, rs, ps, aps := b[lo:][:len(xs)], r[lo:][:len(xs)], p[lo:][:len(xs)], ap[lo:][:len(xs)]
		zs := rs
		if cg.precond {
			zs = z[lo:]
		}
		zs = zs[:len(xs)]

		// r = b (x = 0), z = precond(r) or r, p = z.
		copy(rs, bs)
		if cg.precond {
			cg.s.symgs(z, r, lo, hi)
			ch.chargeSymGS()
		} else {
			ch.chargeAXPY() // the model still charges the z = r copy
		}
		local := 0.0
		for i := range ps {
			ps[i] = zs[i]
			local += rs[i] * zs[i]
		}
		ch.chargeDot()
		rr0 := redRR.Sum(e, rank, local)
		if rank == 0 {
			rr = rr0
		}
		bar.Wait(e)

		// Each dot product below is summed in the loop that writes its
		// last operand: p·Ap by spmv, and r·r, when z is r, by the r update
		// (with a preconditioner that sum is dropped and r·z summed after
		// symgs). The products are the same and are added in the same row
		// order as a separate pass would add them, so every result bit is
		// too.
		for it := 0; it < cg.iters; it++ {
			local = cg.s.spmv(ap, p, lo, hi)
			ch.chargeSpMV()
			bar.Wait(e) // halo: neighbours read our p rows
			ch.chargeDot()
			pap := redPAp.Sum(e, rank, local)
			if rank == 0 {
				alpha = rr / pap
			}
			bar.Wait(e)
			a := alpha
			local = 0
			for i := range xs {
				xs[i] += a * ps[i]
				ri := rs[i] - a*aps[i]
				rs[i] = ri
				local += ri * ri
			}
			ch.chargeAXPY()
			ch.chargeAXPY()
			if cg.precond {
				clear(zs)
				cg.s.symgs(z, r, lo, hi)
				ch.chargeSymGS()
				local = 0
				for i := range rs {
					local += rs[i] * zs[i]
				}
			}
			ch.chargeDot()
			rrNew := redRR.Sum(e, rank, local)
			if rank == 0 {
				beta = rrNew / rr
				rr = rrNew
			}
			bar.Wait(e)
			bt := beta
			for i := range ps {
				ps[i] = zs[i] + bt*ps[i]
			}
			ch.chargeAXPY()
			bar.Wait(e)
		}

		if rank == 0 && finalRes != nil {
			// True residual ||b - Ax|| / ||b||.
			tmp := st.tmp
			cg.s.spmv(tmp, x, 0, n)
			sum := 0.0
			for i := range tmp {
				d := b[i] - tmp[i]
				sum += d * d
			}
			*finalRes = math.Sqrt(sum) / bNorm
		}
		return nil
	}
}
