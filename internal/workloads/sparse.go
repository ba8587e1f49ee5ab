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
	// offs holds the 26 linear offsets of the stencil neighbours in
	// dk/dj/di order, computed once at construction so the sweep kernels
	// never allocate.
	offs [26]int
	// inmask[row] caches interior(row): the sweep dispatch loops consult it
	// per boundary-band row, and the three divisions of the coordinate
	// derivation dominate that check. One setup pass trades them for a load.
	inmask []bool
}

// newStencil27 builds the stencil with its neighbour-offset table and
// interior mask filled.
func newStencil27(nx, ny, nz int) stencil27 {
	s := stencil27{nx: nx, ny: ny, nz: nz}
	i := 0
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				s.offs[i] = (dk*ny+dj)*nx + di
				i++
			}
		}
	}
	s.inmask = make([]bool, nx*ny*nz)
	for k := 1; k < nz-1; k++ {
		for j := 1; j < ny-1; j++ {
			row := (k*ny+j)*nx + 1
			for i := 1; i < nx-1; i++ {
				s.inmask[row] = true
				row++
			}
		}
	}
	return s
}

func (s *stencil27) rows() int { return s.nx * s.ny * s.nz }

// interior reports whether the row is away from every grid boundary, so
// all 26 neighbours exist and linear offsets are valid.
func (s *stencil27) interior(row int) bool { return s.inmask[row] }

// spmv computes dst = A*src for rows in [lo, hi) — real arithmetic. On an
// interior row, every row until the end of its x-line is also interior
// (only i advances), so the kernel runs the offset-only body across the
// whole line without re-deriving (i,j,k) per row.
//
// The body writes the 26 subtractions out in offset-table order instead of
// looping over the table: the summation order, and so every result bit, is
// the loop's, but the speed of a 26-trip inner loop swung with where the
// linker happened to place the function.
//
//covirt:hot
func (s *stencil27) spmv(dst, src []float64, lo, hi int) {
	o := &s.offs
	for row := lo; row < hi; {
		if !s.interior(row) {
			s.spmvSlow(dst, src, row)
			row++
			continue
		}
		end := row - row%s.nx + s.nx - 1 // last interior i in this x-line, exclusive
		if end > hi {
			end = hi
		}
		for ; row < end; row++ {
			sum := 26.0 * src[row]
			sum -= src[row+o[0]]
			sum -= src[row+o[1]]
			sum -= src[row+o[2]]
			sum -= src[row+o[3]]
			sum -= src[row+o[4]]
			sum -= src[row+o[5]]
			sum -= src[row+o[6]]
			sum -= src[row+o[7]]
			sum -= src[row+o[8]]
			sum -= src[row+o[9]]
			sum -= src[row+o[10]]
			sum -= src[row+o[11]]
			sum -= src[row+o[12]]
			sum -= src[row+o[13]]
			sum -= src[row+o[14]]
			sum -= src[row+o[15]]
			sum -= src[row+o[16]]
			sum -= src[row+o[17]]
			sum -= src[row+o[18]]
			sum -= src[row+o[19]]
			sum -= src[row+o[20]]
			sum -= src[row+o[21]]
			sum -= src[row+o[22]]
			sum -= src[row+o[23]]
			sum -= src[row+o[24]]
			sum -= src[row+o[25]]
			dst[row] = sum
		}
	}
}

// spmvSlow handles one boundary row with explicit neighbour-existence
// checks, in the same dk/dj/di enumeration order as the offset table.
func (s *stencil27) spmvSlow(dst, src []float64, row int) {
	sum := 26.0 * src[row]
	i := row % s.nx
	j := (row / s.nx) % s.ny
	k := row / (s.nx * s.ny)
	// Hoist the per-axis bounds: di's range depends only on i, and the
	// nj/nk checks move out of the innermost loop. Neighbour visit order
	// (dk, dj, di ascending) matches the naive triple loop exactly, so the
	// floating-point summation order — and the result bits — are unchanged.
	diLo, diHi := -1, 1
	if i == 0 {
		diLo = 0
	}
	if i == s.nx-1 {
		diHi = 0
	}
	for dk := -1; dk <= 1; dk++ {
		nk := k + dk
		if nk < 0 || nk >= s.nz {
			continue
		}
		for dj := -1; dj <= 1; dj++ {
			nj := j + dj
			if nj < 0 || nj >= s.ny {
				continue
			}
			base := (nk*s.ny+nj)*s.nx + i
			for di := diLo; di <= diHi; di++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				sum -= src[base+di]
			}
		}
	}
	dst[row] = sum
}

// symgs performs one block-local symmetric Gauss-Seidel sweep (forward
// then backward) on rows [lo, hi): HPCG's preconditioner, restricted to
// the rank's own block so parallel ranks never read each other's
// in-flight values (block-Jacobi across ranks, Gauss-Seidel within — the
// standard race-free parallel formulation). Rows that are grid-interior
// AND whose whole neighbourhood lies inside the block take the
// offset-only path, batched per x-line like spmv.
//
//covirt:hot
func (s *stencil27) symgs(z, r []float64, lo, hi int) {
	offs := &s.offs
	// The fast path needs row+offs[0] >= lo and row+offs[25] < hi (offs is
	// sorted by construction: offs[0] most negative, offs[25] most
	// positive).
	fastLo := lo - s.offs[0]
	fastHi := hi - s.offs[25]
	for row := lo; row < hi; {
		if row < fastLo || row >= fastHi || !s.interior(row) {
			if s.interior(row) {
				s.sweepEdge(z, r, row, lo, hi)
			} else {
				s.sweepSlow(z, r, row, lo, hi)
			}
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
		if row < fastLo || row >= fastHi || !s.interior(row) {
			if s.interior(row) {
				s.sweepEdge(z, r, row, lo, hi)
			} else {
				s.sweepSlow(z, r, row, lo, hi)
			}
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

// sweepEdge relaxes one grid-interior row whose neighbourhood crosses the
// block boundary [lo, hi): every offset lands inside the grid, so only
// the block clamp applies (out-of-block neighbours are treated as zero).
// The offset table is built in dk/dj/di order, so the summation order —
// and the result bits — match sweepSlow exactly. Block-edge bands are a
// large share of small per-rank blocks, which is why this avoids
// sweepSlow's per-row coordinate derivation.
func (s *stencil27) sweepEdge(z, r []float64, row, lo, hi int) {
	sum := r[row]
	for _, o := range s.offs {
		if nrow := row + o; nrow >= lo && nrow < hi {
			sum += z[nrow]
		}
	}
	z[row] = sum / 26.0
}

// sweepSlow relaxes one row with explicit bounds and block checks
// (out-of-block neighbours are treated as zero).
func (s *stencil27) sweepSlow(z, r []float64, row, lo, hi int) {
	sum := r[row]
	i := row % s.nx
	j := (row / s.nx) % s.ny
	k := row / (s.nx * s.ny)
	// Same bounds hoisting as spmvSlow; visit order and hence summation
	// order is identical to the naive triple loop.
	diLo, diHi := -1, 1
	if i == 0 {
		diLo = 0
	}
	if i == s.nx-1 {
		diHi = 0
	}
	for dk := -1; dk <= 1; dk++ {
		nk := k + dk
		if nk < 0 || nk >= s.nz {
			continue
		}
		for dj := -1; dj <= 1; dj++ {
			nj := j + dj
			if nj < 0 || nj >= s.ny {
				continue
			}
			base := (nk*s.ny+nj)*s.nx + i
			for di := diLo; di <= diHi; di++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				nrow := base + di
				if nrow < lo || nrow >= hi {
					continue // out-of-block: treated as zero
				}
				sum += z[nrow]
			}
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

		// r = b (x = 0), z = precond(r) or r, p = z.
		local := 0.0
		for i := lo; i < hi; i++ {
			r[i] = b[i]
		}
		if cg.precond {
			cg.s.symgs(z, r, lo, hi)
			ch.chargeSymGS()
		} else {
			copy(z[lo:hi], r[lo:hi])
			ch.chargeAXPY()
		}
		for i := lo; i < hi; i++ {
			p[i] = z[i]
			local += r[i] * z[i]
		}
		ch.chargeDot()
		rr0 := redRR.Sum(e, rank, local)
		if rank == 0 {
			rr = rr0
		}
		bar.Wait(e)

		for it := 0; it < cg.iters; it++ {
			cg.s.spmv(ap, p, lo, hi)
			ch.chargeSpMV()
			bar.Wait(e) // halo: neighbours read our p rows
			local = 0
			for i := lo; i < hi; i++ {
				local += p[i] * ap[i]
			}
			ch.chargeDot()
			pap := redPAp.Sum(e, rank, local)
			if rank == 0 {
				alpha = rr / pap
			}
			bar.Wait(e)
			for i := lo; i < hi; i++ {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
			ch.chargeAXPY()
			ch.chargeAXPY()
			if cg.precond {
				for i := lo; i < hi; i++ {
					z[i] = 0
				}
				cg.s.symgs(z, r, lo, hi)
				ch.chargeSymGS()
			} else {
				copy(z[lo:hi], r[lo:hi])
			}
			local = 0
			for i := lo; i < hi; i++ {
				local += r[i] * z[i]
			}
			ch.chargeDot()
			rrNew := redRR.Sum(e, rank, local)
			if rank == 0 {
				beta = rrNew / rr
				rr = rrNew
			}
			bar.Wait(e)
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
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
