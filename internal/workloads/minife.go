package workloads

import (
	"fmt"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// MiniFE is the Mantevo MiniFE proxy app (v2.0): implicit finite-element
// assembly of a Poisson problem followed by an unpreconditioned CG solve.
// Table I runs nx=ny=nz=250; the default here is scaled for simulation
// turnaround.
type MiniFE struct {
	NX, NY, NZ int
	Iters      int
	// Seed displaces the gather streams (0 = legacy fixed stream).
	Seed uint64
}

// Name implements Runner.
func (m *MiniFE) Name() string { return "minife" }

// SetSeed implements Seeder.
func (m *MiniFE) SetSeed(s uint64) { m.Seed = s }

// Run implements Runner.
func (m *MiniFE) Run(k *kitten.Kernel, threads int) (*Result, error) {
	nx, ny, nz := m.NX, m.NY, m.NZ
	if nx == 0 {
		nx, ny, nz = 48, 48, 48
	}
	iters := m.Iters
	if iters == 0 {
		iters = 25
	}
	s := newStencil27(nx, ny, nz)
	n := s.rows()

	// Phase 1: FE assembly. Each rank assembles the element contributions
	// for its slab: per element, an 8x8 hex element stiffness matrix is
	// computed (real flops) and scattered into the global operator
	// (charged as matrix writes).
	// Padded: ranks store their assembly time concurrently.
	assembleCycles := make([]padUint64, threads)
	bar := NewBarrier(threads)
	var residual float64
	cg := &cgSolver{s: s, precond: false, iters: iters, seed: m.Seed}
	solveFn := cg.makeRankFn(threads, &residual)
	defer cg.release()

	ord := NewRankOrder(threads)
	res, err := runParallel(k, m.Name(), threads, func(e *kitten.Env, rank int) error {
		lo := rank * n / threads
		hi := (rank + 1) * n / threads
		rows := uint64(hi - lo)

		t0 := e.CPU.TSC
		var matrix hw.Extent
		ord.Do(rank, func() {
			matrix = allocSpread(e, hw.AlignUp(rows*matrixBytesPerRow, hw.PageSize4K))
		})
		// Element loop: ~1 element per row; 8x8 stiffness, ~500 flops each.
		var acc float64
		elems := int(rows)
		for el := 0; el < elems; el++ {
			// Representative real arithmetic for the element integral.
			x := float64(el%7) * 0.125
			acc += x*x - 0.5*x + 0.0625
		}
		if acc == -1 {
			return fmt.Errorf("unreachable")
		}
		e.Compute(rows * 500)
		// Scatter: streaming writes of the assembled rows plus some
		// random updates at slab boundaries, at the affine addresses
		// (b*stride) mod size. The stride is far wider than a 2 MiB span,
		// so each update is its own access.
		e.Stream(matrix.Start, rows*matrixBytesPerRow, true)
		const scatterStride = 4099 * matrixBytesPerRow
		for b, scatters := uint64(0), rows/64; b < scatters; b++ {
			e.Access(matrix.Start+(b*scatterStride)%matrix.Size, true, hw.AccessDRAM)
		}
		// The assembly matrix is freed mid-run, while slower ranks may
		// still be allocating theirs: rank-order the free too so the
		// ledger sees one deterministic mutation sequence.
		ord.Do(rank, func() { e.Free(matrix) })
		assembleCycles[rank].v = e.CPU.TSC - t0
		bar.Wait(e)

		// Phase 2: CG solve.
		return solveFn(e, rank)
	})
	if err != nil {
		return nil, err
	}
	if residual > 0.2 {
		return nil, fmt.Errorf("minife: residual %g did not converge", residual)
	}
	var maxAssemble uint64
	for i := range assembleCycles {
		if c := assembleCycles[i].v; c > maxAssemble {
			maxAssemble = c
		}
	}
	res.Metrics["residual"] = residual
	res.Metrics["assembly_cycles"] = float64(maxAssemble)
	res.Metrics["iterations"] = float64(iters)
	rows := float64(n)
	res.Metrics["GFLOPs"] = rows * 27 * 2 * float64(iters) / Seconds(res.Cycles) / 1e9
	return res, nil
}
