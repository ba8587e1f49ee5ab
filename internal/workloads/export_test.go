package workloads

// Parked reports how many ranks are asleep at the barrier.
func (b *Barrier) Parked() int { return b.wait.Parked() }

// StencilKernels exposes an nx×ny×nz stencil's row count and its SpMV and
// SymGS kernels to the external benchmarks.
func StencilKernels(nx, ny, nz int) (rows int, spmv func(dst, src []float64, lo, hi int) float64, symgs func(dst, src []float64, lo, hi int)) {
	s := newStencil27(nx, ny, nz)
	return s.rows(), s.spmv, s.symgs
}
