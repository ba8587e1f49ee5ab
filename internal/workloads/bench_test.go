package workloads_test

import (
	"testing"

	"covirt/internal/harness"
	"covirt/internal/workloads"
)

// BenchmarkStreamTriad measures one full STREAM run on a covirt-mem node —
// the streaming path (Env.Stream → hw.CPU.MemStream → batched page spans →
// EPT-translated charging) that dominates the bandwidth figures. The triad
// rate is reported as a benchmark metric so regressions in simulated
// behaviour show up next to wall-clock ones.
func BenchmarkStreamTriad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := harness.NewNode(harness.CfgCovirtMem, harness.SingleCore, harness.NodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s := &workloads.Stream{N: 1 << 21, Iters: 3}
		res, err := s.Run(n.K, 1)
		n.Close()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metric("triad_GBs"), "sim-triad-GB/s")
	}
}

// BenchmarkSpMV measures one whole-grid SpMV on MiniFE's 40³ benchmark grid:
// 54,872 interior rows run through the x-line body and 9,128 boundary rows
// through the class table.
func BenchmarkSpMV(b *testing.B) {
	n, spmv, _ := workloads.StencilKernels(40, 40, 40)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	for b.Loop() {
		spmv(dst, src, 0, n)
	}
}

// BenchmarkSymGS measures one symmetric Gauss-Seidel sweep over a 40³ grid
// cut into 4 rank blocks, as HPCG's solver cuts it: each block's edge bands
// take the clamped per-row sweep, the rest the offset-only x-line path.
func BenchmarkSymGS(b *testing.B) {
	const ranks = 4
	n, _, symgs := workloads.StencilKernels(40, 40, 40)
	r, z := make([]float64, n), make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	for b.Loop() {
		for rank := 0; rank < ranks; rank++ {
			symgs(z, r, rank*n/ranks, (rank+1)*n/ranks)
		}
	}
}
