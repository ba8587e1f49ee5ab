package workloads_test

import (
	"math"
	"slices"
	"testing"

	"covirt/internal/harness"
	"covirt/internal/workloads"
)

// TestSolverAnswersPinned pins the CG solvers' answers, not just their
// cycles: the final residual's bits and the per-rank cycles of MiniFE
// (40³, 20 iterations, the benchmark's size) and HPCG (16³, 10
// iterations) on 4 ranks over 2 NUMA nodes under covirt-mem, on two
// seeds. The stencil kernels and the CG vector loops must keep every
// floating-point result bit; the goldens pin only cycles, so without this
// test a kernel that changed its summation order would pass as long as it
// still converged. A change that moves these numbers on purpose updates
// them here and says why.
func TestSolverAnswersPinned(t *testing.T) {
	t.Parallel()
	minife := []uint64{90703831, 90701249, 90701246, 90701329}
	cases := []struct {
		name     string
		seed     uint64
		mk       func(seed uint64) workloads.Runner
		residual uint64 // math.Float64bits of the "residual" metric
		perCore  []uint64
	}{
		{"minife/seed1", 1, mkMiniFE40, 0x3faa155bf05b4a51, minife},
		{"minife/seed20211", 20211, mkMiniFE40, 0x3faa155bf05b4a51, minife},
		{"hpcg/seed1", 1, mkHPCG16, 0x3f36ef0aefe29dca,
			[]uint64{21937569, 21933831, 21906396, 21913448}},
		{"hpcg/seed20211", 20211, mkHPCG16, 0x3f36ef0aefe29dca,
			[]uint64{21939795, 21933033, 21911972, 21907093}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res := run(t, tc.mk(tc.seed), harness.CfgCovirtMem, harness.Layouts[1])
			if got := math.Float64bits(res.Metric("residual")); got != tc.residual {
				t.Errorf("residual bits %#x (%g), want %#x (%g)", got, res.Metric("residual"),
					tc.residual, math.Float64frombits(tc.residual))
			}
			if !slices.Equal(res.PerCore, tc.perCore) {
				t.Errorf("per-rank cycles %v, want %v", res.PerCore, tc.perCore)
			}
		})
	}
}

func mkMiniFE40(seed uint64) workloads.Runner {
	return &workloads.MiniFE{NX: 40, NY: 40, NZ: 40, Iters: 20, Seed: seed}
}

func mkHPCG16(seed uint64) workloads.Runner {
	return &workloads.HPCG{NX: 16, NY: 16, NZ: 16, Iters: 10, Seed: seed}
}
