package workloads_test

import (
	"slices"
	"testing"

	"covirt/internal/harness"
	"covirt/internal/workloads"
)

// TestSpanRoutingEquivalence pins the span-routed workloads (AccessGather
// batches) to the per-rank cycles their element-wise reference loops —
// one Compute/Access pair per element — charged on the same configs. The
// element-wise loops are gone; the figures below were recorded from them,
// and both paths produced them identically. A divergence means a batch
// charged different cycles, delivered a timer tick at a different
// element, or reordered an RNG stream.
func TestSpanRoutingEquivalence(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		mk      func() workloads.Runner
		layout  harness.Layout
		slow    bool
		perCore []uint64
	}{
		{"gups", func() workloads.Runner {
			return &workloads.RandomAccess{LogTableSize: 22, Updates: 1 << 13}
		}, harness.SingleCore, false, []uint64{1535324}},
		{"hpcg", func() workloads.Runner {
			return &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 8}
		}, harness.SingleCore, false, []uint64{200122712}},
		// The 4-core/2-node layout exercises the remote-extent gather
		// alternation and concurrent per-rank chargers.
		{"hpcg-parallel", func() workloads.Runner {
			return &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 14}
		}, harness.Layouts[1], true, []uint64{100999264, 101009612, 101015732, 101019188}},
		{"minife", func() workloads.Runner {
			return &workloads.MiniFE{NX: 24, NY: 24, NZ: 24, Iters: 10}
		}, harness.SingleCore, true, []uint64{38317116}},
		// Chute is the lookup-heaviest LAMMPS variant: rebuild every step
		// plus 0.45 random table lookups per pair.
		{"lammps-chute", func() workloads.Runner {
			return &workloads.Lammps{Problem: workloads.Chute, AtomsPerRank: 343, Steps: 6}
		}, harness.SingleCore, false, []uint64{4300448}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.slow && testing.Short() {
				t.Skip("full solve; slow under -race")
			}
			res := run(t, tc.mk(), harness.CfgNative, tc.layout)
			if !slices.Equal(res.PerCore, tc.perCore) {
				t.Errorf("per-rank cycles %v, element-wise reference charged %v", res.PerCore, tc.perCore)
			}
			if want := slices.Max(tc.perCore); res.Cycles != want {
				t.Errorf("cycles %d, element-wise reference charged %d", res.Cycles, want)
			}
		})
	}
}
