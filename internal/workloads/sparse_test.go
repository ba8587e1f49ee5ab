package workloads

import (
	"testing"

	"covirt/internal/hw"
)

// gatherCharger builds a sparseCharger with synthetic extents, bypassing
// the Env carve-out: fillGatherAddrs only reads the extents, the RNG, and
// the precomputed reciprocals, so address generation is testable (and
// benchmarkable) without a simulated machine.
func gatherCharger(vecW, remW, scatW uint64, seed uint64) *sparseCharger {
	c := &sparseCharger{
		vec: hw.Extent{Start: 0x1000, Size: vecW * 8},
		rng: hw.NewRand(seed),
	}
	c.vecMod = hw.NewFixedDiv(vecW)
	if remW > 0 {
		c.remote = hw.Extent{Start: 0x40000000, Size: remW * 8}
		c.remMod = hw.NewFixedDiv(remW)
	}
	if scatW > 0 {
		c.scatter = hw.Extent{Start: 0x80000000, Size: scatW * 8}
		c.scatMod = hw.NewFixedDiv(scatW)
	}
	return c
}

// gatherTarget picks the extent the i-th random gather hits: alternating
// local and remote when the partition spans NUMA nodes; the local share
// goes to the scatter extent when one is configured.
func (c *sparseCharger) gatherTarget(i uint64) hw.Extent {
	if c.remote.Size > 0 && i%2 == 1 {
		return c.remote
	}
	if c.scatter.Size > 0 {
		return c.scatter
	}
	return c.vec
}

// fillGatherAddrsModulo is the reference element-wise form fillGatherAddrs
// replaced: one scalar draw per gather, reduced with a hardware modulo
// over the target gatherTarget picks. The equivalence test pins the
// reciprocal path to it bit for bit.
func (c *sparseCharger) fillGatherAddrsModulo(buf []uint64) {
	for m := range buf {
		tgt := c.gatherTarget(uint64(m))
		buf[m] = tgt.Start + (c.rng.Next()%(tgt.Size/8))*8
	}
}

// TestFillGatherAddrsReciprocalEquivalence drives the reciprocal and
// modulo forms from identical RNG states across the three target
// configurations (local-only, +scatter, +remote alternation) with
// non-power-of-two word counts, requiring identical address streams.
func TestFillGatherAddrsReciprocalEquivalence(t *testing.T) {
	cases := []struct {
		name             string
		vecW, remW, scat uint64
	}{
		{"local-only", 13825, 0, 0},
		{"scatter", 13825, 0, 1<<21 + 7},
		{"remote", 13825, 13824, 0},
		{"remote-scatter", 997, 1031, 1<<21 + 7},
		{"one-word", 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				a := gatherCharger(tc.vecW, tc.remW, tc.scat, seed)
				b := gatherCharger(tc.vecW, tc.remW, tc.scat, seed)
				got := make([]uint64, 4096)
				want := make([]uint64, 4096)
				a.fillGatherAddrs(got)
				b.fillGatherAddrsModulo(want)
				if a.rng != b.rng {
					t.Fatalf("seed %d: RNG states diverge after fill", seed)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: addr[%d] = %#x, modulo form %#x", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// The benchmark pair quantifies the per-element DIV the reciprocal form
// removes; bench.sh snapshots both so the delta lands in the committed
// BENCH artifact.

func benchFill(b *testing.B, fill func(c *sparseCharger, buf []uint64)) {
	c := gatherCharger(13825, 13824, 1<<21+7, 1)
	buf := make([]uint64, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(c, buf)
	}
	b.SetBytes(int64(len(buf) * 8))
}

func BenchmarkFillGatherAddrs(b *testing.B) {
	benchFill(b, (*sparseCharger).fillGatherAddrs)
}

func BenchmarkFillGatherAddrsModulo(b *testing.B) {
	benchFill(b, (*sparseCharger).fillGatherAddrsModulo)
}
