package workloads

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"covirt/internal/hw"
)

// refNeighbours is the oracle tests' neighbour walk: it derives (i, j, k)
// from the row, then calls fn with each neighbour that exists, in dk/dj/di
// order, checking every one's existence explicitly. It shares nothing with
// the kernels under test (no offset table, no class table), so a kernel
// that drops, adds or reorders a neighbour disagrees with it.
func refNeighbours(s *stencil27, row int, fn func(nrow int)) {
	i, j, k := row%s.nx, row/s.nx%s.ny, row/(s.nx*s.ny)
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				ni, nj, nk := i+di, j+dj, k+dk
				if di == 0 && dj == 0 && dk == 0 ||
					ni < 0 || ni >= s.nx || nj < 0 || nj >= s.ny || nk < 0 || nk >= s.nz {
					continue
				}
				fn((nk*s.ny+nj)*s.nx + ni)
			}
		}
	}
}

// refSpmvRow is the oracle for one row of spmv.
func refSpmvRow(s *stencil27, dst, src []float64, row int) {
	sum := 26.0 * src[row]
	refNeighbours(s, row, func(nrow int) { sum -= src[nrow] })
	dst[row] = sum
}

// refSymGS is the oracle for symgs: a forward then a backward sweep over
// [lo, hi), with a neighbour outside the block treated as zero.
func refSymGS(s *stencil27, z, r []float64, lo, hi int) {
	relax := func(row int) {
		sum := r[row]
		refNeighbours(s, row, func(nrow int) {
			if nrow >= lo && nrow < hi {
				sum += z[nrow]
			}
		})
		z[row] = sum / 26.0
	}
	for row := lo; row < hi; row++ {
		relax(row)
	}
	for row := hi - 1; row >= lo; row-- {
		relax(row)
	}
}

// stencilGrids are the oracle tests' grids: two ordinary ones, and
// degenerate ones one or two points wide on some axis, where a row sits on
// both faces of an axis and no row is interior.
var stencilGrids = [][3]int{{7, 6, 5}, {40, 40, 40}, {1, 1, 1}, {1, 3, 4}, {2, 2, 2}, {5, 1, 3}}

// stencilRanges returns the row ranges the oracle tests cover on an n-row
// grid: the whole grid, ranges that start and stop mid-line, and every
// rank's block of 1- to 4-rank splits, as the CG solver cuts them.
func stencilRanges(n int) [][2]int {
	rs := [][2]int{{0, n}, {3, n - 5}, {n / 3, n / 2}, {9, 10}}
	for threads := 1; threads <= 4; threads++ {
		for rank := 0; rank < threads; rank++ {
			rs = append(rs, [2]int{rank * n / threads, (rank + 1) * n / threads})
		}
	}
	var out [][2]int
	for _, r := range rs {
		if r[0] >= 0 && r[0] < r[1] && r[1] <= n {
			out = append(out, r)
		}
	}
	return out
}

// stencilInput fills v with values spanning many magnitudes, so any change
// in summation order shows up in the low bits.
func stencilInput(v []float64, seed uint64) {
	rng := hw.NewRand(seed)
	for i := range v {
		v[i] = math.Ldexp(float64(rng.Next()>>11), int(rng.Uint64n(40))-60)
	}
}

// sameBits fails the test at the first row whose bits differ between got
// and want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for row := range want {
		if math.Float64bits(got[row]) != math.Float64bits(want[row]) {
			t.Errorf("%s: row %d = %#x, oracle %#x", what, row,
				math.Float64bits(got[row]), math.Float64bits(want[row]))
			return
		}
	}
}

// TestSpmvMatchesReference holds spmv to refSpmvRow bit for bit, on every
// grid and range of the oracle set; rows outside the range must stay
// untouched, and the dot product spmv returns must be the one a second
// pass over the range adds, src[row]·dst[row] in row order.
func TestSpmvMatchesReference(t *testing.T) {
	for _, g := range stencilGrids {
		s := newStencil27(g[0], g[1], g[2])
		n := s.rows()
		src := make([]float64, n)
		stencilInput(src, 20211)
		full := make([]float64, n)
		for row := range full {
			refSpmvRow(&s, full, src, row)
		}
		for _, r := range stencilRanges(n) {
			got, want := make([]float64, n), make([]float64, n)
			for row := range got {
				got[row], want[row] = -1, -1
			}
			copy(want[r[0]:r[1]], full[r[0]:r[1]])
			what := fmt.Sprintf("%v grid, spmv[%d,%d)", g, r[0], r[1])
			dot := s.spmv(got, src, r[0], r[1])
			sameBits(t, what, got, want)
			wantDot := 0.0
			for row := r[0]; row < r[1]; row++ {
				wantDot += src[row] * full[row]
			}
			if math.Float64bits(dot) != math.Float64bits(wantDot) {
				t.Errorf("%s: dot %#x, second pass %#x", what, math.Float64bits(dot), math.Float64bits(wantDot))
			}
		}
	}
}

// TestSymGSMatchesReference holds symgs to refSymGS bit for bit, on every
// grid and range of the oracle set, from the same initial z.
func TestSymGSMatchesReference(t *testing.T) {
	for _, g := range stencilGrids {
		s := newStencil27(g[0], g[1], g[2])
		n := s.rows()
		r, z0 := make([]float64, n), make([]float64, n)
		stencilInput(r, 1)
		stencilInput(z0, 2)
		for _, b := range stencilRanges(n) {
			got, want := slices.Clone(z0), slices.Clone(z0)
			s.symgs(got, r, b[0], b[1])
			refSymGS(&s, want, r, b[0], b[1])
			sameBits(t, fmt.Sprintf("%v grid, symgs[%d,%d)", g, b[0], b[1]), got, want)
		}
	}
}

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
