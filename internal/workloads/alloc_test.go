package workloads

import (
	"math"
	"testing"

	"covirt/internal/hw"
)

// These tests are the regression teeth on the zero-alloc discipline: every
// steady-state solver loop and gather-fill helper is pinned at 0 allocs per
// call, so a reintroduced per-iteration make/append shows up as a test
// failure rather than a silent wall-clock regression.

func TestStencilKernelsAllocFree(t *testing.T) {
	s := newStencil27(24, 24, 24)
	n := s.rows()
	st := getCGState(n)
	defer putCGState(st)
	for i := range st.ones {
		st.ones[i] = 1
	}
	s.spmv(st.b, st.ones, 0, n)
	if a := testing.AllocsPerRun(10, func() { s.spmv(st.ap, st.b, 0, n) }); a != 0 {
		t.Errorf("spmv allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(10, func() { s.symgs(st.z, st.b, 0, n) }); a != 0 {
		t.Errorf("symgs allocates %v per call", a)
	}
	// Partial blocks exercise the out-of-block slow path at rank boundaries.
	if a := testing.AllocsPerRun(10, func() { s.symgs(st.z, st.b, n/4, n/2) }); a != 0 {
		t.Errorf("partial-block symgs allocates %v per call", a)
	}
}

func TestLJBoxStepAllocFree(t *testing.T) {
	b := getLJBox(343, 1)
	defer putLJBox(b)
	b.computeForces() // warm up: sizes the cell index and the Verlet list
	if a := testing.AllocsPerRun(10, func() {
		b.buildCells()
		b.computeForces()
		b.integrate()
	}); a != 0 {
		t.Errorf("MD step allocates %v per step", a)
	}
	if a := testing.AllocsPerRun(5, func() { _ = b.totalEnergy() }); a != 0 {
		t.Errorf("totalEnergy allocates %v per call", a)
	}
}

func TestGatherFillHelpersAllocFree(t *testing.T) {
	ext := hw.Extent{Start: 1 << 21, Size: 1 << 20}
	rng := hw.NewRand(1)
	buf := make([]uint64, 2048)
	if a := testing.AllocsPerRun(10, func() { fillRandomAddrs(buf, &rng, ext) }); a != 0 {
		t.Errorf("fillRandomAddrs allocates %v per call", a)
	}
	table := make([]uint64, 1024)
	if a := testing.AllocsPerRun(10, func() { fillUpdates(buf, &rng, table, 1<<25, ext) }); a != 0 {
		t.Errorf("fillUpdates allocates %v per call", a)
	}
	ch := &sparseCharger{rng: hw.NewRand(2), vec: ext}
	if a := testing.AllocsPerRun(10, func() { ch.fillGatherAddrs(buf) }); a != 0 {
		t.Errorf("fillGatherAddrs allocates %v per call", a)
	}
}

func TestCGStatePoolZeroesXAndZ(t *testing.T) {
	st := getCGState(64)
	for i := range st.x {
		st.x[i], st.z[i], st.r[i] = 1, 2, 3
	}
	putCGState(st)
	st2 := getCGState(64)
	defer putCGState(st2)
	for i := range st2.x {
		if st2.x[i] != 0 || st2.z[i] != 0 {
			t.Fatalf("pooled state not zeroed at %d: x=%g z=%g", i, st2.x[i], st2.z[i])
		}
	}
}

// forcesLegacyWrap is the reference force pass the Verlet list replaced:
// the full 27-offset cell enumeration with a j<=i skip, recomputed from
// the cell index every step.
func (b *ljBox) forcesLegacyWrap() {
	mod := func(a, m int) int { return ((a % m) + m) % m }
	maxc := b.nc
	ncells := maxc * maxc * maxc
	for c := 0; c < ncells; c++ {
		cx := c % maxc
		cy := (c / maxc) % maxc
		cz := c / (maxc * maxc)
		atoms := b.cellAtoms[b.cellStart[c]:b.cellStart[c+1]]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					n2 := (mod(cz+dz, maxc)*maxc+mod(cy+dy, maxc))*maxc + mod(cx+dx, maxc)
					neigh := b.cellAtoms[b.cellStart[n2]:b.cellStart[n2+1]]
					for _, i := range atoms {
						for _, j := range neigh {
							if j <= i {
								continue
							}
							b.pairForce(int(i), int(j))
						}
					}
				}
			}
		}
	}
}

// TestNeighborListMatchesLegacyEnumeration checks that the Verlet pair
// list finds exactly the pair interactions the legacy full-27 cell
// enumeration finds (identical forces up to floating-point summation
// order).
func TestNeighborListMatchesLegacyEnumeration(t *testing.T) {
	a := getLJBox(512, 7)
	defer putLJBox(a)
	c := getLJBox(512, 7) // same seed: identical positions
	defer putLJBox(c)
	a.ensureNeighbors()
	c.buildCells()
	for i := 0; i < a.n; i++ {
		a.fx[i], a.fy[i], a.fz[i] = 0, 0, 0
		c.fx[i], c.fy[i], c.fz[i] = 0, 0, 0
	}
	a.forcesFromList()
	c.forcesLegacyWrap()
	for i := 0; i < a.n; i++ {
		for _, d := range [][2]float64{{a.fx[i], c.fx[i]}, {a.fy[i], c.fy[i]}, {a.fz[i], c.fz[i]}} {
			if diff := math.Abs(d[0] - d[1]); diff > 1e-9*math.Max(1, math.Abs(d[1])) {
				t.Fatalf("atom %d force diverges: list %g legacy %g", i, d[0], d[1])
			}
		}
	}
	// A drifted-atom step must invalidate and rebuild the list.
	a.x[0] = wrap(a.x[0]+ljSkin, a.l)
	if !a.drifted() {
		t.Fatal("moved atom not detected as drifted")
	}
}

// TestLJMinAtoms pins ljMinAtoms to the box geometry: it is the first atom
// count whose box has three cells per edge, and Run rejects anything
// smaller before touching the kernel.
func TestLJMinAtoms(t *testing.T) {
	for _, tc := range []struct{ atoms, cells int }{{ljMinAtoms - 1, 2}, {ljMinAtoms, 3}} {
		b := getLJBox(tc.atoms, 1)
		b.buildCells()
		if b.nc != tc.cells {
			t.Errorf("%d atoms: %d cells per edge, want %d", tc.atoms, b.nc, tc.cells)
		}
		putLJBox(b)
	}
	if _, err := (&Lammps{AtomsPerRank: ljMinAtoms - 1}).Run(nil, 1); err == nil {
		t.Errorf("Run accepted a %d-atom box", ljMinAtoms-1)
	}
}
