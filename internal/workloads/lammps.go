package workloads

import (
	"fmt"
	"math"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// LammpsProblem selects one of the stock LAMMPS benchmark inputs the paper
// runs (Fig. 8).
type LammpsProblem int

// The four problems from the default LAMMPS bench scripts.
const (
	LJ LammpsProblem = iota
	EAM
	Chain
	Chute
)

// String names the problem as the run scripts do.
func (p LammpsProblem) String() string {
	switch p {
	case LJ:
		return "lj"
	case EAM:
		return "eam"
	case Chain:
		return "chain"
	case Chute:
		return "chute"
	}
	return fmt.Sprintf("lammps(%d)", int(p))
}

// Lammps is a molecular-dynamics proxy reproducing the computational
// profile of the LAMMPS benchmarks: velocity-Verlet integration with
// cell-list neighbor finding and a real Lennard-Jones force loop; the
// problem variants adjust the force-field cost mix and synchronization
// frequency the way the real inputs differ:
//
//	lj    — baseline pairwise LJ liquid
//	eam   — adds the embedding pass: a second force sweep plus random
//	        spline-table lookups per pair
//	chain — bonded polymer: half the pair density, cheap bond terms
//	chute — granular flow: sparse contacts but frequent global reductions
//	        (pours, boundary bookkeeping), the synchronization-heavy case
type Lammps struct {
	Problem LammpsProblem
	// AtomsPerRank is the per-thread atom count (default 1728 = 12^3).
	AtomsPerRank int
	// Steps is the number of timesteps (default 40).
	Steps int
	// Seed displaces the initial condition and neighbor-churn streams
	// (0 = legacy fixed streams).
	Seed uint64
}

// SetSeed implements Seeder.
func (l *Lammps) SetSeed(s uint64) { l.Seed = s }

// Name implements Runner.
func (l *Lammps) Name() string { return "lammps-" + l.Problem.String() }

// lammpsProfile holds per-variant cost-model knobs.
type lammpsProfile struct {
	pairDensity     float64 // relative neighbor count vs lj
	flopsPerPair    uint64
	tableLookups    float64 // random DRAM lookups per pair (splines, contact history)
	lookupBytes     uint64  // size of the structure those lookups land in
	barriersPerStep int
	rebuildEvery    int // neighbor-list rebuild period in steps
	extraForcePass  bool
}

func (p LammpsProblem) profile() lammpsProfile {
	switch p {
	case EAM:
		// Embedded-atom method: a second force sweep plus spline-table
		// interpolation lookups. The tables are small (cache- and
		// TLB-resident), so EAM adds compute but little translation
		// pressure.
		return lammpsProfile{pairDensity: 1.0, flopsPerPair: 26, tableLookups: 0.05, lookupBytes: 1 << 20, barriersPerStep: 1, rebuildEvery: 10, extraForcePass: true}
	case Chain:
		// Bonded polymer: sparse pair interactions, cheap bond terms.
		return lammpsProfile{pairDensity: 0.5, flopsPerPair: 18, tableLookups: 0, barriersPerStep: 1, rebuildEvery: 10}
	case Chute:
		// Granular flow: few contacts but constantly churning neighbor
		// bins and per-contact history state — the random-access-heavy,
		// translation-sensitive case (the paper's "most sensitive to the
		// protections being enabled").
		return lammpsProfile{pairDensity: 0.3, flopsPerPair: 26, tableLookups: 0.45, lookupBytes: 256 << 20, barriersPerStep: 2, rebuildEvery: 1}
	default: // LJ
		return lammpsProfile{pairDensity: 1.0, flopsPerPair: 23, tableLookups: 0, barriersPerStep: 1, rebuildEvery: 10}
	}
}

// fillRandomAddrs generates uniformly random word addresses inside ext,
// one RNG draw per address.
//
//covirt:hot
func fillRandomAddrs(buf []uint64, rng *hw.Rand, ext hw.Extent) {
	words := ext.Size / 8
	for i := range buf {
		buf[i] = ext.Start + (rng.Next()%words)*8
	}
}

// Run implements Runner.
func (l *Lammps) Run(k *kitten.Kernel, threads int) (*Result, error) {
	atoms := l.AtomsPerRank
	if atoms == 0 {
		atoms = 1728
	}
	if atoms < ljMinAtoms {
		return nil, fmt.Errorf("lammps-%s: %d atoms per rank; the neighbor list needs at least %d", l.Problem, atoms, ljMinAtoms)
	}
	steps := l.Steps
	if steps == 0 {
		steps = 40
	}
	prof := l.Problem.profile()
	bar := NewBarrier(threads)
	red := NewAllreduce(threads)
	drift := make([]padFloat64, threads)

	ord := NewRankOrder(threads)
	res, err := runParallel(k, l.Name(), threads, func(e *kitten.Env, rank int) error {
		md := getLJBox(atoms, l.Seed^uint64(rank+1))
		defer putLJBox(md)
		var posExt, neighExt, lookupExt hw.Extent
		hasLookup := prof.lookupBytes > 0
		ord.Do(rank, func() {
			posExt = allocSpread(e, hw.AlignUp(uint64(atoms)*48, hw.PageSize4K))     // x,v per atom
			neighExt = allocSpread(e, hw.AlignUp(uint64(atoms)*40*8, hw.PageSize4K)) // neighbor lists
			if hasLookup {
				lookupExt = allocSpread(e, prof.lookupBytes)
			}
		})
		defer e.Free(posExt)
		defer e.Free(neighExt)
		if hasLookup {
			defer e.Free(lookupExt)
		} else {
			lookupExt = neighExt
		}
		rng := hw.NewRand(0xA5A5A5A5 ^ l.Seed ^ uint64(rank+7))

		md.buildCells()
		e0 := md.totalEnergy()
		avgNeigh := md.averageNeighbors() * prof.pairDensity
		// Per-step charge volumes are step-invariant: size the gather
		// scratch once, outside the measured loop.
		pairs := uint64(float64(atoms) * avgNeigh)
		lookups := uint64(float64(pairs) * prof.tableLookups)
		rebuilds := uint64(atoms / 4)
		scratchLen := rebuilds
		if lookups > scratchLen {
			scratchLen = lookups
		}
		scratch := make([]uint64, scratchLen)

		for step := 0; step < steps; step++ {
			// Neighbor rebuild: binning is random access.
			if step%prof.rebuildEvery == 0 {
				md.buildCells()
				buf := scratch[:rebuilds]
				fillRandomAddrs(buf, &rng, neighExt)
				e.AccessGather(buf, 0, true, hw.AccessDRAM)
				e.Compute(uint64(atoms) * 30)
			}
			// Force pass(es): stream neighbor lists + positions, real LJ math.
			passes := 1
			if prof.extraForcePass {
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				md.computeForces()
				e.Stream(neighExt.Start, pairs*8, false)
				e.Stream(posExt.Start, uint64(atoms)*24, false)
				e.Compute(pairs * prof.flopsPerPair)
				if lookups > 0 {
					buf := scratch[:lookups]
					fillRandomAddrs(buf, &rng, lookupExt)
					e.AccessGather(buf, 0, false, hw.AccessDRAM)
				}
			}
			// Integrate (velocity Verlet): stream positions/velocities.
			md.integrate()
			e.Stream(posExt.Start, uint64(atoms)*48, true)
			e.Compute(uint64(atoms) * 12)

			// Synchronization (halo exchange, global thermo/pour logic).
			for b := 0; b < prof.barriersPerStep; b++ {
				bar.Wait(e)
			}
			if step%5 == 0 {
				_ = red.Sum(e, rank, md.kineticEnergy())
			}
		}
		e1 := md.totalEnergy()
		drift[rank].v = math.Abs(e1-e0) / math.Max(math.Abs(e0), 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r := range drift {
		if d := drift[r].v; math.IsNaN(d) || d > 0.2 {
			return nil, fmt.Errorf("lammps-%s: rank %d energy drift %g (integration broken)", l.Problem, r, d)
		}
	}
	res.Metrics["loop_time_s"] = Seconds(res.Cycles)
	res.Metrics["atom_steps_per_s"] = float64(atoms*threads*steps) / Seconds(res.Cycles)
	res.Metrics["energy_drift"] = drift[0].v
	return res, nil
}

// ljBox is a small real Lennard-Jones MD system: FCC lattice at reduced
// density 0.8442, cutoff 2.5, velocity Verlet, cell-list neighbors. The
// cell index is a flat CSR-style table (cellStart row pointers into
// cellAtoms) rebuilt by counting sort — no per-cell slices, no map, no
// steady-state allocation.
type ljBox struct {
	n          int
	l          float64 // box edge
	rc2        float64
	dt         float64
	x, y, z    []float64
	vx, vy, vz []float64
	fx, fy, fz []float64
	cellW      float64
	nc         int     // cells per box edge (0 until the first buildCells)
	cellStart  []int32 // CSR row starts, len nc³+1
	cellAtoms  []int32 // atom ids grouped by cell, len n, ascending within a cell
	cellCur    []int32 // counting-sort cursor scratch, len nc³

	// Verlet neighbor list: flat (i, j) pairs within rc+ljSkin at the
	// last build, plus the per-atom positions snapshotted then. The list
	// stays exact while no atom has drifted more than ljSkin/2 — two
	// atoms approaching each other can close at most ljSkin between
	// rebuilds, so no pair can enter the cutoff unlisted.
	nlPairs       []int32
	nlx, nly, nlz []float64
	nlValid       bool
}

// ljSkin is the Verlet-list skin distance: pairs are listed out to
// rc+ljSkin so the list survives many integration steps before an atom
// drifts far enough to force a rebuild.
const ljSkin = 0.3

// ljMinAtoms is the smallest box the Verlet list supports. Its half-stencil
// enumeration needs at least 3 cells per box edge, so that every wrapped
// neighbour offset names a distinct cell. The edge is cbrt(n/0.8442) and a
// cell is 2.5+ljSkin wide, which first gives 3 cells at 149 atoms.
const ljMinAtoms = 149

// init (re)sets the box to the seeded lattice state: simple cubic
// placement with deterministic velocity jitter. Called by getLJBox on both
// fresh and pooled storage.
func (b *ljBox) init(seed uint64) {
	b.l = math.Cbrt(float64(b.n) / 0.8442)
	b.rc2 = 2.5 * 2.5
	b.dt = 0.005
	// Cells are sized to the list radius (cutoff + skin) so one-cell
	// adjacency covers every listable pair.
	b.cellW = 2.5 + ljSkin
	b.nc = 0
	b.nlValid = false
	side := int(math.Ceil(math.Cbrt(float64(b.n))))
	spacing := b.l / float64(side)
	rng := hw.NewRand(seed*2654435761 + 1)
	i := 0
	for ix := 0; ix < side && i < b.n; ix++ {
		for iy := 0; iy < side && i < b.n; iy++ {
			for iz := 0; iz < side && i < b.n; iz++ {
				b.x[i] = (float64(ix) + 0.5) * spacing
				b.y[i] = (float64(iy) + 0.5) * spacing
				b.z[i] = (float64(iz) + 0.5) * spacing
				b.vx[i] = (float64(rng.Next()%1000)/1000 - 0.5) * 0.1
				b.vy[i] = (float64(rng.Next()%1000)/1000 - 0.5) * 0.1
				b.vz[i] = (float64(rng.Next()%1000)/1000 - 0.5) * 0.1
				i++
			}
		}
	}
}

// cellIndex returns atom i's flat cell number.
func (b *ljBox) cellIndex(i int) int {
	cx := int(b.x[i] / b.cellW)
	cy := int(b.y[i] / b.cellW)
	cz := int(b.z[i] / b.cellW)
	return (cz*b.nc+cy)*b.nc + cx
}

// buildCells rebins atoms into cutoff-sized cells with a counting sort.
// Atom ids stay ascending within each cell, so pair enumeration order is
// deterministic (the old map-backed index iterated cells in random order).
//
//covirt:hot
func (b *ljBox) buildCells() {
	b.nc = int(b.l/b.cellW) + 1
	ncells := b.nc * b.nc * b.nc
	if cap(b.cellStart) < ncells+1 {
		b.cellStart = make([]int32, ncells+1)
		b.cellCur = make([]int32, ncells)
		b.cellAtoms = make([]int32, b.n)
	}
	start := b.cellStart[:ncells+1]
	cur := b.cellCur[:ncells]
	for c := range start {
		start[c] = 0
	}
	for i := 0; i < b.n; i++ {
		start[b.cellIndex(i)+1]++
	}
	for c := 0; c < ncells; c++ {
		start[c+1] += start[c]
		cur[c] = start[c]
	}
	for i := 0; i < b.n; i++ {
		c := b.cellIndex(i)
		b.cellAtoms[cur[c]] = int32(i)
		cur[c]++
	}
	b.cellStart = start
	b.cellCur = cur
}

// minImage applies the minimum-image convention.
func (b *ljBox) minImage(d float64) float64 {
	if d > b.l/2 {
		return d - b.l
	}
	if d < -b.l/2 {
		return d + b.l
	}
	return d
}

// forwardCellOffsets is the half stencil: of each {δ, -δ} pair of the 26
// nonzero cell offsets, exactly one appears here, so enumerating a cell
// against its 13 forward neighbours (plus itself) visits every unordered
// cell pair once.
var forwardCellOffsets = [13][3]int{
	{1, 0, 0}, {-1, 1, 0}, {0, 1, 0}, {1, 1, 0},
	{-1, -1, 1}, {0, -1, 1}, {1, -1, 1}, {-1, 0, 1},
	{0, 0, 1}, {1, 0, 1}, {-1, 1, 1}, {0, 1, 1}, {1, 1, 1},
}

// computeForces evaluates LJ forces via the Verlet pair list, rebuilding
// it only when an atom has drifted past half the skin.
//
//covirt:hot
func (b *ljBox) computeForces() {
	for i := 0; i < b.n; i++ {
		b.fx[i], b.fy[i], b.fz[i] = 0, 0, 0
	}
	b.ensureNeighbors()
	b.forcesFromList()
}

// ensureNeighbors leaves a current Verlet pair list, rebuilding it when
// stale.
func (b *ljBox) ensureNeighbors() {
	if !b.nlValid || b.drifted() {
		b.buildNeighbors()
	}
}

// drifted reports whether any atom has moved more than ljSkin/2 since the
// last list build — the exactness bound for reusing the list.
func (b *ljBox) drifted() bool {
	lim := ljSkin * ljSkin / 4
	for i := 0; i < b.n; i++ {
		dx := b.minImage(b.x[i] - b.nlx[i])
		dy := b.minImage(b.y[i] - b.nly[i])
		dz := b.minImage(b.z[i] - b.nlz[i])
		if dx*dx+dy*dy+dz*dz > lim {
			return true
		}
	}
	return false
}

// buildNeighbors rebins the atoms and regenerates the pair list: each
// unordered pair within rc+ljSkin appears exactly once, enumerated
// within-cell by index order then against the 13 forward neighbour cells
// (valid when nc >= 3, where every wrapped offset maps to a distinct
// cell). The pair order is deterministic, so replaying the list gives
// reproducible force summation. Growth is amortized: the slice keeps its
// capacity across rebuilds and across pooled box reuse.
func (b *ljBox) buildNeighbors() {
	b.buildCells()
	rl := 2.5 + ljSkin
	rl2 := rl * rl
	if len(b.nlx) != b.n {
		b.nlx = make([]float64, b.n)
		b.nly = make([]float64, b.n)
		b.nlz = make([]float64, b.n)
	}
	copy(b.nlx, b.x)
	copy(b.nly, b.y)
	copy(b.nlz, b.z)
	pairs := b.nlPairs[:0]
	nc := b.nc
	for cz := 0; cz < nc; cz++ {
		for cy := 0; cy < nc; cy++ {
			for cx := 0; cx < nc; cx++ {
				c := (cz*nc+cy)*nc + cx
				cell := b.cellAtoms[b.cellStart[c]:b.cellStart[c+1]]
				for ai := 0; ai < len(cell); ai++ {
					for aj := ai + 1; aj < len(cell); aj++ {
						pairs = b.appendIfClose(pairs, cell[ai], cell[aj], rl2)
					}
				}
				for _, d := range &forwardCellOffsets {
					nx, ny, nz := cx+d[0], cy+d[1], cz+d[2]
					if nx < 0 {
						nx += nc
					} else if nx >= nc {
						nx -= nc
					}
					if ny < 0 {
						ny += nc
					} else if ny >= nc {
						ny -= nc
					}
					if nz < 0 {
						nz += nc
					} else if nz >= nc {
						nz -= nc
					}
					neigh := b.cellAtoms[b.cellStart[(nz*nc+ny)*nc+nx]:b.cellStart[(nz*nc+ny)*nc+nx+1]]
					for _, i := range cell {
						for _, j := range neigh {
							pairs = b.appendIfClose(pairs, i, j, rl2)
						}
					}
				}
			}
		}
	}
	b.nlPairs = pairs
	b.nlValid = true
}

// appendIfClose appends the pair when it lies within the list radius.
func (b *ljBox) appendIfClose(pairs []int32, i, j int32, rl2 float64) []int32 {
	ddx := b.minImage(b.x[i] - b.x[j])
	ddy := b.minImage(b.y[i] - b.y[j])
	ddz := b.minImage(b.z[i] - b.z[j])
	if ddx*ddx+ddy*ddy+ddz*ddz <= rl2 {
		pairs = append(pairs, i, j)
	}
	return pairs
}

// forcesFromList replays the Verlet pair list; pairs beyond the cutoff
// (listed because of the skin) are rejected inside pairForce.
//
//covirt:hot
func (b *ljBox) forcesFromList() {
	p := b.nlPairs
	for k := 0; k < len(p); k += 2 {
		b.pairForce(int(p[k]), int(p[k+1]))
	}
}

// pairForce accumulates the LJ force between atoms i and j (antisymmetric,
// so caller-side orientation is irrelevant).
func (b *ljBox) pairForce(i, j int) {
	ddx := b.minImage(b.x[i] - b.x[j])
	ddy := b.minImage(b.y[i] - b.y[j])
	ddz := b.minImage(b.z[i] - b.z[j])
	r2 := ddx*ddx + ddy*ddy + ddz*ddz
	if r2 > b.rc2 || r2 == 0 {
		return
	}
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * inv2 * inv6 * (2*inv6 - 1)
	b.fx[i] += f * ddx
	b.fy[i] += f * ddy
	b.fz[i] += f * ddz
	b.fx[j] -= f * ddx
	b.fy[j] -= f * ddy
	b.fz[j] -= f * ddz
}

// pairPE returns the LJ pair potential between atoms i and j (0 beyond
// the cutoff).
func (b *ljBox) pairPE(i, j int) float64 {
	ddx := b.minImage(b.x[i] - b.x[j])
	ddy := b.minImage(b.y[i] - b.y[j])
	ddz := b.minImage(b.z[i] - b.z[j])
	r2 := ddx*ddx + ddy*ddy + ddz*ddz
	if r2 > b.rc2 || r2 == 0 {
		return 0
	}
	inv6 := 1 / (r2 * r2 * r2)
	return 4 * inv6 * (inv6 - 1)
}

// integrate advances one (leapfrog-ish) step with periodic wrapping.
//
//covirt:hot
func (b *ljBox) integrate() {
	for i := 0; i < b.n; i++ {
		b.vx[i] += b.fx[i] * b.dt
		b.vy[i] += b.fy[i] * b.dt
		b.vz[i] += b.fz[i] * b.dt
		b.x[i] = wrap(b.x[i]+b.vx[i]*b.dt, b.l)
		b.y[i] = wrap(b.y[i]+b.vy[i]*b.dt, b.l)
		b.z[i] = wrap(b.z[i]+b.vz[i]*b.dt, b.l)
	}
}

func wrap(v, l float64) float64 {
	for v < 0 {
		v += l
	}
	for v >= l {
		v -= l
	}
	return v
}

// kineticEnergy returns the system kinetic energy.
func (b *ljBox) kineticEnergy() float64 {
	ke := 0.0
	for i := 0; i < b.n; i++ {
		ke += 0.5 * (b.vx[i]*b.vx[i] + b.vy[i]*b.vy[i] + b.vz[i]*b.vz[i])
	}
	return ke
}

// potentialEnergy sums the LJ pair potential over the same pair set the
// force loop sees, so the conserved quantity matches the simulated
// dynamics. The Verlet list is refreshed through the same drift criterion
// as the force pass.
//
//covirt:hot
func (b *ljBox) potentialEnergy() float64 {
	b.ensureNeighbors()
	pe := 0.0
	p := b.nlPairs
	for k := 0; k < len(p); k += 2 {
		pe += b.pairPE(int(p[k]), int(p[k+1]))
	}
	return pe
}

// totalEnergy returns KE + PE.
func (b *ljBox) totalEnergy() float64 { return b.kineticEnergy() + b.potentialEnergy() }

// averageNeighbors estimates the neighbor count within the cutoff.
func (b *ljBox) averageNeighbors() float64 {
	// Density * cutoff-sphere volume.
	rho := float64(b.n) / (b.l * b.l * b.l)
	return rho * 4.0 / 3.0 * math.Pi * 2.5 * 2.5 * 2.5
}
