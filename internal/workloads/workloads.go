// Package workloads implements simulation ports of the paper's benchmark
// suite (Table I): Selfish Detour, STREAM, RandomAccess (GUPS), HPCG,
// MiniFE, and a LAMMPS proxy with the lj/eam/chain/chute problems.
//
// Each workload runs as guest tasks inside a Kitten enclave. Numerical work
// is performed for real on Go-side arrays (solvers converge, energies are
// conserved), while the memory/compute/IPI footprint is charged to the
// simulated CPUs through the kitten.Env operations — so the protection
// configuration underneath the enclave (native, Covirt feature sets)
// shapes the measured cycle counts exactly as the hardware mechanisms
// would.
package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// CyclesPerSecond converts simulated cycles to seconds (the evaluation
// platform's 1.70 GHz Xeon E5-2603 v4).
const CyclesPerSecond = 1.7e9

// Seconds converts cycles to seconds at the platform frequency.
func Seconds(cycles uint64) float64 { return float64(cycles) / CyclesPerSecond }

// VectorOMPSched is the IPI vector the modelled OpenMP runtime uses for
// work-distribution signalling (periodic scheduling checks).
const VectorOMPSched uint8 = 0x62

// Result is one workload execution's outcome.
type Result struct {
	Name    string
	Threads int
	// Cycles is the wall time in simulated cycles: the maximum per-core
	// delta across the parallel region.
	Cycles uint64
	// PerCore holds each rank's cycle count.
	PerCore []uint64
	// Metrics carries workload-specific figures of merit (GB/s, GUPS,
	// residuals, detour counts, ...).
	Metrics map[string]float64
}

// Metric fetches a named metric (0 when absent).
func (r *Result) Metric(name string) float64 {
	if r == nil || r.Metrics == nil {
		return 0
	}
	return r.Metrics[name]
}

// Runner executes a named workload on a booted Kitten kernel.
type Runner interface {
	Name() string
	Run(k *kitten.Kernel, threads int) (*Result, error)
}

// Seeder is implemented by workloads whose internal pseudo-random streams
// can be displaced per run. The experiment engine derives one deterministic
// seed per job (a hash of experiment/config/layout/repetition passed
// through the hw.Rand seam) so repetitions decorrelate without consulting
// any ambient randomness. A zero seed leaves the workload's legacy fixed
// streams untouched.
type Seeder interface{ SetSeed(uint64) }

// Barrier is an OpenMP-style spin barrier for guest tasks. Rendezvous is
// Go-level; the charged footprint matches a shared-memory spin barrier
// (atomic arrival update plus sense-reversal spinning) — like real OpenMP
// barriers, it involves no interrupts on the common path, which is why the
// paper's multi-core results show IPI protection adding no cost to the
// mini-apps.
type Barrier struct {
	n     int64
	count atomic.Int64
	gen   atomic.Uint64
	wait  *hw.Handoff
}

// barrierSpinCost is the charged cost of one barrier arrival: an atomic
// RMW on the shared counter plus a short spin on the release flag.
const barrierSpinCost = 260

// NewBarrier returns a barrier for n ranks.
func NewBarrier(n int) *Barrier {
	return &Barrier{n: int64(n), wait: hw.NewHandoff(nil, nil)}
}

// Wait blocks the calling rank until all n ranks arrive. A parked rank
// whose core is killed, or whose node crashes, fails as any kill fault
// fails it. The last arrival resets the count before it opens the next
// generation, so no rank can arrive at the next barrier early.
func (b *Barrier) Wait(e *kitten.Env) {
	if b.n > 1 {
		e.Compute(barrierSpinCost)
	}
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		b.wait.Broadcast()
		return
	}
	e.Await(b.wait, func() bool { return b.gen.Load() != gen })
}

// RankOrder serializes ledger-mutating sections (Alloc/Free) in rank
// order. The Pisces ledger hands out extents first-fit from an
// address-sorted free list, so the layout each rank receives — and with
// it NUMA placement and page-walk behaviour — depends on the order
// concurrent ranks reach the allocator. Left to goroutine scheduling,
// that order shifts under external CPU load or -race instrumentation
// (the multi-rank jitter caveat formerly in EXPERIMENTS.md). Rendezvous
// here is pure Go synchronization: ledger operations charge no simulated
// cycles, so imposing rank order costs nothing on the simulated clock
// while making address-space layouts reproducible.
//
// Do is a collective: every rank must call it once per round, in any
// arrival order; sections run strictly rank 0..n-1 within a round, and
// rounds do not overlap.
type RankOrder struct {
	n    uint64
	turn atomic.Uint64 // monotonically increasing; rank = turn mod n
	wait *hw.Handoff
}

// NewRankOrder returns an ordering collective for n ranks.
func NewRankOrder(n int) *RankOrder {
	return &RankOrder{n: uint64(n), wait: hw.NewHandoff(nil, nil)}
}

// Do runs fn when it becomes rank's turn in the current round. A rank
// waiting for its turn fails as Barrier.Wait does. The turn passes on even
// when fn fails the task, so the ranks after it are not left waiting.
func (r *RankOrder) Do(e *kitten.Env, rank int, fn func()) {
	if r == nil || r.n <= 1 {
		fn()
		return
	}
	e.Await(r.wait, func() bool { return r.turn.Load()%r.n == uint64(rank) })
	defer r.wait.Broadcast()
	defer r.turn.Add(1)
	fn()
}

// Allreduce sums per-rank values across all ranks (two barriers plus the
// combine work on rank 0, as a tree reduction would cost). The per-rank
// contribution slots are cache-line padded: every rank stores its value
// concurrently mid-iteration, and false sharing here serializes the whole
// fleet under -parallel.
type Allreduce struct {
	b    *Barrier
	vals []padFloat64
	out  float64
}

// NewAllreduce returns an all-reduce context for n ranks.
func NewAllreduce(n int) *Allreduce {
	return &Allreduce{b: NewBarrier(n), vals: make([]padFloat64, n)}
}

// Sum contributes v for rank and returns the global sum.
func (a *Allreduce) Sum(e *kitten.Env, rank int, v float64) float64 {
	a.vals[rank].v = v
	a.b.Wait(e)
	if rank == 0 {
		s := 0.0
		for i := range a.vals {
			s += a.vals[i].v
		}
		a.out = s
		e.Compute(uint64(16 * len(a.vals)))
	}
	a.b.Wait(e)
	return a.out
}

// runParallel executes fn on `threads` cores of k, measuring per-core cycle
// deltas, and assembles a Result.
func runParallel(k *kitten.Kernel, name string, threads int, fn func(e *kitten.Env, rank int) error) (*Result, error) {
	if threads <= 0 || threads > k.NumCores() {
		return nil, fmt.Errorf("workloads: %s wants %d threads, enclave has %d cores", name, threads, k.NumCores())
	}
	res := &Result{
		Name:    name,
		Threads: threads,
		PerCore: make([]uint64, threads),
		Metrics: make(map[string]float64),
	}
	// Ignore OpenMP scheduling IPIs beyond their (charged) delivery cost.
	k.OnIPI(VectorOMPSched, func(*kitten.Env) {})
	var mu sync.Mutex
	err := k.RunParallel(name, threads, func(e *kitten.Env, rank int) error {
		// Drain pending events (the spawn doorbell IPI, stray wakeups) so
		// their delivery cost lands outside the measured window; runs are
		// then cycle-deterministic for a given machine history.
		e.Compute(0)
		start := e.CPU.TSC
		if err := fn(e, rank); err != nil {
			return err
		}
		delta := e.CPU.TSC - start
		mu.Lock()
		defer mu.Unlock()
		res.PerCore[rank] = delta
		if delta > res.Cycles {
			res.Cycles = delta
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// allocSpread allocates `size` bytes of simulated address space for rank,
// placed on the NUMA node owning the rank's core, so data locality follows
// the paper's "memory divided evenly between NUMA zones" setup.
func allocSpread(e *kitten.Env, size uint64) hw.Extent {
	return e.Alloc(e.CPU.Node, size)
}
