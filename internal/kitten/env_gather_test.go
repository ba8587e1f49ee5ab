package kitten

import (
	"errors"
	"fmt"
	"testing"

	"covirt/internal/hw"
)

// gatherPattern builds the charger-style address stream: pseudo-random
// offsets alternating between two extents every element.
func gatherPattern(n int, a, b hw.Extent) []uint64 {
	rng := hw.NewRand(0xD1B54A32D192ED03)
	addrs := make([]uint64, n)
	for i := range addrs {
		tgt := a
		if i%2 == 1 && b.Size > 0 {
			tgt = b
		}
		addrs[i] = tgt.Start + (rng.Next()%(tgt.Size/8))*8
	}
	return addrs
}

// TestEnvAccessGatherMatchesAccessLoop drives the same extent-hopping
// address streams through a per-element Compute+Access loop and through
// Env.AccessGather and requires identical simulated cycles and instruction
// counts.
func TestEnvAccessGatherMatchesAccessLoop(t *testing.T) {
	for _, computePer := range []uint64{0, 6} {
		body := func(batched bool) func(e *Env) error {
			return func(e *Env) error {
				a := e.Alloc(0, 8<<20)
				b := e.Alloc(0, 8<<20)
				addrs := gatherPattern(20_000, a, b)
				if batched {
					e.AccessGather(addrs, computePer, false, hw.AccessDRAM)
				} else {
					for _, addr := range addrs {
						if computePer != 0 {
							e.Compute(computePer)
						}
						e.Access(addr, false, hw.AccessDRAM)
					}
				}
				return nil
			}
		}
		tscA, insA, errA := runEnvTask(t, body(false))
		tscB, insB, errB := runEnvTask(t, body(true))
		if errA != nil || errB != nil {
			t.Fatalf("errs = %v, %v", errA, errB)
		}
		if tscA != tscB || insA != insB {
			t.Errorf("computePer=%d: batched gather diverged: TSC %d vs %d, Instret %d vs %d",
				computePer, tscA, tscB, insA, insB)
		}
	}
}

// TestEnvAccessGatherSegfaultsAtSameElement puts an unmapped address in the
// middle of the stream: the batched run must abort with the same segfault,
// having charged exactly the prefix — including the faulting element's
// compute — that the per-element loop charged.
func TestEnvAccessGatherSegfaultsAtSameElement(t *testing.T) {
	const computePer = 5
	mkAddrs := func(e *Env) []uint64 {
		a := e.Alloc(0, 4<<20)
		addrs := gatherPattern(1000, a, hw.Extent{})
		exts := e.K.MemMap().Extents()
		addrs[637] = exts[len(exts)-1].End() + 4096 // unmapped
		return addrs
	}
	tscA, insA, errA := runEnvTask(t, func(e *Env) error {
		for _, addr := range mkAddrs(e) {
			e.Compute(computePer)
			e.Access(addr, true, hw.AccessDRAM)
		}
		return nil
	})
	tscB, insB, errB := runEnvTask(t, func(e *Env) error {
		e.AccessGather(mkAddrs(e), computePer, true, hw.AccessDRAM)
		return nil
	})
	if !errors.Is(errA, ErrSegfault) || !errors.Is(errB, ErrSegfault) {
		t.Fatalf("errs = %v, %v; want segfaults", errA, errB)
	}
	if tscA != tscB || insA != insB {
		t.Errorf("fault prefix diverged: TSC %d vs %d, Instret %d vs %d", tscA, tscB, insA, insB)
	}
}

// TestEnvAccessGatherSteadyStateAllocFree pins the batched gather path at
// zero allocations per call once the TLB is warm — the property that lets
// the workload chargers route their inner loops through it without
// perturbing the simulation's wall-clock behaviour.
func TestEnvAccessGatherSteadyStateAllocFree(t *testing.T) {
	var allocs float64
	_, _, _, k := testStack(t, 1, []int{0}, 256<<20)
	task, serr := k.Spawn("allocfree", 0, func(e *Env) error {
		// Quiesce the timer so the measurement sees only the gather path
		// itself, not interrupt-delivery work.
		e.CPU.APIC.DisarmTimer()
		a := e.Alloc(0, 8<<20)
		b := e.Alloc(0, 8<<20)
		addrs := gatherPattern(4096, a, b)
		allocs = testing.AllocsPerRun(100, func() {
			e.AccessGather(addrs, 6, false, hw.AccessDRAM)
		})
		return nil
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("AccessGather allocates %v per call in steady state", allocs)
	}
}

// TestEnvAccessGatherAlternatingExtents drives the batched gather and the
// per-element loop over three memory-map extents: the enclave's node-0 and
// node-1 memory, alternating every element as the sparse chargers do, and a
// third extent that every 16th element hits instead, so the prepass's two
// ways keep evicting each other. The unmapped cases put a segfault at the
// first, second, middle and last element. Both paths must charge the same
// TSC and Instret, so fault at the same element.
func TestEnvAccessGatherAlternatingExtents(t *testing.T) {
	const n = 4000
	// run executes body as a task on a one-core enclave over nodes 0 and
	// 1, with a third node-0 extent added to the memory map (as a memory
	// hot-add adds one) and passed to body. It reports the TSC and Instret
	// that body charged, read on the task's goroutine. The spawn doorbell
	// lands before the task starts or at its first poll, as host timing
	// has it, so the task takes it before reading its baseline; and once
	// the task is done, the idle core goes on taking timer ticks.
	run := func(body func(e *Env, third hw.Extent)) (tsc, instret uint64, err error) {
		_, fw, _, k := testStack(t, 1, []int{0, 1}, 256<<20)
		third, aerr := fw.Ledger.AllocMemory(0, 16<<20)
		if aerr != nil {
			t.Fatal(aerr)
		}
		k.mm.Add(third)
		task, serr := k.Spawn("gather", 0, func(e *Env) error {
			e.Compute(0) // polls: takes the doorbell if it is still pending
			tsc0, instret0 := e.CPU.TSC, e.CPU.Instret
			defer func() { tsc, instret = e.CPU.TSC-tsc0, e.CPU.Instret-instret0 }()
			body(e, third)
			return nil
		})
		if serr != nil {
			t.Fatal(serr)
		}
		err = task.Wait()
		return tsc, instret, err
	}
	// Each case runs with either node's extent leading the alternation,
	// so the unmapped element finds node 1's extent in either way.
	for _, c := range []struct {
		computePer uint64
		lead       int
	}{{0, 0}, {0, 1}, {5, 0}, {5, 1}} {
		computePer := c.computePer
		for _, bad := range []int{-1, 0, 1, n / 2, n - 1} {
			mkAddrs := func(e *Env, third hw.Extent) []uint64 {
				local := [2]hw.Extent{e.Alloc(0, 4<<20), e.Alloc(1, 4<<20)}
				addrs := gatherPattern(n, local[c.lead], local[1-c.lead])
				for i := 5; i < n; i += 16 {
					addrs[i] = third.Start + uint64(i)*4096%third.Size
				}
				if bad >= 0 {
					// The first byte above the highest extent, node 1's:
					// a memo way that overreaches its extent's end by even
					// one byte takes it for mapped.
					var top uint64
					for _, x := range e.K.MemMap().Extents() {
						top = max(top, x.End())
					}
					addrs[bad] = top
				}
				return addrs
			}
			tscA, insA, errA := run(func(e *Env, third hw.Extent) {
				for _, addr := range mkAddrs(e, third) {
					if computePer != 0 {
						e.Compute(computePer)
					}
					e.Access(addr, false, hw.AccessDRAM)
				}
			})
			tscB, insB, errB := run(func(e *Env, third hw.Extent) {
				e.AccessGather(mkAddrs(e, third), computePer, false, hw.AccessDRAM)
			})
			what := fmt.Sprintf("computePer=%d, node %d first, unmapped at %d", computePer, c.lead, bad)
			if bad < 0 {
				if errA != nil || errB != nil {
					t.Fatalf("%s: errs = %v, %v", what, errA, errB)
				}
			} else if !errors.Is(errA, ErrSegfault) || !errors.Is(errB, ErrSegfault) || errA.Error() != errB.Error() {
				t.Errorf("%s: per-element err %v, batched err %v", what, errA, errB)
			}
			if tscA != tscB || insA != insB {
				t.Errorf("%s: batched gather diverged: TSC %d vs %d, Instret %d vs %d",
					what, tscA, tscB, insA, insB)
			}
		}
	}
}
