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
// Env.AccessGather and requires identical simulated cycles, instruction
// counts and TLBs. Each stream runs twice, so the second pass starts on
// TLB-resident pages: 8 MiB extents, more pages than a resident run's set
// holds, and 512 KiB ones, MiniFE's vector size, which it can hold.
// Between the passes one access to a page of a third extent makes that
// page the most recently used, so the second pass must refresh its own.
func TestEnvAccessGatherMatchesAccessLoop(t *testing.T) {
	for _, size := range []uint64{8 << 20, 512 << 10} {
		for _, computePer := range []uint64{0, 6} {
			body := func(batched bool) func(e *Env) error {
				return func(e *Env) error {
					a := e.Alloc(0, size)
					b := e.Alloc(0, size)
					c := e.Alloc(0, 4<<20)
					addrs := gatherPattern(20_000, a, b)
					for pass := range 2 {
						if pass == 1 {
							e.Access(c.End()-8, false, hw.AccessDRAM)
						}
						if batched {
							e.AccessGather(addrs, computePer, false, hw.AccessDRAM)
							continue
						}
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
			perElement, errA := runEnvTask(t, body(false))
			batched, errB := runEnvTask(t, body(true))
			if errA != nil || errB != nil {
				t.Fatalf("errs = %v, %v", errA, errB)
			}
			assertSameCore(t, fmt.Sprintf("%d KiB extents, computePer=%d", size>>10, computePer), batched, perElement)
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
	perElement, errA := runEnvTask(t, func(e *Env) error {
		for _, addr := range mkAddrs(e) {
			e.Compute(computePer)
			e.Access(addr, true, hw.AccessDRAM)
		}
		return nil
	})
	batched, errB := runEnvTask(t, func(e *Env) error {
		e.AccessGather(mkAddrs(e), computePer, true, hw.AccessDRAM)
		return nil
	})
	if !errors.Is(errA, ErrSegfault) || !errors.Is(errB, ErrSegfault) {
		t.Fatalf("errs = %v, %v; want segfaults", errA, errB)
	}
	assertSameCore(t, "fault prefix", batched, perElement)
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
// TSC and Instret, leave the same TLB, and fault at the same element.
func TestEnvAccessGatherAlternatingExtents(t *testing.T) {
	const n = 4000
	// run executes body as a task on a one-core enclave over nodes 0 and
	// 1, with a third node-0 extent added to the memory map (as a memory
	// hot-add adds one) and passed to body. It reports the TSC and Instret
	// that body charged, read on the task's goroutine. The spawn doorbell
	// lands before the task starts or at its first poll, as host timing
	// has it, so the task takes it before reading its baseline; and once
	// the task is done, the idle core goes on taking timer ticks. It also
	// copies the core's TLB when body ends.
	run := func(body func(e *Env, third hw.Extent)) (st coreState, err error) {
		_, fw, _, k := testStack(t, 1, []int{0, 1}, 256<<20)
		third, aerr := fw.Ledger.AllocMemory(0, 16<<20)
		if aerr != nil {
			t.Fatal(aerr)
		}
		k.mm.Add(third)
		task, serr := k.Spawn("gather", 0, func(e *Env) error {
			e.Compute(0) // polls: takes the doorbell if it is still pending
			tsc0, instret0 := e.CPU.TSC, e.CPU.Instret
			defer func() {
				st = snapshotCore(e.CPU)
				st.tsc -= tsc0
				st.instret -= instret0
			}()
			body(e, third)
			return nil
		})
		if serr != nil {
			t.Fatal(serr)
		}
		err = task.Wait()
		return st, err
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
			perElement, errA := run(func(e *Env, third hw.Extent) {
				for _, addr := range mkAddrs(e, third) {
					if computePer != 0 {
						e.Compute(computePer)
					}
					e.Access(addr, false, hw.AccessDRAM)
				}
			})
			batched, errB := run(func(e *Env, third hw.Extent) {
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
			assertSameCore(t, what, batched, perElement)
		}
	}
}
