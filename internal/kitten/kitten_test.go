package kitten

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"covirt/internal/hw"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
)

// testStack boots a host + Pisces (no Covirt) stack with one Kitten
// enclave for kernel-level tests.
func testStack(t *testing.T, cores int, nodes []int, mem uint64) (*linuxhost.Host, *pisces.Framework, *pisces.Enclave, *Kernel) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	host, err := linuxhost.New(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Topo.Nodes {
		if err := host.OfflineCores(n.Cores[1:]...); err != nil {
			t.Fatal(err)
		}
		if err := host.OfflineMemory(n.ID, 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	fw := host.Pisces
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "t", NumCores: cores, Nodes: nodes, MemBytes: mem})
	if err != nil {
		t.Fatal(err)
	}
	k := New()
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fw.Destroy(enc) })
	return host, fw, enc, k
}

// cached reports whether local core's TLB holds a translation for addr.
// A TLB belongs to its core's goroutine, so the probe runs in a task on
// that core, and the answer is read once the task has ended.
func cached(t *testing.T, k *Kernel, core int, addr uint64) bool {
	t.Helper()
	var hit bool
	task, err := k.Spawn("tlb-probe", core, func(e *Env) error {
		hit = e.CPU.TLB.Lookup(addr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	return hit
}

func TestMemMapBasics(t *testing.T) {
	mm := NewMemMap()
	mm.Add(hw.Extent{Start: 0x1000, Size: 0x2000, Node: 0})
	mm.Add(hw.Extent{Start: 0x10000, Size: 0x1000, Node: 1})
	if !mm.Contains(0x1000, 1) || !mm.Contains(0x2FFF, 1) {
		t.Error("mapped range missing")
	}
	if mm.Contains(0x3000, 1) {
		t.Error("unmapped address present")
	}
	if mm.Contains(0x2800, 0x1000) {
		t.Error("range crossing extent end accepted")
	}
	if mm.Bytes() != 0x3000 {
		t.Errorf("bytes = %#x", mm.Bytes())
	}
	if !mm.Remove(hw.Extent{Start: 0x1000, Size: 0x2000}) {
		t.Error("remove failed")
	}
	if mm.Remove(hw.Extent{Start: 0x1000, Size: 0x2000}) {
		t.Error("double remove succeeded")
	}
	if mm.Contains(0x1000, 1) {
		t.Error("removed range still present")
	}
	if got := len(mm.Extents()); got != 1 {
		t.Errorf("extents = %d", got)
	}
}

// Property: after any add/remove sequence, Contains agrees with a naive
// reference model.
func TestMemMapProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		mm := NewMemMap()
		ref := map[uint64]bool{} // page -> mapped
		for _, op := range ops {
			slot := uint64(op % 16)
			ext := hw.Extent{Start: slot * 0x10000, Size: 0x10000}
			if op%2 == 0 && !ref[slot] {
				mm.Add(ext)
				ref[slot] = true
			} else if ref[slot] {
				mm.Remove(ext)
				ref[slot] = false
			}
		}
		for slot, want := range ref {
			if mm.Contains(slot*0x10000+0x8000, 8) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestKernelBootState(t *testing.T) {
	_, _, enc, k := testStack(t, 2, []int{0}, 256<<20)
	if k.NumCores() != 2 {
		t.Fatalf("cores = %d", k.NumCores())
	}
	if got := k.MemMap().Bytes(); got != 256<<20 {
		t.Errorf("memmap = %d", got)
	}
	if nodes := k.Nodes(); len(nodes) != 1 || nodes[0] != 0 {
		t.Errorf("nodes = %v", nodes)
	}
	// Boot twice is rejected.
	if err := k.Boot(&pisces.BootContext{}); err == nil {
		t.Error("double boot accepted")
	}
	// Stream sharers set from the partition.
	if k.CPU(0).StreamSharers != 2 {
		t.Errorf("sharers = %d", k.CPU(0).StreamSharers)
	}
	_ = enc
}

func TestSpawnValidation(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	if _, err := k.Spawn("x", 5, func(*Env) error { return nil }); err == nil {
		t.Error("spawn on absent core accepted")
	}
	if _, err := k.Spawn("x", -1, func(*Env) error { return nil }); err == nil {
		t.Error("spawn on negative core accepted")
	}
	if err := k.RunParallel("x", 9, func(*Env, int) error { return nil }); err == nil {
		t.Error("RunParallel beyond cores accepted")
	}
	unbooted := New()
	if _, err := unbooted.Spawn("x", 0, func(*Env) error { return nil }); err == nil {
		t.Error("spawn before boot accepted")
	}
}

func TestTasksRunToCompletionInOrder(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	var order []int
	var tasks []*Task
	for i := 0; i < 5; i++ {
		i := i
		task, err := k.Spawn(fmt.Sprintf("t%d", i), 0, func(e *Env) error {
			e.Compute(100)
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	for _, task := range tasks {
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v; run-to-completion violated", order)
		}
	}
}

// TestSpawnDoorbellChargedBeforeTaskBody pins the spawn doorbell's order:
// a task body never starts until the spawner's reschedule doorbell has
// been raised (Spawn raises it under the run-queue lock), so a leading
// drain poll (Compute(0)) consumes the doorbell's interrupt cost — or the
// idle loop already did — and the cycles charged after the drain are
// identical on every spawn. When the doorbell followed the queueing, the
// core loop could dequeue a task ahead of it, and the doorbell then
// landed at a host-scheduler-dependent point inside the measured region
// (the multi-rank cycle jitter flake).
func TestSpawnDoorbellChargedBeforeTaskBody(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	const repeats = 64
	deltas := make([]uint64, repeats)
	for i := 0; i < repeats; i++ {
		i := i
		task, err := k.Spawn("window", 0, func(e *Env) error {
			e.Compute(0) // drain: the doorbell is pending or already serviced
			start := e.CPU.TSC
			e.Compute(10_000)
			deltas[i] = e.CPU.TSC - start
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < repeats; i++ {
		if deltas[i] != deltas[0] {
			t.Fatalf("measured window drifted at spawn %d: %d cycles vs %d — an interrupt landed inside the drained region", i, deltas[i], deltas[0])
		}
	}
}

// TestSpawnFromTask guards the spawn doorbell against a lock-order
// regression: a task spawning onto its own core must not deadlock. Spawn
// raises the doorbell under the run-queue lock, which the core loop holds
// only to dequeue, never while a task runs.
func TestSpawnFromTask(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	var inner *Task
	outer, err := k.Spawn("outer", 0, func(e *Env) error {
		t2, err := k.Spawn("inner", 0, func(e *Env) error {
			e.Compute(10)
			return nil
		})
		inner = t2
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := inner.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownExitsEveryCoreLoop: Shutdown alone, with no framework kill,
// ends every core loop, a core onlined after boot included, so Quiesce
// returns and no core takes another task. The idle cores wait on nothing
// but their stop, so only Shutdown's wake ends their wait.
func TestShutdownExitsEveryCoreLoop(t *testing.T) {
	_, fw, enc, k := testStack(t, 2, []int{0}, 128<<20)
	if _, err := fw.AddCPU(enc, 0); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	quiesced := make(chan struct{})
	go func() {
		k.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-time.After(30 * time.Second):
		t.Fatal("Quiesce still blocked 30 s after Shutdown")
	}
	for core := 0; core < k.NumCores(); core++ {
		if _, err := k.Spawn("late", core, func(*Env) error { return nil }); !errors.Is(err, errKernelDown) {
			t.Errorf("spawn on core %d after Shutdown = %v, want %v", core, err, errKernelDown)
		}
	}
	// No core serves the control ring now, so tear the enclave down
	// without waiting for a shutdown command's ack.
	fw.ReportCrash(enc, "test: kernel shut down")
}

func TestEnvAllocFree(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	task, _ := k.Spawn("alloc", 0, func(e *Env) error {
		a := e.Alloc(0, 8<<20)
		b := e.Alloc(0, 8<<20)
		if a.Overlaps(b) {
			return errors.New("overlapping allocations")
		}
		if !k.MemMap().Contains(a.Start, a.Size) {
			return errors.New("allocation outside memory map")
		}
		e.Free(a)
		e.Free(b)
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvSegfaultOnRangeCrossing(t *testing.T) {
	_, _, enc, k := testStack(t, 1, []int{0}, 128<<20)
	end := enc.Mem()[0].End()
	task, _ := k.Spawn("cross", 0, func(e *Env) error {
		e.Stream(end-4096, 8192, false) // runs off the end of the enclave
		return nil
	})
	if err := task.Wait(); !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want segfault", err)
	}
}

func TestTimerTickless(t *testing.T) {
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	ledger := pisces.NewLedger()
	_ = ledger.DonateMemory(hw.Extent{Start: hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize2M), Size: 512 << 20, Node: 0})
	ledger.DonateCore(1)
	fw := pisces.NewFramework(m, ledger)
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "tickless", NumCores: 1, Nodes: []int{0}, MemBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m.Costs.TimerIntervalCycles = 0 // tickless: no timer is armed
	k := New()
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	defer fw.Destroy(enc)
	task, _ := k.Spawn("spin", 0, func(e *Env) error {
		for i := 0; i < 100; i++ {
			e.Compute(10_000_000) // a billion cycles total
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if k.Ticks.Load() != 0 {
		t.Errorf("ticks = %d in tickless mode", k.Ticks.Load())
	}
}

func TestCustomTimerInterval(t *testing.T) {
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	ledger := pisces.NewLedger()
	_ = ledger.DonateMemory(hw.Extent{Start: hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize2M), Size: 512 << 20, Node: 0})
	ledger.DonateCore(1)
	fw := pisces.NewFramework(m, ledger)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "hz", NumCores: 1, Nodes: []int{0}, MemBytes: 128 << 20})
	m.Costs.TimerIntervalCycles = 1_000_000 // 1700 Hz
	k := New()
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	defer fw.Destroy(enc)
	task, _ := k.Spawn("spin", 0, func(e *Env) error {
		for i := 0; i < 1000; i++ {
			e.Compute(10_000) // 10M cycles in poll-visible steps
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if ticks := k.Ticks.Load(); ticks < 8 || ticks > 12 {
		t.Errorf("ticks = %d, want ~10", ticks)
	}
}

func TestSyscallConcurrentCallers(t *testing.T) {
	_, _, _, k := testStack(t, 4, []int{0, 1}, 512<<20)
	// All cores hammer the longcall channel; the per-kernel serialization
	// plus seq matching must keep responses straight.
	var calls atomic.Int64
	err := k.RunParallel("syscalls", 4, func(e *Env, rank int) error {
		for i := 0; i < 25; i++ {
			pid, _, err := e.Syscall(pisces.SysGetPID)
			if err != nil {
				return err
			}
			if pid == 0 {
				return errors.New("zero pid")
			}
			calls.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 {
		t.Errorf("calls = %d", calls.Load())
	}
}

func TestSyscallNosys(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	task, _ := k.Spawn("nosys", 0, func(e *Env) error {
		_, _, err := e.Syscall(9999)
		if err == nil {
			return errors.New("unknown syscall succeeded")
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallAdvancesClockByHostWork(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	task, _ := k.Spawn("sleep", 0, func(e *Env) error {
		t0 := e.CPU.TSC
		if _, _, err := e.Syscall(pisces.SysNanosleep, 5_000_000); err != nil {
			return err
		}
		if d := e.CPU.TSC - t0; d < 5_000_000 {
			return fmt.Errorf("sleep advanced only %d cycles", d)
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestShootdownReachesOtherCores(t *testing.T) {
	_, fw, enc, k := testStack(t, 2, []int{0}, 256<<20)
	ext, err := fw.AddMemory(enc, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Warm core 1's TLB on the new extent.
	warm, _ := k.Spawn("warm", 1, func(e *Env) error {
		e.Access(ext.Start+4096, false, hw.AccessHot)
		return nil
	})
	if err := warm.Wait(); err != nil {
		t.Fatal(err)
	}
	if !cached(t, k, 1, ext.Start+4096) {
		t.Fatal("TLB not warmed")
	}
	if err := fw.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	// Let core 1 process the shootdown IPI.
	drain, _ := k.Spawn("drain", 1, func(e *Env) error { e.Compute(10); return nil })
	if err := drain.Wait(); err != nil {
		t.Fatal(err)
	}
	// The stale translation must be gone.
	if cached(t, k, 1, ext.Start+4096) {
		t.Error("stale TLB entry survived shootdown")
	}
}

func TestGuestPanicBecomesTaskError(t *testing.T) {
	_, _, _, k := testStack(t, 1, []int{0}, 128<<20)
	task, _ := k.Spawn("oom", 0, func(e *Env) error {
		e.Alloc(0, 1<<40) // absurd allocation -> guest fail
		return nil
	})
	if err := task.Wait(); err == nil {
		t.Fatal("impossible allocation succeeded")
	}
	// The kernel stays healthy after the guest fault.
	ok, _ := k.Spawn("after", 0, func(e *Env) error { e.Compute(10); return nil })
	if err := ok.Wait(); err != nil {
		t.Fatalf("kernel unhealthy after guest fault: %v", err)
	}
}

// TestHashNameStable checks the guest's XEMEM name encoding: a segment the
// guest exports by name is registered under pisces.NameHash of that name —
// the hash host exporters and the fleet registry use — and the guest finds
// it again by the same name.
func TestHashNameStable(t *testing.T) {
	host, _, _, k := testStack(t, 1, []int{0}, 64<<20)
	var made, found uint64
	task, err := k.Spawn("xem", 0, func(e *Env) error {
		seg := e.Alloc(0, hw.PageSize2M)
		var err error
		if made, err = e.XemMake("abc", seg); err != nil {
			return err
		}
		found, err = e.XemGet("abc")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if found != made {
		t.Errorf("XemGet = %d, want the exported segment %d", found, made)
	}
	if id, err := host.Master.Reg.Get(pisces.NameHash("abc")); err != nil || id != made {
		t.Errorf("host lookup of NameHash(abc) = %d, %v; want segment %d", id, err, made)
	}
	if _, err := host.Master.Reg.Get(pisces.NameHash("abd")); err == nil {
		t.Error("a different name resolves to the segment")
	}
}

// TestShootdownOneDeliveryPerRaise: two back-to-back shootdowns cost every
// other core two TLB-flush deliveries. A halted core takes each on the
// initiator's goroutine as it is raised. A running core polls later; the
// APIC folds the second raise into the first, and the first delivery
// raises the vector again, so the count does not depend on whether the
// core polled between the shootdowns.
func TestShootdownOneDeliveryPerRaise(t *testing.T) {
	for _, pollBetween := range []bool{false, true} {
		t.Run(fmt.Sprintf("poll-between=%v", pollBetween), func(t *testing.T) {
			_, _, _, k := testStack(t, 3, []int{0}, 64<<20)
			// irqs reads a core's interrupt count on the core itself, after
			// taking the task's own spawn doorbell.
			irqs := func(core int) uint64 {
				var n uint64
				task, err := k.Spawn("count", core, func(e *Env) error {
					e.Compute(0)
					n = e.CPU.IRQsTaken
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := task.Wait(); err != nil {
					t.Fatal(err)
				}
				return n
			}
			halted := irqs(1)
			ready, poll, polled, release := make(chan uint64), make(chan struct{}), make(chan struct{}), make(chan struct{})
			var running uint64
			busy, err := k.Spawn("busy", 2, func(e *Env) error {
				e.Compute(0)
				ready <- e.CPU.IRQsTaken
				if pollBetween {
					<-poll
					e.Compute(0)
					close(polled)
				}
				<-release
				e.Compute(0)
				running = e.CPU.IRQsTaken
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			before := <-ready
			ext := hw.Extent{Start: 0x40000000, Size: hw.PageSize2M}
			shoot, err := k.Spawn("shootdown", 0, func(e *Env) error {
				k.shootdown(e.CPU, ext)
				if pollBetween {
					close(poll)
					<-polled
				}
				k.shootdown(e.CPU, ext)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := shoot.Wait(); err != nil {
				t.Fatal(err)
			}
			close(release)
			if err := busy.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := irqs(1) - halted; got != 3 { // two flushes and the count task's doorbell
				t.Errorf("halted core took %d interrupts, want 2 flushes and 1 doorbell", got)
			}
			if got := running - before; got != 2 {
				t.Errorf("running core took %d flush deliveries, want 2", got)
			}
		})
	}
}
