package covirt_test

import (
	"sync"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
)

func TestCPUHotAddRunsProtectedWork(t *testing.T) {
	r := newRig(t, covirt.FeaturesMemIPIPIV)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	if k.NumCores() != 1 {
		t.Fatalf("cores = %d", k.NumCores())
	}

	core, err := r.h.Pisces.AddCPU(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 2 {
		t.Fatalf("cores after add = %d", k.NumCores())
	}
	if len(enc.Cores) != 2 || enc.Cores[1] != core {
		t.Fatalf("enclave cores = %v", enc.Cores)
	}
	// The hot-added core runs in VMX non-root mode with a live hypervisor.
	cpu := r.h.M.CPU(core)
	if cpu.Virt == nil {
		t.Fatal("hot-added core not virtualized")
	}
	if r.ctrl.Hypervisor(enc.ID, core) == nil {
		t.Fatal("no hypervisor for hot-added core")
	}

	// Protected work runs on the new core...
	task, _ := k.Spawn("work", 1, func(e *kitten.Env) error {
		buf := e.Alloc(0, 2<<20)
		e.Write64(buf.Start, 11)
		if e.Read64(buf.Start) != 11 {
			t.Error("bad read on hot-added core")
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	// ... and wild accesses from it are contained.
	bad, _ := k.Spawn("wild", 1, func(e *kitten.Env) error {
		return e.RawWrite64(0x60, 1)
	})
	if err := bad.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("wild write on hot-added core: %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed")
	}
}

func TestCPUHotAddJoinsFlushProtocol(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	if _, err := r.h.Pisces.AddCPU(enc, 0); err != nil {
		t.Fatal(err)
	}
	ext, err := r.h.Pisces.AddMemory(enc, 0, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the hot-added core's TLB inside the extent.
	warm, _ := k.Spawn("warm", 1, func(e *kitten.Env) error {
		e.Access(ext.Start+4096, false, hw.AccessHot)
		return nil
	})
	if err := warm.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	// RemoveMemory waited for BOTH cores' flush acknowledgements.
	if st := r.ctrl.StatusFor(enc.ID); st.FlushCmds != 2 {
		t.Errorf("flush cmds = %d, want 2", st.FlushCmds)
	}
	if k.CPU(1).TLB.Lookup(ext.Start + 4096) {
		t.Error("hot-added core kept a stale translation")
	}
}

func TestCPUHotRemove(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	core, err := r.h.Pisces.AddCPU(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.Pisces.RemoveCPU(enc, core); err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 1 {
		t.Errorf("cores after remove = %d", k.NumCores())
	}
	if len(enc.Cores) != 1 {
		t.Errorf("enclave cores = %v", enc.Cores)
	}
	if r.ctrl.Hypervisor(enc.ID, core) != nil {
		t.Error("hypervisor survived hot-remove")
	}
	if r.h.M.CPU(core).Virt != nil {
		t.Error("VirtLayer survived hot-remove")
	}
	// The core is reusable by another enclave.
	enc2, k2 := r.boot(t, "second", 1, []int{0}, 128<<20)
	if enc2.Cores[0] != core {
		t.Skipf("ledger handed out a different core (%d)", enc2.Cores[0])
	}
	ok, _ := k2.Spawn("reuse", 0, func(e *kitten.Env) error { e.Compute(10); return nil })
	if err := ok.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUHotRemoveRefusals(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, _ := r.boot(t, "lwk", 2, []int{0}, 128<<20)
	// The boot core can never be removed.
	if err := r.h.Pisces.RemoveCPU(enc, enc.Cores[0]); err == nil {
		t.Error("boot core removal accepted")
	}
	// A core not in the enclave cannot be removed.
	if err := r.h.Pisces.RemoveCPU(enc, 11); err == nil {
		t.Error("foreign core removal accepted")
	}
	// A busy core is refused by the co-kernel.
	victim := enc.Cores[1]
	stop := make(chan struct{})
	k := enc.Kernel().(*kitten.Kernel)
	busy, _ := k.Spawn("busy", 1, func(e *kitten.Env) error {
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			if err := e.CPU.Compute(500); err != nil {
				return err
			}
		}
	})
	if err := r.h.Pisces.RemoveCPU(enc, victim); err == nil {
		t.Error("busy core removal accepted")
	}
	close(stop)
	if err := busy.Wait(); err != nil {
		t.Fatal(err)
	}
}

// hotplugCycle hot-adds one core to enc and hot-removes it again.
func hotplugCycle(r *rig, enc *pisces.Enclave) error {
	core, err := r.h.Pisces.AddCPU(enc, 0)
	if err != nil {
		return err
	}
	return r.h.Pisces.RemoveCPU(enc, core)
}

// TestCPUHotplugConcurrentStatus polls StatusFor and QueueStatsFor while
// 20 add/remove cycles edit the enclave's per-core table. Under -race, an
// edit or a snapshot that skips the per-core lock fails it.
func TestCPUHotplugConcurrentStatus(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, _ := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	stop := make(chan struct{})
	observerDone := make(chan struct{})
	go func() { // observer: snapshots race against the hot-plug edits
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.ctrl.StatusFor(enc.ID)
			_ = r.ctrl.QueueStatsFor(enc.ID)
		}
	}()
	defer func() {
		close(stop)
		<-observerDone
	}()
	for i := 0; i < 20; i++ {
		if err := hotplugCycle(r, enc); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if qs := r.ctrl.QueueStatsFor(enc.ID); len(qs.Depth) != 1 {
		t.Errorf("queue stats list %d cores after the cycles, want 1", len(qs.Depth))
	}
}

// TestCPUHotplugReusesQueueSlots runs more add/remove cycles than the
// reserved area has command-queue slots: a removed core must give its slot
// back. Each cycle closes an epoch through the added core's queue, so the
// next core to take the slot inherits a queue whose epoch word is not 0,
// and the core added last must still join the flush protocol.
func TestCPUHotplugReusesQueueSlots(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	for i := 0; i < 20; i++ {
		core, err := r.h.Pisces.AddCPU(enc, 0)
		if err != nil {
			t.Fatalf("cycle %d: add: %v", i, err)
		}
		ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
		if err != nil {
			t.Fatalf("cycle %d: add memory: %v", i, err)
		}
		if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
			t.Fatalf("cycle %d: remove memory: %v", i, err)
		}
		if err := r.h.Pisces.RemoveCPU(enc, core); err != nil {
			t.Fatalf("cycle %d: remove: %v", i, err)
		}
	}
	core, err := r.h.Pisces.AddCPU(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := k.Spawn("warm", 1, func(e *kitten.Env) error {
		e.Access(ext.Start+4096, false, hw.AccessHot)
		return nil
	})
	if err := warm.Wait(); err != nil {
		t.Fatal(err)
	}
	pre := r.ctrl.StatusFor(enc.ID).FlushCmds
	if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	if got := r.ctrl.StatusFor(enc.ID).FlushCmds - pre; got != 2 {
		t.Errorf("flush cmds = %d, want 2 (boot core and core %d)", got, core)
	}
	if k.CPU(1).TLB.Lookup(ext.Start + 4096) {
		t.Error("the core added last kept a stale translation")
	}
}

// TestCPUHotplugRacesGrantRevoke runs a host grant/revoke loop against 40
// add/remove cycles. A removal whose epoch reaches a core after that
// core's last poll must still complete: the core's scheduler stops
// without draining, so the controller applies the queue it unlinks.
func TestCPUHotplugRacesGrantRevoke(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, _ := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // host: grant and revoke until the cycles end
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
			if err == nil {
				err = r.h.Pisces.RemoveMemory(enc, ext)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 40; i++ {
			if err := hotplugCycle(r, enc); err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hot-plug cycles racing a grant/revoke loop hung")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	if qs.Ingest.Epochs == 0 {
		t.Error("the grant/revoke loop closed no epoch")
	}
	for core, d := range qs.Depth {
		if d != 0 {
			t.Errorf("core %d left %d undrained records", core, d)
		}
	}
}
