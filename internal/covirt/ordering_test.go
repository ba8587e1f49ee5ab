package covirt_test

import (
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
)

// TestMapBeforeNotifyOrdering verifies the paper's assignment ordering: by
// the time the mem-add event propagates (and hence before the enclave is
// told about the memory), the extent is already present in the EPT.
func TestMapBeforeNotifyOrdering(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, _ := r.boot(t, "lwk", 1, []int{0}, 128<<20)

	var sawMapped bool
	// Subscribed after the controller: runs once the controller handled
	// the same event.
	r.h.Pisces.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind == pisces.EvMemAddPre && ev.Enclave == enc {
			for _, x := range ev.Extents {
				if r.ctrl.EPTMapped(enc, x.Start) && r.ctrl.EPTMapped(enc, x.End()-hw.PageSize4K) {
					sawMapped = true
				}
			}
		}
		return nil
	})
	if _, err := r.h.Pisces.AddMemory(enc, 0, 32<<20); err != nil {
		t.Fatal(err)
	}
	if !sawMapped {
		t.Fatal("extent not EPT-mapped before the enclave was notified")
	}
}

// TestUnmapFlushBeforeReclaim verifies the release ordering: when
// RemoveMemory returns, every enclave core's TLB has dropped translations
// for the removed range — even cores that never ran a task during the
// operation (their flush is NMI-driven in the idle loop).
func TestUnmapFlushBeforeReclaim(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)
	ext, err := r.h.Pisces.AddMemory(enc, 0, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both cores' TLBs inside the new extent.
	for core := 0; core < 2; core++ {
		task, _ := k.Spawn("warm", core, func(e *kitten.Env) error {
			e.Access(ext.Start+8192, false, hw.AccessHot)
			return nil
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	// RemoveMemory has returned: the hypervisor on every core must have
	// processed its flush command (the controller waited for completion).
	st := r.ctrl.StatusFor(enc.ID)
	if st.FlushCmds != 2 {
		t.Errorf("flush commands = %d, want one per core", st.FlushCmds)
	}
	for core := 0; core < 2; core++ {
		if cached(t, k, core, ext.Start+8192) {
			t.Errorf("core %d holds a stale translation after RemoveMemory returned", core)
		}
	}
	if st.Exits["EXCEPTION_NMI"] == 0 {
		t.Error("no NMI doorbells recorded")
	}
}

// TestAsyncUpdateDoesNotPauseEnclave verifies that a configuration change
// (memory grant) does not stop a concurrently running guest: the update is
// asynchronous with respect to the enclave's execution.
func TestAsyncUpdateDoesNotPauseEnclave(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 256<<20)

	stop := make(chan struct{})
	progress := make(chan uint64, 1)
	worker, _ := k.Spawn("worker", 1, func(e *kitten.Env) error {
		var ops uint64
		for {
			select {
			case <-stop:
				progress <- ops
				return nil
			default:
			}
			if err := e.CPU.Compute(1000); err != nil {
				return err
			}
			ops++
		}
	})
	// Issue several grows/shrinks while the worker runs.
	for i := 0; i < 4; i++ {
		ext, err := r.h.Pisces.AddMemory(enc, 0, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := worker.Wait(); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if ops := <-progress; ops == 0 {
		t.Error("worker made no progress during reconfiguration")
	}
	if st := r.ctrl.StatusFor(enc.ID); st.MapOps != 4 || st.UnmapOps != 4 {
		t.Errorf("map/unmap ops = %d/%d", st.MapOps, st.UnmapOps)
	}
}

// TestHypervisorStackBudget verifies the minimal-execution-context
// property: exit handling never exceeds the fixed 8 KiB stack and always
// unwinds fully.
func TestHypervisorStackBudget(t *testing.T) {
	r := newRig(t, covirt.FeaturesAll)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("exits", 0, func(e *kitten.Env) error {
		for i := 0; i < 50; i++ {
			e.SendIPI(0, 0x70) // ICR exits
			if err := e.CPU.CPUID(); err != nil {
				return err
			}
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	hv := r.ctrl.Hypervisor(enc.ID, k.CPU(0).ID)
	if hv == nil {
		t.Fatal("no hypervisor")
	}
	if d := hv.StackDepth(); d != 0 {
		t.Errorf("stack depth %d after exits; leak", d)
	}
	if exits, _ := hv.Stats().Total(); exits < 100 {
		t.Errorf("exits = %d", exits)
	}
}

// TestControllerRejectsDoubleAttachState exercises buildState error paths:
// booting an enclave whose extents were (incorrectly) already mapped.
func TestControllerStateLifecycle(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, _ := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	if !r.ctrl.HasState(enc) {
		t.Fatal("no controller state while running")
	}
	if err := r.h.Pisces.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.HasState(enc) {
		t.Error("controller state survived destroy")
	}
	if r.ctrl.StatusFor(enc.ID) != nil {
		t.Error("status available for destroyed enclave")
	}
}
