package kitten

import (
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
)

// TestSyscallChargesPinned pins what a system call charges its core under
// Covirt, where a detach's epoch rings the calling core's NMI doorbell
// while the call waits for the host: a header-only look right after the
// request and after each NMI, the NMI itself, the answer's doorbell and the
// pop. A 2-core enclave's task on core 0 attaches a host segment, writes
// it and detaches it; the detach's shootdown IPI and epoch NMI reach idle
// core 1 too. Every per-core figure below is the one the longcall service
// produced when it ran on its own goroutine and the caller idled for its
// answer.
func TestSyscallChargesPinned(t *testing.T) {
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
	if err := host.OfflineCores(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := host.OfflineMemory(0, 512<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := covirt.Attach(m, host.Pisces, covirt.FeaturesMem); err != nil {
		t.Fatal(err)
	}
	fw := host.Pisces
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "t", NumCores: 2, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := New()
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	mem, err := host.HostAlloc(0, hw.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := host.Master.Reg.Make(0x5C, fw.RootMem, []hw.Extent{mem})
	if err != nil {
		t.Fatal(err)
	}
	type charges struct{ tsc, nmis, irqs uint64 }
	var calls [3]charges // attach, detach, detach-done
	task, err := k.Spawn("xemem", 0, func(e *Env) error {
		e.Compute(0) // take the spawn doorbell
		mark := func(i int, tsc, nmis, irqs uint64) {
			calls[i] = charges{e.CPU.TSC - tsc, e.CPU.APIC.NMICount - nmis, e.CPU.IRQsTaken - irqs}
		}
		tsc, nmis, irqs := e.CPU.TSC, e.CPU.APIC.NMICount, e.CPU.IRQsTaken
		exts, err := e.XemAttach(seg.ID)
		if err != nil {
			return err
		}
		mark(0, tsc, nmis, irqs)
		e.Write64(exts[0].Start, 1)
		tsc, nmis, irqs = e.CPU.TSC, e.CPU.APIC.NMICount, e.CPU.IRQsTaken
		if _, _, err := e.Syscall(pisces.SysXemDetach, seg.ID); err != nil {
			return err
		}
		mark(1, tsc, nmis, irqs)
		for _, x := range exts {
			k.mm.Remove(x)
			k.shootdown(e.CPU, x)
		}
		tsc, nmis, irqs = e.CPU.TSC, e.CPU.APIC.NMICount, e.CPU.IRQsTaken
		if _, _, err := e.Syscall(pisces.SysXemDetachDone, seg.ID); err != nil {
			return err
		}
		mark(2, tsc, nmis, irqs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	cpus := enc.CPUs()
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	want := [3]charges{{83723, 0, 1}, {83640, 0, 1}, {10888, 1, 1}}
	if calls != want {
		t.Errorf("attach, detach, detach-done charged (TSC, NMIs, IRQs) %v, want %v", calls, want)
	}
	// Core 1 only took the shootdown IPI and the epoch NMI, on its ringers'
	// goroutines.
	if got, want := [3]uint64{cpus[1].TSC, cpus[1].APIC.NMICount, cpus[1].IRQsTaken}, [3]uint64{6060, 1, 1}; got != want {
		t.Errorf("core 1 ends at (TSC, NMIs, IRQs) %v, want %v", got, want)
	}
}
