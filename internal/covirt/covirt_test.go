package covirt_test

import (
	"strings"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
	"covirt/internal/vmx"
)

// rig is a full simulated node: host OS, Pisces, Hobbes, and the Covirt
// controller, assembled through the declarative testbed layer.
type rig struct {
	node *testbed.Node
	h    *linuxhost.Host
	ctrl *covirt.Controller
}

func newRig(t *testing.T, defaults covirt.Features) *rig {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	node, err := testbed.Spec{
		Machine:      spec,
		OfflineCores: []int{1, 2, 3, 7, 8, 9},
		OfflineMem:   map[int]uint64{0: 512 << 20, 1: 512 << 20},
		Covirt:       true,
		Features:     defaults,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &rig{node: node, h: node.Host, ctrl: node.Ctrl}
}

func (r *rig) boot(t *testing.T, name string, cores int, nodes []int, mem uint64) (*pisces.Enclave, *kitten.Kernel) {
	t.Helper()
	be, err := r.node.BootGuest(testbed.Guest{
		Name: name, Cores: cores, Nodes: nodes, MemBytes: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.h.Pisces.Destroy(be.Enc) })
	return be.Enc, be.Kitten
}

// cached reports whether local core's TLB holds a translation for addr.
// A TLB belongs to its core's goroutine, so the probe runs in a task on
// that core, and the answer is read once the task has ended.
func cached(t *testing.T, k *kitten.Kernel, core int, addr uint64) bool {
	t.Helper()
	var hit bool
	task, err := k.Spawn("tlb-probe", core, func(e *kitten.Env) error {
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

func TestBootTransparencyUnderCovirt(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)

	// The kernel sees its normal Pisces environment and works normally.
	task, _ := k.Spawn("hello", 0, func(e *kitten.Env) error {
		e.Compute(1000)
		buf := e.Alloc(0, 2<<20)
		e.Write64(buf.Start, 99)
		if v := e.Read64(buf.Start); v != 99 {
			t.Errorf("read %d", v)
		}
		return e.WriteConsole("under covirt\n")
	})
	if err := task.Wait(); err != nil {
		t.Fatalf("task: %v", err)
	}
	if got := r.h.Console(enc.ID); got != "under covirt\n" {
		t.Errorf("console = %q", got)
	}
	// Every enclave core runs in VMX non-root mode.
	for _, cpu := range enc.CPUs() {
		if cpu.Virt == nil {
			t.Errorf("core %d not virtualized", cpu.ID)
		}
	}
	st := r.ctrl.StatusFor(enc.ID)
	if st == nil || !st.Features.Memory {
		t.Fatalf("status = %+v", st)
	}
	if st.EPT.Bytes != 128<<20 {
		t.Errorf("EPT maps %d bytes, want %d", st.EPT.Bytes, 128<<20)
	}
	// The boot-parameter chain is intact: Covirt block points back at the
	// unmodified Pisces block.
	cbp, err := covirt.DecodeBootParams(r.h.M.Mem, enc.Base()+pisces.OffCovirtParams)
	if err != nil {
		t.Fatal(err)
	}
	if cbp.PiscesParams != enc.Base()+pisces.OffBootParams {
		t.Error("covirt boot params do not chain to pisces params")
	}
	if cbp.NumCPUs != 2 {
		t.Errorf("NumCPUs = %d", cbp.NumCPUs)
	}
}

func TestWildWriteContained(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	// A host-side buffer standing in for "someone else's memory".
	victim, err := r.h.HostAlloc(0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.h.PlantCanary(victim, 0x5A5A); err != nil {
		t.Fatal(err)
	}

	encA, kA := r.boot(t, "buggy", 1, []int{0}, 128<<20)
	encB, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)

	task, _ := kA.Spawn("wild", 0, func(e *kitten.Env) error {
		// Simulates a memory-map bug: the co-kernel thinks this address is
		// its own and writes through it.
		return e.RawWrite64(victim.Start+8192, 0xEF11)
	})
	err = task.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("task err = %v, want enclave-killed", err)
	}

	// Containment: host memory intact, machine alive, bystander running.
	if addr, _ := r.h.CheckCanary(victim, 0x5A5A); addr != 0 {
		t.Errorf("host memory corrupted at %#x", addr)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed")
	}
	if encA.State() != pisces.StateCrashed {
		t.Errorf("buggy enclave state = %v", encA.State())
	}
	if !strings.Contains(encA.CrashReason(), "EPT violation") {
		t.Errorf("crash reason = %q", encA.CrashReason())
	}
	if encB.State() != pisces.StateRunning {
		t.Errorf("bystander state = %v", encB.State())
	}
	tB, _ := kB.Spawn("alive", 0, func(e *kitten.Env) error { e.Compute(100); return nil })
	if err := tB.Wait(); err != nil {
		t.Errorf("bystander task: %v", err)
	}
}

// TestForgedCmdQueueHeaderContained: each core's command-queue header lies
// in the enclave's reserved area, which its EPT maps, so a guest can
// rewrite it. Trusted, a head forged 1000 records past the tail makes the
// next drain index past its snapshot buffer and panic the whole process,
// and a tail forged past the head leaves a host RemoveMemory waiting
// forever on an epoch the drain never applies. Either forgery must cost
// only the forger: the removal fails within a bounded time, the forger's
// hypervisor terminates it, the node stays up and a bystander enclave
// keeps running.
func TestForgedCmdQueueHeaderContained(t *testing.T) {
	for _, tc := range []struct {
		name     string
		off, val uint64
	}{
		{"head", covirt.CmdQueueOffHead, 1000},
		{"tail", covirt.CmdQueueOffTail, 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, covirt.FeaturesMem)
			enc, k := r.boot(t, "forger", 1, []int{0}, 128<<20)
			_, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)
			ext, err := r.h.Pisces.AddMemory(enc, 0, 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			hdr := enc.Base() + pisces.OffCovirtCmdQ + tc.off // the boot core's queue
			task, _ := k.Spawn("forge", 0, func(e *kitten.Env) error {
				return e.RawWrite64(hdr, tc.val)
			})
			if err := task.Wait(); err != nil {
				t.Fatalf("forging the queue %s: %v", tc.name, err)
			}

			removed := make(chan error, 1)
			go func() { removed <- r.h.Pisces.RemoveMemory(enc, ext) }()
			select {
			case err := <-removed:
				if err == nil || !strings.Contains(err.Error(), "corrupt command-queue header") {
					t.Errorf("RemoveMemory = %v, want a corrupt-header error: the core never applied its flush", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("RemoveMemory still blocked 30 s after the guest forged its queue header")
			}
			select {
			case <-enc.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("the forger is still running 30 s after its drain met the forged header")
			}
			if !strings.Contains(enc.CrashReason(), "corrupt command-queue header") {
				t.Errorf("forger crash reason = %q", enc.CrashReason())
			}
			if r.h.M.Crashed() {
				t.Fatal("node crashed")
			}
			tB, _ := kB.Spawn("alive", 0, func(e *kitten.Env) error { e.Compute(100); return nil })
			if err := tB.Wait(); err != nil {
				t.Errorf("bystander task: %v", err)
			}
		})
	}
}

func TestWildWriteWithoutCovirtCorrupts(t *testing.T) {
	// Same bug, no protection: the canary is corrupted and nothing stops it.
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	node, err := testbed.Spec{
		Machine:      spec,
		OfflineCores: []int{1},
		OfflineMem:   map[int]uint64{0: 256 << 20},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := node.Host
	victim, _ := h.HostAlloc(0, 4<<20)
	_ = h.PlantCanary(victim, 0x5A5A)

	be, err := node.BootGuest(testbed.Guest{Name: "buggy", Cores: 1, Nodes: []int{0}, MemBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	task, _ := be.Kitten.Spawn("wild", 0, func(e *kitten.Env) error {
		return e.RawWrite64(victim.Start+8192, 0xBAD)
	})
	if err := task.Wait(); err != nil {
		t.Fatalf("unprotected wild write errored: %v", err)
	}
	addr, _ := h.CheckCanary(victim, 0x5A5A)
	if addr == 0 {
		t.Fatal("canary survived an unprotected wild write")
	}
}

func TestWildUnbackedAccessContainedVsCrash(t *testing.T) {
	// With memory protection, a read of unbacked physical space is an EPT
	// violation (contained). Natively it is a bus error that takes the
	// node down (covered in hw tests); with covirt-none it becomes an
	// abort the hypervisor can still contain if Abort is enabled.
	r := newRig(t, covirt.FeaturesMem)
	_, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("wild", 0, func(e *kitten.Env) error {
		_, err := e.RawRead64(0x10) // legacy low memory: unbacked
		return err
	})
	err := task.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("err = %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed despite EPT")
	}
}

func TestAbortContainment(t *testing.T) {
	r := newRig(t, covirt.Features{Abort: true})
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("df", 0, func(e *kitten.Env) error {
		return e.CPU.RaiseDoubleFault("corrupted IST")
	})
	err := task.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("err = %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("double fault escaped containment")
	}
	if enc.State() != pisces.StateCrashed {
		t.Errorf("state = %v", enc.State())
	}
}

func TestAbortWithoutFeatureCrashesNode(t *testing.T) {
	r := newRig(t, covirt.FeaturesNone) // no abort handling
	_, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("df", 0, func(e *kitten.Env) error {
		return e.CPU.RaiseDoubleFault("corrupted IST")
	})
	err := task.Wait()
	if !hw.IsFault(err, hw.FaultMachineCrashed) {
		t.Fatalf("err = %v", err)
	}
	if !r.h.M.Crashed() {
		t.Fatal("node survived, expected crash without abort feature")
	}
}

func TestMemoryAddRemoveUnderCovirt(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)
	st := r.ctrl.StatusFor(enc.ID)
	baseBytes := st.EPT.Bytes

	ext, err := r.h.Pisces.AddMemory(enc, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ctrl.StatusFor(enc.ID).EPT.Bytes; got != baseBytes+ext.Size {
		t.Errorf("EPT bytes after add = %d, want %d", got, baseBytes+ext.Size)
	}
	// The enclave can use it through the protection layer.
	task, _ := k.Spawn("use", 0, func(e *kitten.Env) error {
		e.Write64(ext.Start+4096, 1234)
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}

	if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	after := r.ctrl.StatusFor(enc.ID)
	if after.EPT.Bytes != baseBytes {
		t.Errorf("EPT bytes after remove = %d, want %d", after.EPT.Bytes, baseBytes)
	}
	if after.FlushCmds == 0 {
		t.Error("no flush commands issued on unmap")
	}
	// Stale access to the removed memory — even bypassing the kernel map,
	// and even though it was recently in the TLB — is now contained.
	task2, _ := k.Spawn("stale", 0, func(e *kitten.Env) error {
		return e.RawWrite64(ext.Start+4096, 0xDEAD)
	})
	err = task2.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("stale access err = %v, want enclave-killed", err)
	}
}

func TestXememUnderCovirt(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	_, kA := r.boot(t, "producer", 1, []int{0}, 128<<20)
	encB, kB := r.boot(t, "consumer", 1, []int{1}, 128<<20)

	var seg hw.Extent
	tA, _ := kA.Spawn("export", 0, func(e *kitten.Env) error {
		seg = e.Alloc(0, 4<<20)
		e.Write64(seg.Start, 0xC0FFEE)
		_, err := e.XemMake("cv.shared", seg)
		return err
	})
	if err := tA.Wait(); err != nil {
		t.Fatal(err)
	}

	stBefore := r.ctrl.StatusFor(encB.ID).EPT.Bytes
	tB, _ := kB.Spawn("attach", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet("cv.shared")
		if err != nil {
			return err
		}
		exts, err := e.XemAttach(segid)
		if err != nil {
			return err
		}
		if v := e.Read64(exts[0].Start); v != 0xC0FFEE {
			t.Errorf("shared read = %#x", v)
		}
		e.Write64(exts[0].Start+8, 0xFEED)
		return e.XemDetach(segid)
	})
	if err := tB.Wait(); err != nil {
		t.Fatalf("consumer: %v", err)
	}
	// EPT returned to its pre-attach footprint.
	if got := r.ctrl.StatusFor(encB.ID).EPT.Bytes; got != stBefore {
		t.Errorf("EPT bytes after detach = %d, want %d", got, stBefore)
	}
	// Stale access to the detached segment is contained by the EPT even if
	// the co-kernel's own map were stale.
	tB2, _ := kB.Spawn("stale", 0, func(e *kitten.Env) error {
		return e.RawWrite64(seg.Start, 0xBAD)
	})
	if err := tB2.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("stale access err = %v", err)
	}
}

func TestStaleXememSegmentBugContained(t *testing.T) {
	// Reproduce the paper's §V anecdote: a cleanup-path bug leaves a stale
	// shared-memory mapping in the co-kernel after the host reclaimed it.
	// The co-kernel then touches it "legitimately" (its own map says yes).
	r := newRig(t, covirt.FeaturesMem)
	_, kA := r.boot(t, "producer", 1, []int{0}, 128<<20)
	_, kB := r.boot(t, "consumer", 1, []int{1}, 128<<20)

	var seg hw.Extent
	tA, _ := kA.Spawn("export", 0, func(e *kitten.Env) error {
		seg = e.Alloc(0, 4<<20)
		_, err := e.XemMake("stale.seg", seg)
		return err
	})
	if err := tA.Wait(); err != nil {
		t.Fatal(err)
	}

	tB, _ := kB.Spawn("buggy-detach", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet("stale.seg")
		if err != nil {
			return err
		}
		if _, err := e.XemAttach(segid); err != nil {
			return err
		}
		// BUG: complete the detach protocol with the host WITHOUT removing
		// the local mapping (the stale-state window from the paper).
		if _, _, err := e.Syscall(pisces.SysXemDetach, segid); err != nil {
			return err
		}
		if _, _, err := e.Syscall(pisces.SysXemDetachDone, segid); err != nil {
			return err
		}
		// The co-kernel's map still says this memory is fine. Touch it.
		e.Access(seg.Start, true, hw.AccessHot)
		return nil
	})
	err := tB.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("stale-segment access err = %v, want enclave-killed", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed; covirt should have contained the stale access")
	}
}

func TestIPIFilteringVAPIC(t *testing.T) {
	testIPIFiltering(t, covirt.FeaturesMemIPIVAPIC)
}

func TestIPIFilteringPIV(t *testing.T) {
	testIPIFiltering(t, covirt.FeaturesMemIPIPIV)
}

func testIPIFiltering(t *testing.T, feat covirt.Features) {
	r := newRig(t, feat)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)

	// Intra-enclave IPIs pass the whitelist.
	got := make(chan struct{}, 4)
	k.OnIPI(0x70, func(e *kitten.Env) { got <- struct{}{} })
	busy, _ := k.Spawn("busy", 1, func(e *kitten.Env) error {
		for i := 0; i < 2000; i++ {
			e.Compute(100)
		}
		return nil
	})
	send, _ := k.Spawn("send", 0, func(e *kitten.Env) error {
		e.SendIPI(1, 0x70)
		// Errant IPI to a host core: must be dropped silently.
		return e.SendIPIRaw(0, 0x70)
	})
	if err := send.Wait(); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := busy.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Error("intra-enclave IPI not delivered")
	}
	st := r.ctrl.StatusFor(enc.ID)
	if st.DroppedIPIs != 1 {
		t.Errorf("dropped IPIs = %d, want 1", st.DroppedIPIs)
	}
	if st.Exits["APIC_ICR_WRITE"] == 0 {
		t.Error("no ICR exits recorded")
	}
	// Host core 0 never saw the errant vector.
	if r.h.M.CPU(0).IRQsTaken != 0 {
		t.Error("errant IPI reached host core")
	}
}

func TestIPIGrantAllowsCrossEnclave(t *testing.T) {
	r := newRig(t, covirt.FeaturesMemIPIPIV)
	encA, kA := r.boot(t, "a", 1, []int{0}, 128<<20)
	encB, kB := r.boot(t, "b", 1, []int{1}, 128<<20)
	_ = encB

	destCore := kB.CPU(0).ID
	notified := make(chan struct{}, 1)
	kB.OnIPI(0x71, func(e *kitten.Env) { notified <- struct{}{} })

	// Without a grant the cross-enclave IPI is dropped.
	busy1, _ := kB.Spawn("busy1", 0, func(e *kitten.Env) error {
		for i := 0; i < 1000; i++ {
			e.Compute(100)
		}
		return nil
	})
	s1, _ := kA.Spawn("send1", 0, func(e *kitten.Env) error {
		return e.SendIPIRaw(destCore, 0x71)
	})
	if err := s1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := busy1.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-notified:
		t.Fatal("ungranted cross-enclave IPI delivered")
	default:
	}

	// Grant through the master control process; now it is delivered.
	if err := r.h.Master.GrantIPI(encA, destCore, 0x71); err != nil {
		t.Fatal(err)
	}
	busy2, _ := kB.Spawn("busy2", 0, func(e *kitten.Env) error {
		for i := 0; i < 1000; i++ {
			e.Compute(100)
		}
		return nil
	})
	s2, _ := kA.Spawn("send2", 0, func(e *kitten.Env) error {
		return e.SendIPIRaw(destCore, 0x71)
	})
	if err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := busy2.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-notified:
	case <-time.After(5 * time.Second):
		t.Fatal("granted cross-enclave IPI not delivered")
	}

	// Revoking closes the path again.
	if err := r.h.Master.RevokeIPI(encA, destCore, 0x71); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.StatusFor(encA.ID).DroppedIPIs != 1 {
		t.Errorf("dropped = %d", r.ctrl.StatusFor(encA.ID).DroppedIPIs)
	}
}

func TestMSRProtection(t *testing.T) {
	r := newRig(t, covirt.Features{MSR: true, Abort: true})
	_, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	// Permitted MSR write goes through.
	t1, _ := k.Spawn("ok", 0, func(e *kitten.Env) error {
		return e.CPU.WRMSR(hw.MSR_IA32_FS_BASE, 0x7000)
	})
	if err := t1.Wait(); err != nil {
		t.Fatalf("allowed MSR write: %v", err)
	}
	// Forbidden MSR write terminates the enclave.
	t2, _ := k.Spawn("bad", 0, func(e *kitten.Env) error {
		return e.CPU.WRMSR(hw.MSR_IA32_APIC_BASE, 0)
	})
	err := t2.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("forbidden MSR write err = %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed")
	}
}

func TestIOProtection(t *testing.T) {
	r := newRig(t, covirt.Features{IO: true, Abort: true})
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	// Grant the serial port via the Covirt ioctl ABI: the caller first
	// obtains an I/O key for the enclave, then names it in the grant.
	ioCap, err := r.ctrl.DelegateIO(enc.ID, hw.PortSerialCOM1, hw.PortSerialCOM1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.h.Pisces.Ioctl(covirt.IoctlGrantIO, covirt.GrantIOArgs{EnclaveID: enc.ID, Port: hw.PortSerialCOM1, Cap: ioCap}); err != nil {
		t.Fatal(err)
	}
	sink := &hw.SerialSink{}
	r.h.M.Ports.Register(hw.PortSerialCOM1, sink)

	t1, _ := k.Spawn("serial", 0, func(e *kitten.Env) error {
		return e.CPU.IOOut(hw.PortSerialCOM1, 'k')
	})
	if err := t1.Wait(); err != nil {
		t.Fatalf("granted port: %v", err)
	}
	if sink.String() != "k" {
		t.Error("serial byte lost")
	}
	// The reset port was never granted: touching it kills the enclave
	// before the write reaches hardware.
	t2, _ := k.Spawn("reset", 0, func(e *kitten.Env) error {
		return e.CPU.IOOut(hw.PortReset, 0x6)
	})
	err = t2.Wait()
	if !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("reset port err = %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("reset reached hardware")
	}
}

func TestIoctlABI(t *testing.T) {
	r := newRig(t, covirt.FeaturesNone)
	enc, err := r.h.Pisces.CreateEnclave(pisces.EnclaveSpec{Name: "x", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Select features pre-boot via ioctl.
	if _, err := r.h.Pisces.Ioctl(covirt.IoctlSetFeatures, covirt.SetFeaturesArgs{EnclaveID: enc.ID, Features: covirt.FeaturesMemIPIPIV}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.node.BootInto(enc, testbed.Guest{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	defer r.h.Pisces.Destroy(enc)

	stAny, err := r.h.Pisces.Ioctl(covirt.IoctlStatus, enc.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := stAny.(*covirt.Status)
	if !st.Features.Memory || !st.Features.IPI || st.Features.IPIMode != covirt.IPIPostedInterrupt {
		t.Errorf("features = %v", st.Features)
	}
	// Post-boot feature changes are rejected.
	if err := r.ctrl.SetFeatures(enc.ID, covirt.FeaturesNone); err == nil {
		t.Error("post-boot SetFeatures accepted")
	}
	// Unknown ioctls and bad args fail cleanly.
	if _, err := r.h.Pisces.Ioctl(0xDEAD, nil); err == nil {
		t.Error("unknown ioctl accepted")
	}
	if _, err := r.h.Pisces.Ioctl(covirt.IoctlStatus, "nope"); err == nil {
		t.Error("bad ioctl arg accepted")
	}
}

func TestCrashReclaimsResourcesAndCleansState(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	free0 := r.h.EnclaveLedger.FreeBytes(0)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("wild", 0, func(e *kitten.Env) error {
		return e.RawWrite64(0x20, 1)
	})
	if err := task.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("err = %v", err)
	}
	// Wait for teardown to fully reclaim the enclave's resources.
	<-enc.Reclaimed()
	if got := r.h.EnclaveLedger.FreeBytes(0); got != free0 {
		t.Errorf("free bytes after crash = %d, want %d", got, free0)
	}
	if r.ctrl.StatusFor(enc.ID) != nil {
		t.Error("controller state survived crash")
	}
}

func TestRebootAfterCrashReusesCores(t *testing.T) {
	// After a contained crash the master reclaims the enclave's cores and
	// memory; a new enclave booted on the same hardware must start clean
	// (no kill latch, no stale hypervisor, no stale TLB entries).
	r := newRig(t, covirt.FeaturesMem)
	enc1, k1 := r.boot(t, "first", 1, []int{0}, 128<<20)
	firstCores := append([]int(nil), enc1.Cores...)

	task, _ := k1.Spawn("wild", 0, func(e *kitten.Env) error {
		return e.RawWrite64(0x50, 1)
	})
	if err := task.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("err = %v", err)
	}
	<-enc1.Reclaimed()

	// Same resources, new enclave — still protected, fully functional.
	enc2, k2 := r.boot(t, "second", 1, []int{0}, 128<<20)
	if enc2.Cores[0] != firstCores[0] {
		t.Fatalf("cores not reused: %v vs %v", enc2.Cores, firstCores)
	}
	ok, _ := k2.Spawn("work", 0, func(e *kitten.Env) error {
		buf := e.Alloc(0, 2<<20)
		e.Write64(buf.Start, 7)
		if e.Read64(buf.Start) != 7 {
			t.Error("bad read")
		}
		return nil
	})
	if err := ok.Wait(); err != nil {
		t.Fatalf("second enclave task: %v", err)
	}
	// The protection layer is the NEW enclave's, and it still contains.
	bad, _ := k2.Spawn("wild2", 0, func(e *kitten.Env) error {
		return e.RawWrite64(0x50, 2)
	})
	if err := bad.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
		t.Fatalf("second wild write err = %v", err)
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed")
	}
}

func TestNativeRebootAfterCovirtEnclave(t *testing.T) {
	// A native (unprotected) enclave booted on cores previously managed
	// by a Covirt hypervisor must not inherit the old VirtLayer.
	r := newRig(t, covirt.FeaturesMem)
	enc1, _ := r.boot(t, "protected", 1, []int{0}, 128<<20)
	if err := r.h.Pisces.Destroy(enc1); err != nil {
		t.Fatal(err)
	}
	// Boot the next enclave with covirt disabled for it.
	enc2, err := r.h.Pisces.CreateEnclave(pisces.EnclaveSpec{Name: "bare", NumCores: 1, Nodes: []int{0}, MemBytes: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// covirt-none still interposes; to get a truly bare boot the rig
	// would omit the controller — here we just verify the old enclave's
	// EPT is gone and the new interposition is fresh.
	be, err := r.node.BootInto(enc2, testbed.Guest{Name: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	k := be.Kitten
	defer r.h.Pisces.Destroy(enc2)
	if cpu := k.CPU(0); cpu.Virt == nil {
		t.Fatal("controller did not interpose on reboot")
	}
	task, _ := k.Spawn("ok", 0, func(e *kitten.Env) error {
		buf := e.Alloc(0, 2<<20)
		e.Write64(buf.Start, 1)
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatalf("task on rebooted core: %v", err)
	}
}

func TestExitStatisticsAccumulate(t *testing.T) {
	r := newRig(t, covirt.FeaturesMemIPIVAPIC)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("loop", 0, func(e *kitten.Env) error {
		buf := e.Alloc(0, 2<<20)
		for i := uint64(0); i < 64; i++ {
			e.Write64(buf.Start+i*4096%buf.Size, i)
		}
		e.SendIPI(0, 0x72) // self-IPI: trapped by VAPIC
		e.Compute(10_000)
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.ctrl.StatusFor(enc.ID)
	if st.Exits["APIC_ICR_WRITE"] != 1 {
		t.Errorf("ICR exits = %d", st.Exits["APIC_ICR_WRITE"])
	}
	if st.ExitCycles == 0 {
		t.Error("no exit cycles recorded")
	}
	hv := r.ctrl.Hypervisor(enc.ID, k.CPU(0).ID)
	if hv == nil || hv.Terminated() {
		t.Fatal("hypervisor missing or terminated")
	}
	if hv.Stats().Count(vmx.ExitICRWrite) != 1 {
		t.Error("per-core stats missing ICR exit")
	}
}
