package linuxhost

import (
	"strings"
	"testing"
	"time"

	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
)

// newTestHost boots a host on a small machine and offlines resources for
// enclave use.
func newTestHost(t *testing.T) *Host {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.OfflineCores(1, 2, 3, 7, 8, 9); err != nil {
		t.Fatal(err)
	}
	if err := h.OfflineMemory(0, 512<<20); err != nil {
		t.Fatal(err)
	}
	if err := h.OfflineMemory(1, 512<<20); err != nil {
		t.Fatal(err)
	}
	return h
}

// bootEnclave creates and boots a Kitten enclave.
func bootEnclave(t *testing.T, h *Host, name string, cores int, nodes []int, mem uint64) (*pisces.Enclave, *kitten.Kernel) {
	t.Helper()
	enc, err := h.Pisces.CreateEnclave(pisces.EnclaveSpec{
		Name: name, NumCores: cores, Nodes: nodes, MemBytes: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := kitten.New()
	if err := h.Pisces.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Pisces.Destroy(enc) })
	return enc, k
}

func TestHostResourceOfflining(t *testing.T) {
	h := newTestHost(t)
	if got := h.EnclaveLedger.FreeBytes(0); got != 512<<20 {
		t.Errorf("enclave pool node0 = %d", got)
	}
	// Offlining a core twice fails.
	if err := h.OfflineCores(1); err == nil {
		t.Error("double-offline of core 1 accepted")
	}
	// Core 0 still belongs to the host.
	if err := h.OfflineCores(0); err != nil {
		t.Errorf("offline core 0: %v", err)
	}
}

func TestEnclaveBootAndPing(t *testing.T) {
	h := newTestHost(t)
	enc, k := bootEnclave(t, h, "lwk0", 2, []int{0}, 128<<20)
	if enc.State() != pisces.StateRunning {
		t.Fatalf("state = %v", enc.State())
	}
	if k.NumCores() != 2 {
		t.Fatalf("cores = %d", k.NumCores())
	}
	if err := h.Pisces.Ping(enc); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestTaskRunsAndCharges(t *testing.T) {
	h := newTestHost(t)
	_, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	task, err := k.Spawn("work", 0, func(e *kitten.Env) error {
		start := e.TSC()
		e.Compute(10_000)
		if e.TSC() <= start {
			t.Error("TSC did not advance")
		}
		buf := e.Alloc(0, 4<<20)
		e.Stream(buf.Start, buf.Size, true)
		e.Write64(buf.Start+128, 0xABCD)
		if v := e.Read64(buf.Start + 128); v != 0xABCD {
			t.Errorf("read back %#x", v)
		}
		e.Free(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatalf("task: %v", err)
	}
}

func TestTaskSegfaultKillsTaskNotKernel(t *testing.T) {
	h := newTestHost(t)
	enc, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	task, err := k.Spawn("bad", 0, func(e *kitten.Env) error {
		e.Access(0xDEAD0000, true, hw.AccessHot) // outside memory map
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := task.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "segmentation fault") {
		t.Fatalf("err = %v", werr)
	}
	// Kernel still alive.
	if err := h.Pisces.Ping(enc); err != nil {
		t.Fatalf("ping after task fault: %v", err)
	}
}

func TestConsoleLongcall(t *testing.T) {
	h := newTestHost(t)
	enc, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("hello", 0, func(e *kitten.Env) error {
		return e.WriteConsole("hello from the enclave\n")
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := h.Console(enc.ID); got != "hello from the enclave\n" {
		t.Errorf("console = %q", got)
	}
}

func TestMemoryAddRemove(t *testing.T) {
	h := newTestHost(t)
	enc, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	before := k.MemMap().Bytes()
	ext, err := h.Pisces.AddMemory(enc, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if k.MemMap().Bytes() != before+ext.Size {
		t.Errorf("memmap bytes = %d, want %d", k.MemMap().Bytes(), before+ext.Size)
	}
	// The enclave can use the new memory.
	task, _ := k.Spawn("useit", 0, func(e *kitten.Env) error {
		e.Write64(ext.Start+4096, 7)
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.Pisces.RemoveMemory(enc, ext); err != nil {
		t.Fatal(err)
	}
	if k.MemMap().Bytes() != before {
		t.Errorf("memmap bytes after remove = %d, want %d", k.MemMap().Bytes(), before)
	}
	// Accessing removed memory now segfaults at the kitten level.
	task2, _ := k.Spawn("stale", 0, func(e *kitten.Env) error {
		e.Access(ext.Start+4096, false, hw.AccessHot)
		return nil
	})
	if err := task2.Wait(); err == nil {
		t.Error("access to removed memory succeeded")
	}
}

func TestRemoveInUseMemoryRejected(t *testing.T) {
	h := newTestHost(t)
	enc, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	ext, err := h.Pisces.AddMemory(enc, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Allocate from the new extent so it is in use.
	var held hw.Extent
	task, _ := k.Spawn("hold", 0, func(e *kitten.Env) error {
		// Drain allocations until one lands inside ext.
		for i := 0; i < 64; i++ {
			b := e.Alloc(0, 2<<20)
			if ext.Contains(b.Start) {
				held = b
				return nil
			}
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if held.Size == 0 {
		t.Skip("allocator never used the new extent")
	}
	if err := h.Pisces.RemoveMemory(enc, ext); err == nil {
		t.Error("removal of in-use extent accepted")
	}
}

func TestXememCrossEnclave(t *testing.T) {
	h := newTestHost(t)
	_, kA := bootEnclave(t, h, "producer", 1, []int{0}, 128<<20)
	_, kB := bootEnclave(t, h, "consumer", 1, []int{1}, 128<<20)

	var seg hw.Extent
	tA, _ := kA.Spawn("export", 0, func(e *kitten.Env) error {
		seg = e.Alloc(0, 4<<20)
		e.Write64(seg.Start, 0xC0FFEE)
		_, err := e.XemMake("shared.data", seg)
		return err
	})
	if err := tA.Wait(); err != nil {
		t.Fatalf("export: %v", err)
	}

	tB, _ := kB.Spawn("import", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet("shared.data")
		if err != nil {
			return err
		}
		exts, err := e.XemAttach(segid)
		if err != nil {
			return err
		}
		if len(exts) != 1 || exts[0].Start != seg.Start {
			t.Errorf("attached %v, want %v", exts, seg)
		}
		if v := e.Read64(exts[0].Start); v != 0xC0FFEE {
			t.Errorf("shared read = %#x", v)
		}
		e.Write64(exts[0].Start+8, 0xBEEF)
		return e.XemDetach(segid)
	})
	if err := tB.Wait(); err != nil {
		t.Fatalf("import: %v", err)
	}

	// Producer observes the consumer's write.
	tA2, _ := kA.Spawn("check", 0, func(e *kitten.Env) error {
		if v := e.Read64(seg.Start + 8); v != 0xBEEF {
			t.Errorf("producer sees %#x", v)
		}
		return nil
	})
	if err := tA2.Wait(); err != nil {
		t.Fatal(err)
	}

	// After detach the consumer can no longer touch the segment.
	tB2, _ := kB.Spawn("after", 0, func(e *kitten.Env) error {
		e.Access(seg.Start, false, hw.AccessHot)
		return nil
	})
	if err := tB2.Wait(); err == nil {
		t.Error("consumer accessed detached segment")
	}
}

func TestXememNameErrors(t *testing.T) {
	h := newTestHost(t)
	_, k := bootEnclave(t, h, "lwk0", 1, []int{0}, 128<<20)
	task, _ := k.Spawn("lookup", 0, func(e *kitten.Env) error {
		if _, err := e.XemGet("no.such.segment"); err == nil {
			t.Error("lookup of absent name succeeded")
		}
		seg := e.Alloc(0, 2<<20)
		if _, err := e.XemMake("dup", seg); err != nil {
			return err
		}
		if _, err := e.XemMake("dup", seg); err == nil {
			t.Error("duplicate name accepted")
		}
		// Exporting memory we do not own is rejected by the host.
		if _, err := e.XemMake("evil", hw.Extent{Start: 0x100000, Size: 1 << 20}); err == nil {
			t.Error("export of foreign memory accepted")
		}
		return nil
	})
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelTasksAcrossCores(t *testing.T) {
	h := newTestHost(t)
	_, k := bootEnclave(t, h, "lwk0", 4, []int{0, 1}, 256<<20)
	counts := make([]uint64, 4)
	err := k.RunParallel("spin", 4, func(e *kitten.Env, rank int) error {
		e.Compute(50_000)
		counts[rank] = e.TSC()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestIntraEnclaveIPI(t *testing.T) {
	h := newTestHost(t)
	_, k := bootEnclave(t, h, "lwk0", 2, []int{0}, 128<<20)
	got := make(chan int, 1)
	k.OnIPI(0x60, func(e *kitten.Env) { got <- e.Core })
	t0, _ := k.Spawn("send", 0, func(e *kitten.Env) error {
		e.SendIPI(1, 0x60)
		return nil
	})
	if err := t0.Wait(); err != nil {
		t.Fatal(err)
	}
	// Core 1's idle loop services the interrupt on its own schedule.
	select {
	case core := <-got:
		if core != 1 {
			t.Errorf("IPI handled on core %d", core)
		}
	case <-time.After(5 * time.Second):
		t.Error("IPI never delivered")
	}
}

func TestCanaries(t *testing.T) {
	h := newTestHost(t)
	buf, err := h.HostAlloc(0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PlantCanary(buf, 0x1234); err != nil {
		t.Fatal(err)
	}
	if addr, _ := h.CheckCanary(buf, 0x1234); addr != 0 {
		t.Fatalf("fresh canary corrupt at %#x", addr)
	}
	if err := h.M.Mem.Write64(buf.Start+8192, 666); err != nil {
		t.Fatal(err)
	}
	if addr, _ := h.CheckCanary(buf, 0x1234); addr != buf.Start+8192 {
		t.Fatalf("corruption not found, got %#x", addr)
	}
}

func TestEnclaveDestroyReclaims(t *testing.T) {
	h := newTestHost(t)
	free0 := h.EnclaveLedger.FreeBytes(0)
	enc, _ := bootEnclave(t, h, "lwk0", 2, []int{0}, 128<<20)
	if h.EnclaveLedger.FreeBytes(0) >= free0 {
		t.Fatal("enclave consumed no memory")
	}
	if err := h.Pisces.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	if got := h.EnclaveLedger.FreeBytes(0); got != free0 {
		t.Errorf("free after destroy = %d, want %d", got, free0)
	}
	if enc.State() != pisces.StateStopped {
		t.Errorf("state = %v", enc.State())
	}
}
