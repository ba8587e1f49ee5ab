package pisces_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// stubKernel is a minimal Bootable that services the control ring from an
// idle loop, accepting or rejecting commands per configuration.
type stubKernel struct {
	acceptMem bool

	bc      *pisces.BootContext
	stopped atomic.Bool
	wg      sync.WaitGroup
	booted  bool

	mu     sync.Mutex
	memAdd []hw.Extent

	ctl pisces.CtlDrain
}

func newStubKernel(acceptMem bool) *stubKernel {
	return &stubKernel{acceptMem: acceptMem}
}

func (s *stubKernel) Boot(bc *pisces.BootContext) error {
	s.bc = bc
	s.booted = true
	for _, id := range bc.Params.Cores {
		cpu := bc.Machine.CPU(id)
		cpu.SetIRQHandler(func(c *hw.CPU, vector uint8, external bool) {
			enc := s.bc.Enclave
			if vector == pisces.VectorCtl && s.ctl.Serve(c, enc.CtlReq, enc.CtlResp, s.accept) {
				go s.Shutdown()
			}
		})
		s.wg.Add(1)
		go func(c *hw.CPU) {
			defer s.wg.Done()
			for !s.stopped.Load() {
				if err := c.Idle(s.stopped.Load); err != nil {
					return
				}
			}
		}(cpu)
	}
	return nil
}

// accept applies one control command: pings always, memory changes only
// when the stub accepts them.
func (s *stubKernel) accept(m *pisces.Msg) bool {
	switch m.Type {
	case pisces.CmdPing:
		return true
	case pisces.CmdMemAdd:
		if s.acceptMem {
			s.recordMemAdd()
		}
		return s.acceptMem
	case pisces.CmdMemRemove:
		return s.acceptMem
	}
	return false
}

func (s *stubKernel) Shutdown() {
	s.stopped.Store(true)
	if s.bc != nil {
		for _, cpu := range s.bc.Enclave.CPUs() {
			cpu.Wake()
		}
	}
}

func (s *stubKernel) Quiesce() { s.wg.Wait() }

func (s *stubKernel) recordMemAdd() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memAdd = append(s.memAdd, hw.Extent{})
}

// fwFixture builds a host with donated resources via the testbed layer and
// hands back the machine plus its Pisces framework.
func fwFixture(t *testing.T) (*hw.Machine, *pisces.Framework) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	var cores []int
	offMem := make(map[int]uint64)
	for n := 0; n < spec.NumNodes; n++ {
		for c := 1; c < spec.CoresPerNode; c++ {
			cores = append(cores, n*spec.CoresPerNode+c)
		}
		offMem[n] = 1 << 30
	}
	node, err := testbed.Spec{
		Machine:      spec,
		OfflineCores: cores,
		OfflineMem:   offMem,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return node.M, node.Host.Pisces
}

func TestCreateEnclaveValidation(t *testing.T) {
	_, fw := fwFixture(t)
	if _, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "x", NumCores: 0, MemBytes: 1 << 20}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "x", NumCores: 1}); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "x", NumCores: 50, MemBytes: 1 << 20}); err == nil {
		t.Error("impossible core count accepted")
	}
	if _, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "x", NumCores: 1, MemBytes: 1 << 45}); err == nil {
		t.Error("impossible memory accepted")
	}
	// Resources from failed creations were rolled back.
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "ok", NumCores: 5, Nodes: []int{0}, MemBytes: 1 << 30})
	if err != nil {
		t.Fatalf("rollback leaked resources: %v", err)
	}
	if fw.Enclave(enc.ID) != enc {
		t.Error("lookup failed")
	}
	if len(fw.Enclaves()) != 1 {
		t.Error("enclave list wrong")
	}
}

func TestBootStateMachine(t *testing.T) {
	_, fw := fwFixture(t)
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "sm", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if enc.State() != pisces.StateCreated {
		t.Fatalf("state = %v", enc.State())
	}
	// Operations on a non-running enclave fail.
	if _, err := fw.AddMemory(enc, 0, 1<<20); err == nil {
		t.Error("AddMemory on created enclave accepted")
	}
	if _, err := fw.AddCPU(enc, 0); err == nil {
		t.Error("AddCPU on created enclave accepted")
	}
	k := newStubKernel(true)
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	if enc.State() != pisces.StateRunning {
		t.Fatalf("state = %v", enc.State())
	}
	// Double boot is rejected.
	if err := fw.Boot(enc, newStubKernel(true)); err == nil {
		t.Error("double boot accepted")
	}
	if err := fw.Ping(enc); err != nil {
		t.Fatal(err)
	}
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	if enc.State() != pisces.StateStopped {
		t.Fatalf("state = %v", enc.State())
	}
	// Idempotent destroy.
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	select {
	case <-enc.Reclaimed():
	default:
		t.Error("reclaimed channel not closed after destroy")
	}
}

func TestBootPreEventAbortsBoot(t *testing.T) {
	_, fw := fwFixture(t)
	sentinel := errors.New("veto")
	fw.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind == pisces.EvEnclaveBootPre {
			return sentinel
		}
		return nil
	})
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "veto", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Boot(enc, newStubKernel(true)); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if enc.State() != pisces.StateCreated {
		t.Errorf("state after vetoed boot = %v", enc.State())
	}
}

// failingInterposer rejects interposition on a specific core.
type failingInterposer struct{}

func (failingInterposer) InterposeBoot(enc *pisces.Enclave, cpu *hw.CPU, bpAddr uint64) error {
	return fmt.Errorf("no VMX on core %d", cpu.ID)
}

func TestInterposerFailureAbortsBoot(t *testing.T) {
	_, fw := fwFixture(t)
	fw.SetInterposer(failingInterposer{})
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "novmx", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Boot(enc, newStubKernel(true)); err == nil {
		t.Fatal("boot succeeded despite interposer failure")
	}
	if enc.State() != pisces.StateCreated {
		t.Errorf("state = %v", enc.State())
	}
}

func TestMemAddRejectionRollsBack(t *testing.T) {
	_, fw := fwFixture(t)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "nomem", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err := fw.Boot(enc, newStubKernel(false)); err != nil { // rejects mem ops
		t.Fatal(err)
	}
	defer fw.Destroy(enc)
	free := fw.Ledger.FreeBytes(0)
	var sawRollback bool
	fw.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind == pisces.EvMemRemovePost {
			sawRollback = true
		}
		return nil
	})
	if _, err := fw.AddMemory(enc, 0, 32<<20); err == nil {
		t.Fatal("rejected mem-add reported success")
	}
	if got := fw.Ledger.FreeBytes(0); got != free {
		t.Errorf("free bytes %d -> %d: extent leaked", free, got)
	}
	if !sawRollback {
		t.Error("no compensating unmap event emitted")
	}
	if len(enc.Mem()) != 1 {
		t.Errorf("enclave mem = %v", enc.Mem())
	}
}

func TestRemoveMemoryValidation(t *testing.T) {
	_, fw := fwFixture(t)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "rm", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err := fw.Boot(enc, newStubKernel(true)); err != nil {
		t.Fatal(err)
	}
	defer fw.Destroy(enc)
	// The boot extent (index 0) can never be removed.
	if err := fw.RemoveMemory(enc, enc.Mem()[0]); err == nil {
		t.Error("boot extent removal accepted")
	}
	// An extent the enclave does not own cannot be removed.
	if err := fw.RemoveMemory(enc, hw.Extent{Start: 0x1000, Size: 0x1000}); err == nil {
		t.Error("foreign extent removal accepted")
	}
}

// removeFixture boots a stub enclave, grows it by n 2 MiB extents, and
// subscribes a handler that rejects the EvMemRemovePost of reject. It
// returns the added extents and the extent of every EvMemRemovePost seen
// from then on; an EvIngestFlush, the closer of an aborted batch, is
// recorded as a zero extent.
func removeFixture(t *testing.T, n int, reject int, sentinel error) (*pisces.Framework, *pisces.Enclave, []hw.Extent, *[]hw.Extent) {
	t.Helper()
	_, fw := fwFixture(t)
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "rmfail", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Boot(enc, newStubKernel(true)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fw.Destroy(enc) })
	var exts []hw.Extent
	for i := 0; i < n; i++ {
		ext, err := fw.AddMemory(enc, 0, hw.PageSize2M)
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext)
	}
	var seen []hw.Extent
	fw.Bus.Subscribe(func(ev *pisces.Event) error {
		switch ev.Kind {
		case pisces.EvIngestFlush:
			seen = append(seen, hw.Extent{})
		case pisces.EvMemRemovePost:
			seen = append(seen, ev.Extents...)
			if slices.Contains(ev.Extents, exts[reject]) {
				return sentinel
			}
		}
		return nil
	})
	return fw, enc, exts, &seen
}

// TestRemoveMemoryBatchReclaimsOnlyUnmapped has a protection layer reject
// the unmap event of the second of three extents. Only the first extent,
// whose unmap succeeded, may return to the ledger. The rejected extent has
// left the enclave but stays out of the ledger: its frames may still be
// mapped. The third extent was never touched and stays with the enclave,
// and an EvIngestFlush flushes what the batch had already unmapped.
func TestRemoveMemoryBatchReclaimsOnlyUnmapped(t *testing.T) {
	sentinel := errors.New("unmap failed")
	fw, enc, exts, seen := removeFixture(t, 3, 1, sentinel)
	free := fw.Ledger.FreeBytes(0)
	if err := fw.RemoveMemoryBatch(enc, exts); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the handler's rejection", err)
	}
	if want := []hw.Extent{exts[0], exts[1], {}}; !slices.Equal(*seen, want) {
		t.Errorf("remove events = %v, want %v (the last an ingest flush)", *seen, want)
	}
	if got := fw.Ledger.FreeBytes(0); got != free+exts[0].Size {
		t.Errorf("ledger grew by %d bytes, want %d (extent 1 only)", got-free, exts[0].Size)
	}
	if err := fw.Ledger.Reserve(exts[0]); err != nil {
		t.Errorf("extent 1 not back in the ledger: %v", err)
	}
	if err := fw.Ledger.Reserve(exts[1]); err == nil {
		t.Error("rejected extent 2 was reclaimed")
	}
	mem := enc.Mem()
	if slices.Contains(mem, exts[0]) || slices.Contains(mem, exts[1]) {
		t.Errorf("enclave still holds a relinquished extent: %v", mem)
	}
	if !slices.Contains(mem, exts[2]) {
		t.Errorf("extent 3 left the enclave: %v", mem)
	}
}

// TestRemoveMemoryRejectedReclaimsNothing removes one extent whose unmap
// event a protection layer rejects: the error surfaces and the extent
// does not return to the ledger.
func TestRemoveMemoryRejectedReclaimsNothing(t *testing.T) {
	sentinel := errors.New("unmap failed")
	fw, enc, exts, _ := removeFixture(t, 1, 0, sentinel)
	free := fw.Ledger.FreeBytes(0)
	if err := fw.RemoveMemory(enc, exts[0]); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the handler's rejection", err)
	}
	if got := fw.Ledger.FreeBytes(0); got != free {
		t.Errorf("ledger grew by %d bytes, want 0", got-free)
	}
	if err := fw.Ledger.Reserve(exts[0]); err == nil {
		t.Error("rejected extent was reclaimed")
	}
}

func TestReportCrashIsIdempotentAndReclaims(t *testing.T) {
	m, fw := fwFixture(t)
	free := fw.Ledger.FreeBytes(0)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "crash", NumCores: 2, Nodes: []int{0}, MemBytes: 64 << 20})
	k := newStubKernel(true)
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	var crashes int
	fw.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind == pisces.EvEnclaveCrashed {
			crashes++
		}
		return nil
	})
	fw.ReportCrash(enc, "bang")
	fw.ReportCrash(enc, "bang again") // second report is a no-op
	if crashes != 1 {
		t.Errorf("crash events = %d", crashes)
	}
	if enc.CrashReason() != "bang" {
		t.Errorf("reason = %q", enc.CrashReason())
	}
	<-enc.Reclaimed()
	if got := fw.Ledger.FreeBytes(0); got != free {
		t.Errorf("free bytes = %d, want %d", got, free)
	}
	// The cores really came back: a new enclave can use them.
	enc2, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "next", NumCores: 2, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Boot(enc2, newStubKernel(true)); err != nil {
		t.Fatal(err)
	}
	_ = fw.Destroy(enc2)
	_ = m
}

// bootCrasher boots like stubKernel, then faults before Boot returns, as
// an early-bringup bug in a boot thread does.
type bootCrasher struct {
	*stubKernel
	crash func()
}

func (b bootCrasher) Boot(bc *pisces.BootContext) error {
	if err := b.stubKernel.Boot(bc); err != nil {
		return err
	}
	b.crash()
	return nil
}

// TestCrashDuringBootStaysCrashed: a crash reported while the framework is
// still booting the enclave must leave it crashed, not running, so that
// Destroy finds it already torn down.
func TestCrashDuringBootStaysCrashed(t *testing.T) {
	_, fw := fwFixture(t)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "early", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	k := bootCrasher{newStubKernel(true), func() { fw.ReportCrash(enc, "bringup fault") }}
	if err := fw.Boot(enc, k); err != nil {
		t.Fatal(err)
	}
	if st := enc.State(); st != pisces.StateCrashed {
		t.Fatalf("state after a crash during boot = %v, want crashed", st)
	}
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
}

func TestIoctlRegistry(t *testing.T) {
	_, fw := fwFixture(t)
	called := false
	if err := fw.RegisterIoctl(0x42, func(arg any) (any, error) {
		called = true
		return arg, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterIoctl(0x42, nil); err == nil {
		t.Error("duplicate ioctl registration accepted")
	}
	out, err := fw.Ioctl(0x42, "echo")
	if err != nil || out != "echo" || !called {
		t.Errorf("ioctl = %v, %v", out, err)
	}
	if _, err := fw.Ioctl(0x99, nil); err == nil {
		t.Error("unknown ioctl accepted")
	}
}

func TestEnclaveAccessors(t *testing.T) {
	_, fw := fwFixture(t)
	enc, _ := fw.CreateEnclave(pisces.EnclaveSpec{Name: "acc", NumCores: 2, Nodes: []int{0}, MemBytes: 64 << 20})
	if !enc.OwnsAddr(enc.Base()) || !enc.OwnsAddr(enc.Mem()[0].End()-1) {
		t.Error("OwnsAddr false for own memory")
	}
	if enc.OwnsAddr(0x10) {
		t.Error("OwnsAddr true for foreign memory")
	}
	if enc.BootCPU() == nil || len(enc.CPUs()) != 2 {
		t.Error("CPU accessors wrong")
	}
	for _, s := range []pisces.State{pisces.StateCreated, pisces.StateBooting, pisces.StateRunning, pisces.StateCrashed, pisces.StateStopped, pisces.State(99)} {
		if s.String() == "" {
			t.Errorf("state %d unnamed", s)
		}
	}
}
