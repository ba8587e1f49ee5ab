package kitten

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"covirt/internal/hw"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
)

// TestSyscallAnswerDuringLook lands the host's answer, and its doorbell,
// inside the caller's first look at the response ring: after the look has
// read the ring's head, before the look returns. The look then reports the
// ring empty while the doorbell that should end the caller's idle wait is
// already taken. The call must still return its answer. Only a ring whose
// looks take no lock admits this interleaving: a ring lock held across the
// look would keep the host's push out until the look returned.
//
// The interleaving is forced, not raced for. The host's handler for the
// test's call blocks until released. An NMI handler and an IPI handler
// pass a token from poll to poll (an NMI raised in an interrupt handler is
// taken at the next poll; an IPI raised in an NMI handler in the same
// one), so the IPI handler runs once at every poll of the call. It waits
// for the first poll after the request's head store, skips it (the
// push's own), and at the next one, the look's head read, releases the
// host and waits for the doorbell before returning.
func TestSyscallAnswerDuringLook(t *testing.T) {
	const (
		nr     uint32 = 0x7e57
		vector uint8  = 0x64
	)
	host, _, enc, k := testStack(t, 1, []int{0}, 64<<20)
	release, answered := make(chan struct{}), make(chan struct{})
	host.RegisterLongcall(nr, func(_ *linuxhost.Host, _ *pisces.Enclave, _, resp *pisces.Msg) uint64 {
		<-release
		binary.LittleEndian.PutUint64(resp.Payload[pisces.LcRespStatus:], pisces.LcOK)
		return 0
	})
	mem := host.M.Mem
	reqHead := func() uint64 {
		v, err := mem.Read64(enc.Base() + pisces.OffLcReqRing)
		if err != nil {
			t.Error(err)
		}
		return v
	}

	cpu := enc.BootCPU()
	pushed, skipped := false, false
	k.OnIPI(vector, func(e *Env) {
		switch {
		case !pushed:
			pushed = reqHead() == 1
		case !skipped:
			skipped = true
		default:
			close(release)
			for !e.CPU.APIC.HasPending() { // the answer's doorbell
				runtime.Gosched()
			}
			close(answered)
			return // the token stops here
		}
		e.CPU.APIC.RaiseNMI()
	})
	cpu.SetNMIHandler(func(c *hw.CPU) { c.APIC.Raise(vector, false) })

	task, err := k.Spawn("call", 0, func(e *Env) error {
		e.Compute(0) // take the spawn doorbell first
		e.CPU.APIC.RaiseNMI()
		_, _, err := e.Syscall(nr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- task.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("syscall: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("syscall still waiting 30 s after its answer's doorbell was taken")
	}
	select {
	case <-answered:
	default:
		t.Fatal("the answer never landed inside a look")
	}
}
