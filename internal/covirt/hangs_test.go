package covirt_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// The tests in this file pin the host–guest hand-offs that a faulting or
// forging guest could once leave parked for good. Each runs the guest's
// fault and then requires the host call, and the enclave's teardown, to
// finish within 30 s.

// within runs f on its own goroutine and fails the test unless f returns
// within 30 s.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still blocked after 30 s", what)
	}
}

// nodeRig builds the rig's node with Covirt attached or not; defaults are
// the controller's feature set when it is.
func nodeRig(t *testing.T, withCovirt bool, defaults covirt.Features) *rig {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	node, err := testbed.Spec{
		Machine:      spec,
		OfflineCores: []int{1, 2, 3, 7, 8, 9},
		OfflineMem:   map[int]uint64{0: 512 << 20, 1: 512 << 20},
		Covirt:       withCovirt,
		Features:     defaults,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &rig{node: node, h: node.Host, ctrl: node.Ctrl}
}

// contained checks that a dead enclave cost only itself: its teardown
// completes, every one of its cores is back in the enclave ledger, and the
// bystander kernel still completes a task.
func contained(t *testing.T, r *rig, enc *pisces.Enclave, cores []int, bystander *kitten.Kernel) {
	t.Helper()
	select {
	case <-enc.Reclaimed():
	case <-time.After(30 * time.Second):
		t.Fatalf("enclave %d (%s) not reclaimed 30 s after it died", enc.ID, enc.State())
	}
	for _, c := range cores {
		if !r.h.EnclaveLedger.WithdrawCore(c) {
			t.Errorf("core %d is not back in the ledger", c)
			continue
		}
		r.h.EnclaveLedger.FreeCores([]int{c})
	}
	if r.h.M.Crashed() {
		t.Fatal("node crashed")
	}
	task, err := bystander.Spawn("alive", 0, func(e *kitten.Env) error { e.Compute(100); return nil })
	if err != nil {
		t.Fatal(err)
	}
	within(t, "bystander task", func() {
		if err := task.Wait(); err != nil {
			t.Errorf("bystander task: %v", err)
		}
	})
}

// TestForgedCtlRingHeaderContained: the control rings lie in the
// enclave's reserved area, which its co-kernel may write. A request-ring
// tail forged to 1<<40 once made the head-tail distance wrap to a full
// ring, so Ping parked in Ring.Push holding the enclave's control lock and
// Destroy then parked on that lock, with the enclave still running. The
// host must instead find the header corrupt, fail the call and crash the
// forger.
func TestForgedCtlRingHeaderContained(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "forger", 1, []int{0}, 128<<20)
	_, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)
	cores := slices.Clone(enc.Cores)
	tail := enc.Base() + pisces.OffCtlReqRing + 8
	task, _ := k.Spawn("forge", 0, func(e *kitten.Env) error { return e.RawWrite64(tail, 1<<40) })
	if err := task.Wait(); err != nil {
		t.Fatalf("forging the ring tail: %v", err)
	}
	within(t, "Ping", func() {
		if err := r.h.Pisces.Ping(enc); err == nil {
			t.Error("Ping over a forged ring header succeeded")
		}
	})
	if enc.State() != pisces.StateCrashed || !strings.Contains(enc.CrashReason(), "corrupt control-ring header") {
		t.Errorf("forger is %s (%q), want crashed with a corrupt control-ring header", enc.State(), enc.CrashReason())
	}
	within(t, "Destroy", func() { _ = r.h.Pisces.Destroy(enc) })
	contained(t, r, enc, cores, kB)
}

// TestForgedLongcallRingHeaderContained: the longcall service is the
// other host endpoint of the rings in the reserved area. A response-ring
// tail forged to 1<<40 once read as a full ring, so the service parked in
// its push until someone tore the enclave down, and nothing reported the
// forgery. The service must instead crash the forger.
func TestForgedLongcallRingHeaderContained(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "forger", 1, []int{0}, 128<<20)
	_, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)
	cores := slices.Clone(enc.Cores)
	tail := enc.Base() + pisces.OffLcRespRing + 8
	task, _ := k.Spawn("forge", 0, func(e *kitten.Env) error {
		if err := e.RawWrite64(tail, 1<<40); err != nil {
			return err
		}
		_, _, err := e.Syscall(pisces.SysGetPID)
		return err
	})
	within(t, "the forger's syscall", func() {
		if err := task.Wait(); err == nil {
			t.Error("a syscall answered over a forged response ring succeeded")
		}
	})
	// The guest's own look at the response ring can fail first; the
	// service finds the header when it pushes the answer.
	select {
	case <-enc.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("the forger is still running 30 s after the service met the forged header")
	}
	if enc.State() != pisces.StateCrashed || !strings.Contains(enc.CrashReason(), "corrupt longcall-ring header") {
		t.Errorf("forger is %s (%q), want crashed with a corrupt longcall-ring header", enc.State(), enc.CrashReason())
	}
	contained(t, r, enc, cores, kB)
}

// TestDestroyAfterBootCoreKilled: the boot core serves the control ring.
// Killed (here directly, as an interrupt handler's bug once did), it never
// acknowledges the shutdown command, and Destroy once waited for that ack
// without end. Destroy must fail the command and tear the enclave down.
func TestDestroyAfterBootCoreKilled(t *testing.T) {
	for _, tc := range []struct {
		name       string
		withCovirt bool
	}{
		{"native", false},
		{"covirt-none", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := nodeRig(t, tc.withCovirt, covirt.FeaturesNone)
			enc, _ := r.boot(t, "victim", 2, []int{0}, 128<<20)
			_, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)
			cores := slices.Clone(enc.Cores)
			enc.BootCPU().Kill()
			within(t, "Destroy", func() {
				if err := r.h.Pisces.Destroy(enc); err != nil {
					t.Errorf("Destroy: %v", err)
				}
			})
			if enc.State() != pisces.StateStopped {
				t.Errorf("enclave is %s after Destroy", enc.State())
			}
			contained(t, r, enc, cores, kB)
		})
	}
}

// TestTaskQueuedBehindKilledTaskFails: a task waiting in a core's queue
// while the task ahead of it kills the enclave must fail, not be left in
// the queue of a core loop that has exited. The core loop once chose at
// random between the shutdown and the queued task, and the queued task's
// Wait blocked in half of all runs; all 40 runs here must fail it.
func TestTaskQueuedBehindKilledTaskFails(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	_, kB := r.boot(t, "bystander", 1, []int{1}, 64<<20)
	for i := 0; i < 40; i++ {
		enc, k := r.boot(t, fmt.Sprintf("victim%d", i), 1, []int{0}, 64<<20)
		cores := slices.Clone(enc.Cores)
		release := make(chan struct{})
		first, err := k.Spawn("wild", 0, func(e *kitten.Env) error {
			<-release
			return e.RawWrite64(0x20, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		second, err := k.Spawn("queued", 0, func(e *kitten.Env) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		within(t, "the killed task's Wait", func() {
			if err := first.Wait(); !hw.IsFault(err, hw.FaultEnclaveKilled) {
				t.Errorf("run %d: wild task = %v, want an enclave kill", i, err)
			}
		})
		within(t, "the queued task's Wait", func() {
			if err := second.Wait(); err == nil {
				t.Errorf("run %d: task queued behind the kill returned nil", i)
			}
		})
		contained(t, r, enc, cores, kB)
	}
}

// TestTerminateInsideGuestRingAccess: a guest ring access polls for
// interrupts mid-access, and the interrupt it takes there may terminate
// the enclave. The terminate once tried to close the rings under the lock
// that access held, deadlocking the core's own goroutine: the task never
// returned and the enclave's cores were never reclaimed. Two guests take
// such an interrupt inside Syscall's push on the longcall request ring: an
// application IPI handler making a wild write, and the NMI doorbell of a
// command queue whose tail the guest forged.
func TestTerminateInsideGuestRingAccess(t *testing.T) {
	const vector = 0x63
	for _, tc := range []struct {
		name string
		// prime runs on the guest core before it parks; arm then makes the
		// interrupt pending while the core is parked on a host channel.
		prime func(r *rig, enc *pisces.Enclave, e *kitten.Env) error
		arm   func(t *testing.T, r *rig, enc *pisces.Enclave, ext hw.Extent)
	}{
		{
			name:  "ipi-handler-wild-write",
			prime: func(*rig, *pisces.Enclave, *kitten.Env) error { return nil },
			arm: func(_ *testing.T, r *rig, enc *pisces.Enclave, _ hw.Extent) {
				r.h.M.RouteIPI(-1, enc.Cores[0], vector)
			},
		},
		{
			name: "forged-cmdq-doorbell",
			prime: func(_ *rig, enc *pisces.Enclave, e *kitten.Env) error {
				return e.RawWrite64(enc.Base()+pisces.OffCovirtCmdQ+covirt.CmdQueueOffTail, 1<<40)
			},
			arm: func(t *testing.T, r *rig, enc *pisces.Enclave, ext hw.Extent) {
				// The unmap's push finds the forged header and rings the
				// doorbell, leaving the NMI pending on the parked core.
				ev := &pisces.Event{Kind: pisces.EvMemRemovePost, Enclave: enc, Extents: []hw.Extent{ext}}
				if err := r.h.Pisces.Bus.Emit(ev); err == nil {
					t.Error("unmap over a forged command-queue header succeeded")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, covirt.FeaturesMem)
			enc, k := r.boot(t, "victim", 1, []int{0}, 128<<20)
			_, kB := r.boot(t, "bystander", 1, []int{1}, 128<<20)
			cores := slices.Clone(enc.Cores)
			ext, err := r.h.Pisces.AddMemory(enc, 0, 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			k.OnIPI(vector, func(e *kitten.Env) { _ = e.RawWrite64(0x20, 1) })
			parked, release := make(chan struct{}), make(chan struct{})
			task, err := k.Spawn("syscall", 0, func(e *kitten.Env) error {
				if err := tc.prime(r, enc, e); err != nil {
					return err
				}
				e.Compute(0) // take the spawn doorbell before parking
				close(parked)
				<-release
				// The first poll of this call is in LcReq.Push.
				_, _, err := e.Syscall(pisces.SysGetPID)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			tc.arm(t, r, enc, ext)
			close(release)
			within(t, "the interrupted task", func() {
				if err := task.Wait(); err == nil {
					t.Error("the interrupted syscall returned nil")
				}
			})
			if enc.State() != pisces.StateCrashed {
				t.Errorf("enclave is %s", enc.State())
			}
			contained(t, r, enc, cores, kB)
		})
	}
}

// TestNodeCrashEndsEpochWait: an epoch waiter whose core never drains
// must leave its wait when the node crashes. The crash once woke the
// queue, but the wait re-checked only the enclave's death and the header
// and parked again, so the emit never returned. With the node down there
// is no teardown to check; the emit returning is the requirement.
func TestNodeCrashEndsEpochWait(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 1, []int{0}, 128<<20)
	ext, err := r.h.Pisces.AddMemory(enc, 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	stalling := make(chan struct{})
	if _, err := k.Spawn("stall", 0, func(e *kitten.Env) error {
		close(stalling)
		return e.CPU.StallNoIRQ(1)
	}); err != nil {
		t.Fatal(err)
	}
	<-stalling
	emitted := make(chan error, 1)
	go func() {
		emitted <- r.h.Pisces.Bus.Emit(&pisces.Event{Kind: pisces.EvMemRemovePost, Enclave: enc, Extents: []hw.Extent{ext}})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for r.ctrl.PendingCommands(enc, enc.Cores[0]) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the unmap never queued a shootdown for the stalled core")
		}
		runtime.Gosched()
	}
	r.h.M.Crash("test: node crash during a shootdown epoch")
	select {
	case <-emitted:
	case <-time.After(30 * time.Second):
		t.Fatal("the unmap's epoch wait outlived the node crash")
	}
}

// TestGoroutinesPerEnclave pins what a booted enclave on a Covirt node
// keeps running: its longcall service and one loop per core, nothing that
// only watches a channel. Goroutines started while booting inherit the
// boot's profiler label, so the count excludes everything else in the
// process.
func TestGoroutinesPerEnclave(t *testing.T) {
	for _, tc := range []struct{ cores, want int }{{1, 2}, {2, 3}} {
		t.Run(strconv.Itoa(tc.cores)+"-core", func(t *testing.T) {
			r := newRig(t, covirt.FeaturesMem)
			label := "enclave-" + t.Name()
			var enc *pisces.Enclave
			pprof.Do(context.Background(), pprof.Labels("boot", label), func(context.Context) {
				enc, _ = r.boot(t, "lwk", tc.cores, []int{0}, 128<<20)
			})
			deadline := time.Now().Add(30 * time.Second)
			got := labelledGoroutines(label)
			for got != tc.want && time.Now().Before(deadline) {
				runtime.Gosched()
				got = labelledGoroutines(label)
			}
			if got != tc.want {
				t.Errorf("%d-core enclave runs %d goroutines, want %d", tc.cores, got, tc.want)
			}
			if err := r.h.Pisces.Destroy(enc); err != nil {
				t.Fatal(err)
			}
			deadline = time.Now().Add(30 * time.Second)
			for labelledGoroutines(label) != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive Destroy", labelledGoroutines(label))
				}
				runtime.Gosched()
			}
		})
	}
}

// labelledGoroutines counts the live goroutines carrying the boot label
// value in the goroutine profile.
func labelledGoroutines(value string) int {
	var b bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		return -1
	}
	want := fmt.Sprintf("# labels: {%q:%q}", "boot", value)
	n, count := 0, 0
	for _, line := range strings.Split(b.String(), "\n") {
		if c, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(c)
		}
		if line == want {
			n += count
		}
	}
	return n
}

// TestTeardownChargesNoWakeNMI: a 2-core enclave runs one task and is
// destroyed, 40 times on fresh nodes. Shutdown once raised an NMI on every
// core only to wake idle loops; whichever core polled first paid the NMI
// handler and a VM exit and entry, so per-core cycles and NMI counts
// varied with host timing. Every run must now end in the same state, with
// no NMI taken.
func TestTeardownChargesNoWakeNMI(t *testing.T) {
	type outcome struct {
		tsc, nmis [2]uint64
	}
	var first outcome
	for i := 0; i < 40; i++ {
		r := newRig(t, covirt.FeaturesMem)
		enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)
		cpus := enc.CPUs()
		task, err := k.Spawn("work", 0, func(e *kitten.Env) error { e.Compute(1000); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := r.h.Pisces.Destroy(enc); err != nil {
			t.Fatal(err)
		}
		var got outcome
		for j, cpu := range cpus {
			got.tsc[j], got.nmis[j] = cpu.TSC, cpu.APIC.NMICount
		}
		if got.nmis != [2]uint64{} {
			t.Errorf("run %d: teardown NMIs %v, want none", i, got.nmis)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d ends at TSCs %v, run 0 at %v", i, got.tsc, first.tsc)
		}
	}
}
