package supervisor

import (
	"runtime"
	"sync/atomic"
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/kitten"
	"covirt/internal/nautilus"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// buildKitten boots a supervised two-core Kitten guest with full Covirt
// protection (double faults must be contained, not crash the machine).
func buildKitten(t *testing.T, g testbed.Guest) *testbed.Node {
	t.Helper()
	g.Kind = testbed.Kitten
	if g.Cores == 0 {
		g.Cores = 2
	}
	if g.Nodes == nil {
		g.Nodes = []int{0}
	}
	if g.MemBytes == 0 {
		g.MemBytes = 256 << 20
	}
	g.Heartbeat = true
	tb, err := testbed.Spec{
		Covirt:   true,
		Features: covirt.FeaturesAll,
		Guests:   []testbed.Guest{g},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

// crash injects a contained double fault and waits for teardown to begin.
func crash(t *testing.T, tb *testbed.Node) {
	t.Helper()
	be := tb.Encs[0]
	if _, err := be.Kitten.Spawn("crash", 0, func(e *kitten.Env) error {
		return e.CPU.RaiseDoubleFault("injected")
	}); err != nil {
		t.Fatal(err)
	}
	<-be.Enc.Done()
}

// scanUntil drives the watchdog until cond holds, with a generous bound.
func scanUntil(t *testing.T, sup *Supervisor, name string, cond func(Status) bool) Status {
	t.Helper()
	for i := 0; i < 256; i++ {
		if err := sup.Scan(); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if st, ok := sup.Status(name); ok && cond(st) {
			return st
		}
		runtime.Gosched()
	}
	st, _ := sup.Status(name)
	t.Fatalf("condition not reached after 256 scans; status %+v", st)
	return Status{}
}

// TestCrashRestartLoop is the headline recovery path: a guest crashes mid
// workload, the supervisor restarts it from its declaration, and the
// workload reruns to completion on the replacement.
func TestCrashRestartLoop(t *testing.T) {
	tb := buildKitten(t, testbed.Guest{Name: "victim"})
	buf := tb.EnableTracing(1024)
	sup := New(tb, Options{Tracer: buf})
	if err := sup.Watch(tb.Encs[0], Policy{MaxRestarts: 2}); err != nil {
		t.Fatal(err)
	}
	oldID := tb.Encs[0].Enc.ID

	// A workload is provably in flight on the second core when the crash
	// hits; it computes until the teardown kills its CPU.
	started := make(chan struct{})
	work, err := tb.Encs[0].Kitten.Spawn("work", 1, func(e *kitten.Env) error {
		close(started)
		for {
			e.Compute(1_000_000)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	crash(t, tb)
	if work.Wait() == nil {
		t.Error("mid-crash workload reported success")
	}

	st := scanUntil(t, sup, "victim", func(st Status) bool {
		return st.State == Healthy && st.Restarts == 1
	})
	if st.Failures != 1 || st.RecoveredAt <= st.DetectedAt {
		t.Errorf("recovery accounting: %+v", st)
	}
	newEnc := tb.Encs[0].Enc
	if newEnc.ID == oldID {
		t.Error("restart reused the dead enclave")
	}
	if st.EnclaveID != newEnc.ID {
		t.Errorf("watch tracks enclave %d, testbed has %d", st.EnclaveID, newEnc.ID)
	}

	// The workload reruns to completion on the replacement kernel.
	rerun, err := tb.Encs[0].Kitten.Spawn("rerun", 1, func(e *kitten.Env) error {
		e.Compute(1 << 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rerun.Wait(); err != nil {
		t.Fatalf("post-recovery workload: %v", err)
	}

	for _, kind := range []string{"sup:detect", "sup:restart", "sup:recovered"} {
		if len(buf.Filter(kind)) == 0 {
			t.Errorf("trace missing %q events", kind)
		}
	}
}

// TestBudgetExhaustionQuarantines runs the budget out: one restart is
// granted, the second failure escalates. The enclave pool must end up
// empty — the dead guest's exact cores and memory moved back to the host —
// so a same-sized enclave can no longer be created.
func TestBudgetExhaustionQuarantines(t *testing.T) {
	tb := buildKitten(t, testbed.Guest{Name: "victim"})
	buf := tb.EnableTracing(1024)
	sup := New(tb, Options{Tracer: buf})
	if err := sup.Watch(tb.Encs[0], Policy{MaxRestarts: 1}); err != nil {
		t.Fatal(err)
	}

	crash(t, tb)
	scanUntil(t, sup, "victim", func(st Status) bool {
		return st.State == Healthy && st.Restarts == 1
	})
	crash(t, tb)
	st := scanUntil(t, sup, "victim", func(st Status) bool {
		return st.State == Quarantined
	})
	if st.Failures != 2 || st.Restarts != 1 {
		t.Errorf("exhaustion accounting: %+v", st)
	}
	if len(buf.Filter("sup:quarantined")) == 0 {
		t.Error("quarantine not traced")
	}

	// The pool is drained: the offlined resources went back to the host.
	_, err := tb.Host.Pisces.CreateEnclave(pisces.EnclaveSpec{
		Name: "replacement", NumCores: 2, Nodes: []int{0}, MemBytes: 256 << 20,
	})
	if err == nil {
		t.Fatal("enclave pool still holds quarantined resources")
	}
	// And the host owns them again: offlining the quarantined cores
	// succeeds only for host-owned cores.
	quarantined := tb.Encs[0].Enc.Cores
	if err := tb.Host.OfflineCores(quarantined...); err != nil {
		t.Errorf("quarantined cores not returned to host: %v", err)
	}
}

// TestZeroBudgetDegradesToTeardown: with no restart budget the first
// failure goes straight to quarantine — the enclave is torn down and
// reclaimed exactly as an unsupervised crash, with no reboot attempted.
func TestZeroBudgetDegradesToTeardown(t *testing.T) {
	tb := buildKitten(t, testbed.Guest{Name: "victim"})
	sup := New(tb, Options{})
	if err := sup.Watch(tb.Encs[0], Policy{MaxRestarts: 0}); err != nil {
		t.Fatal(err)
	}
	crash(t, tb)
	st := scanUntil(t, sup, "victim", func(st Status) bool {
		return st.State == Quarantined
	})
	if st.Restarts != 0 || st.Failures != 1 {
		t.Errorf("zero-budget accounting: %+v", st)
	}
	if tb.Encs[0].Enc.State() != pisces.StateCrashed {
		t.Errorf("enclave state %v, want crashed", tb.Encs[0].Enc.State())
	}
}

// TestLateCrashReportAfterQuarantine pins the quarantine hand-off: once
// scheduleFailures has consumed a watch's final failure, the late
// EvEnclaveCrashed report for that same crash must not latch it again, or
// Settle would wait forever on a quarantined watch.
func TestLateCrashReportAfterQuarantine(t *testing.T) {
	tb := buildKitten(t, testbed.Guest{Name: "victim"})
	sup := New(tb, Options{})
	if err := sup.Watch(tb.Encs[0], Policy{MaxRestarts: 0}); err != nil {
		t.Fatal(err)
	}
	crash(t, tb)
	id := tb.Encs[0].Enc.ID
	sup.latchCrash(id, "observed terminal state")
	quarantines := sup.scheduleFailures(1)
	if len(quarantines) != 1 {
		t.Fatalf("scheduleFailures returned %d quarantines, want 1", len(quarantines))
	}
	sup.latchCrash(id, "late bus report")
	if err := sup.quarantine(quarantines[0], 1); err != nil {
		t.Fatal(err)
	}
	if !sup.settled() {
		st, _ := sup.Status("victim")
		t.Fatalf("quarantined watch not settled: %+v", st)
	}
}

// waitHung blocks until name's current incarnation is convictable: its
// boot core has run MissedBeats timer periods past the last heartbeat (or,
// before the first beat, past the watch's baseline) — the predicate
// hungWatches applies. Waiting on simulated state pins the verdict to the
// next scan however late the host schedules the guest thread.
func waitHung(sup *Supervisor, name string) {
	for {
		enc, ref, thresh := hangBaseline(sup, name)
		hb := enc.Base() + pisces.OffHeartbeat
		if count, err := sup.io.Read64(hb + pisces.HbCount); err == nil && count > 0 {
			if ref, err = sup.io.Read64(hb + pisces.HbTSC); err != nil {
				return
			}
		}
		if tsc := enc.BootCPU().TSCSnapshot(); tsc > ref && tsc-ref >= thresh {
			return
		}
		runtime.Gosched()
	}
}

// hangBaseline returns name's current enclave, the watch's pre-beat
// reference TSC, and its conviction threshold.
func hangBaseline(sup *Supervisor, name string) (*pisces.Enclave, uint64, uint64) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	for _, w := range sup.watches {
		if w.be.Guest.Name == name {
			return w.be.Enc, w.baseTSC, sup.hangThreshold()
		}
	}
	panic("supervisor: no watch named " + name)
}

// TestNautilusRecurringHang exercises the watchdog across the second
// co-kernel architecture: a Nautilus boot thread locks up with interrupts
// disabled, the heartbeat gap convicts it, and because the replacement
// locks up again the single-restart budget runs out and the enclave is
// quarantined. Each incarnation stalls only once the watch covers it, and
// the test waits for each stall before scanning.
func TestNautilusRecurringHang(t *testing.T) {
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var stall uint64 // set before the first gate opens
	var boots atomic.Int32
	entry := func(env *nautilus.Env, rank int) error {
		if rank != 0 {
			return nil
		}
		<-gates[boots.Add(1)-1]
		return env.CPU.StallNoIRQ(stall)
	}
	tb, err := testbed.Spec{
		Covirt:   true,
		Features: covirt.FeaturesAll,
		Guests: []testbed.Guest{{
			Name: "naut", Kind: testbed.Nautilus, Entry: entry,
			Cores: 2, Nodes: []int{0}, MemBytes: 256 << 20, Heartbeat: true,
		}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	buf := tb.EnableTracing(1024)
	sup := New(tb, Options{Tracer: buf})
	if err := sup.Watch(tb.Encs[0], Policy{MaxRestarts: 1}); err != nil {
		t.Fatal(err)
	}
	stall = 8 * tb.M.Costs.TimerIntervalCycles
	close(gates[0])
	waitHung(sup, "naut")
	scanUntil(t, sup, "naut", func(st Status) bool {
		return st.State == Healthy && st.Restarts == 1
	})
	close(gates[1]) // the replacement hangs too, after its watch rebinds
	waitHung(sup, "naut")
	st := scanUntil(t, sup, "naut", func(st Status) bool {
		return st.State == Quarantined
	})
	if st.Restarts != 1 || st.Failures != 2 {
		t.Errorf("recurring-hang accounting: %+v", st)
	}
	if boots.Load() != 2 {
		t.Errorf("entry booted %d times, want 2", boots.Load())
	}
	if len(buf.Filter("sup:hang")) == 0 {
		t.Error("hang verdicts not traced")
	}
}

// TestHeartbeatStress races continuous guest heartbeats and a busy
// neighbour's crash handling against watchdog scans (run under -race in
// CI). A guest doing real work in small charged ops must never be
// convicted: beats keep pace with its TSC.
func TestHeartbeatStress(t *testing.T) {
	tb, err := testbed.Spec{
		Covirt:   true,
		Features: covirt.FeaturesAll,
		Guests: []testbed.Guest{
			{Name: "worker", Kind: testbed.Kitten, Cores: 2, Nodes: []int{0}, MemBytes: 256 << 20, Heartbeat: true},
			{Name: "crasher", Kind: testbed.Kitten, Cores: 1, Nodes: []int{1}, MemBytes: 128 << 20, Heartbeat: true},
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	sup := New(tb, Options{})
	for _, be := range tb.Encs {
		if err := sup.Watch(be, Policy{MaxRestarts: 4}); err != nil {
			t.Fatal(err)
		}
	}

	// The worker beats from its boot core while charging many small ops.
	work, err := tb.Encs[0].Kitten.Spawn("busy", 0, func(e *kitten.Env) error {
		for i := 0; i < 2000; i++ {
			e.Compute(1_000_000)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The neighbour crashes while scans are in flight.
	if _, err := tb.Encs[1].Kitten.Spawn("die", 0, func(e *kitten.Env) error {
		return e.CPU.RaiseDoubleFault("stress")
	}); err != nil {
		t.Fatal(err)
	}

	workDone := make(chan error, 1)
	go func() { workDone <- work.Wait() }()
	recovered, finished := false, false
	for i := 0; i < 1<<20 && !(recovered && finished); i++ {
		if err := sup.Scan(); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if st, ok := sup.Status("crasher"); ok && st.Restarts >= 1 && st.State == Healthy {
			recovered = true
		}
		select {
		case err := <-workDone:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			finished = true
		default:
			runtime.Gosched()
		}
	}
	if !recovered || !finished {
		t.Fatalf("stress loop incomplete: recovered=%v finished=%v", recovered, finished)
	}
	if st, _ := sup.Status("worker"); st.Failures != 0 || st.State != Healthy {
		t.Errorf("busy worker falsely convicted: %+v", st)
	}
}

// TestWatchRejectsDuplicates covers the registration guard.
func TestWatchRejectsDuplicates(t *testing.T) {
	tb := buildKitten(t, testbed.Guest{Name: "victim"})
	sup := New(tb, Options{})
	if err := sup.Watch(tb.Encs[0], Policy{}); err != nil {
		t.Fatal(err)
	}
	if err := sup.Watch(tb.Encs[0], Policy{}); err == nil {
		t.Error("duplicate watch accepted")
	}
	if got := len(sup.Statuses()); got != 1 {
		t.Errorf("statuses = %d, want 1", got)
	}
}

// TestJitterIsDeterministicPerSeed: the same seed yields the same restart
// schedule; different seeds may differ but stay within the jitter bound.
func TestJitterIsDeterministicPerSeed(t *testing.T) {
	restartAt := func(seed uint64) uint64 {
		tb := buildKitten(t, testbed.Guest{Name: "victim"})
		sup := New(tb, Options{Seed: seed})
		pol := Policy{MaxRestarts: 1, JitterPct: 50}
		if err := sup.Watch(tb.Encs[0], pol); err != nil {
			t.Fatal(err)
		}
		crash(t, tb)
		st := scanUntil(t, sup, "victim", func(st Status) bool {
			return st.State == PendingRestart
		})
		return st.RestartAt
	}
	a, b := restartAt(7), restartAt(7)
	if a != b {
		t.Errorf("same seed, different schedule: %d != %d", a, b)
	}
	base := uint64(0)
	tbProbe := buildKitten(t, testbed.Guest{Name: "victim"})
	base = New(tbProbe, Options{}).ScanInterval()
	// detect at scan 1 (clock = base), backoff base = one interval, jitter
	// adds at most 50%: restartAt in [2*base, 2.5*base].
	if a < 2*base || a > 2*base+base/2 {
		t.Errorf("restartAt %d outside jitter bounds [%d, %d]", a, 2*base, 2*base+base/2)
	}
}
