// Package supervisor implements node-level enclave supervision and
// automated recovery. A Supervisor attaches to a testbed node's event bus
// and watches enclaves for two failure classes:
//
//   - hard crashes — the Pisces framework reports them on the bus
//     (EvEnclaveCrashed), e.g. a Covirt-contained double fault;
//   - soft hangs — the guest stops beating its shared-memory heartbeat
//     page while its boot core keeps consuming (or has stopped consuming
//     after a charged lockup) cycles.
//
// Detection is driven by an explicit watchdog Scan, not wall-clock time:
// each Scan advances a virtual hw.Clock by one scan interval — the
// machine's timer period, which is also the period the co-kernels beat at
// — and compares the boot core's published TSC against the last heartbeat
// stamp. Because an idle simulated core's TSC is frozen, idle is never
// mistaken for hung; only a core that charged cycles without beating (a
// spinning or interrupt-disabled lockup) accumulates a gap. The whole
// protocol is a pure function of the simulated machine history, so
// supervised runs stay byte-deterministic at any host parallelism.
//
// Reaction is governed by a per-enclave Policy: restarts with
// exponentially backed-off, jittered delays on the virtual clock (one scan
// interval doubling per failure, capped at maxBackoffScans scans), a
// finite restart budget, and terminal escalation to quarantine — the
// enclave's cores and memory are withdrawn from the enclave pool and
// permanently returned to the Linux host — once the budget is exhausted.
// Restarts go through testbed.Node.ReplaceGuest, so the rebuilt stack
// (Covirt features, IPI grants, on-boot hooks) is re-established exactly
// as the guest's declaration specifies.
package supervisor

import (
	"fmt"
	"sync"

	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
	"covirt/internal/trace"
)

// MissedBeats is the hang threshold: an enclave is declared hung once its
// boot core's TSC runs MissedBeats timer periods past the last heartbeat
// stamp.
const MissedBeats = 3

// maxBackoffScans caps the restart backoff, in scan intervals.
const maxBackoffScans = 8

// Policy configures supervision for one enclave.
type Policy struct {
	// MaxRestarts is the restart budget. Failure n (1-based) triggers a
	// restart while n <= MaxRestarts and quarantine once n exceeds it, so
	// a zero budget quarantines on the first failure: the enclave is torn
	// down and reclaimed exactly as without supervision, with its hardware
	// then returned to the host.
	MaxRestarts int
	// JitterPct adds up to this percentage of the backed-off delay, drawn
	// from the supervisor's deterministic seed, so co-scheduled enclaves
	// don't restart in lockstep.
	JitterPct int
}

// State is a supervised enclave's recovery state.
type State int

// Supervision states.
const (
	// Healthy: running, beating (if the guest declares a heartbeat), no
	// failure being handled.
	Healthy State = iota
	// PendingRestart: a failure was detected and a restart is scheduled on
	// the virtual clock.
	PendingRestart
	// Quarantined: the restart budget is exhausted; the scan that detected
	// the final failure returns the enclave's hardware to the host.
	// Terminal.
	Quarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case PendingRestart:
		return "pending-restart"
	case Quarantined:
		return "quarantined"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Status is a point-in-time view of one supervised enclave.
type Status struct {
	Name      string
	EnclaveID int
	State     State
	// Restarts counts completed restarts; Failures counts detected
	// failures (Failures > Restarts while a restart is pending, and
	// Failures = Restarts + 1 after quarantine).
	Restarts int
	Failures int
	// LastReason is the most recent failure cause.
	LastReason string
	// LastBeat is the heartbeat counter at the last scan (0 before the
	// first beat or for guests without a heartbeat).
	LastBeat uint64
	// DetectedAt/RecoveredAt/RestartAt are virtual-clock stamps of the
	// most recent detection, recovery, and scheduled restart deadline.
	DetectedAt  uint64
	RecoveredAt uint64
	RestartAt   uint64
}

// Options configures a Supervisor.
type Options struct {
	// Seed feeds the deterministic jitter source.
	Seed uint64
	// Tracer, when non-nil, receives sup:* records for every supervision
	// action (detect, restart, recovered, quarantined).
	Tracer *trace.Buffer
	// OnQuarantine, when non-nil, runs after an enclave's hardware has
	// been withdrawn to the host — the escalation point where a fleet
	// controller re-places the lost member on a surviving node. Called
	// without supervisor locks held, from the Scan goroutine.
	OnQuarantine func(guestName string)
}

// watch is the supervisor's per-enclave record.
type watch struct {
	be     *testbed.Enclave
	policy Policy

	state    State
	restarts int
	failures int

	// failed latches a crash report (bus event or observed terminal state)
	// until the next scan turns it into a detection.
	failed     bool
	lastReason string

	// baseTSC anchors the hang check before the first beat: the boot
	// core's TSC when the watch (re-)registered, so pre-boot cycle history
	// on a recycled core is not counted as missed beats.
	baseTSC  uint64
	lastBeat uint64

	detectedAt  uint64
	recoveredAt uint64
	restartAt   uint64
}

// Supervisor watches enclaves on one testbed node. Watch and Scan are the
// control surface; Scan must be driven from a single goroutine (the
// management plane), while crash events may latch concurrently from any
// bus emitter.
type Supervisor struct {
	// Clock is the supervision timeline: advanced one scan interval per
	// Scan, never by wall-clock time.
	Clock hw.Clock

	node         *testbed.Node
	tracer       *trace.Buffer
	io           pisces.NativeMemIO
	scanInterval uint64
	rng          hw.Rand
	onQuarantine func(guestName string)

	mu      sync.Mutex //covirt:guards watches,byEnc
	watches []*watch
	byEnc   map[int]*watch
}

// New attaches a supervisor to the node's event bus.
func New(n *testbed.Node, opt Options) *Supervisor {
	s := &Supervisor{
		node:         n,
		tracer:       opt.Tracer,
		io:           pisces.NativeMemIO{Mem: n.M.Mem},
		scanInterval: n.M.Costs.TimerIntervalCycles,
		rng:          hw.NewRand(opt.Seed),
		onQuarantine: opt.OnQuarantine,
		byEnc:        make(map[int]*watch),
	}
	n.Host.Pisces.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind == pisces.EvEnclaveCrashed && ev.Enclave != nil {
			s.latchCrash(ev.Enclave.ID, ev.Reason)
		}
		return nil
	})
	return s
}

// ScanInterval returns the virtual time one Scan represents: the machine's
// timer period.
func (s *Supervisor) ScanInterval() uint64 { return s.scanInterval }

// Watch registers be under p.
func (s *Supervisor) Watch(be *testbed.Enclave, p Policy) error {
	w := &watch{
		be:      be,
		policy:  p,
		baseTSC: be.Enc.BootCPU().TSCSnapshot(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byEnc[be.Enc.ID] != nil {
		return fmt.Errorf("supervisor: enclave %d already watched", be.Enc.ID)
	}
	s.watches = append(s.watches, w)
	s.byEnc[be.Enc.ID] = w
	return nil
}

// hangThreshold is the heartbeat gap, in boot-core cycles, that convicts an
// enclave as hung: MissedBeats beat periods, a beat period being one scan
// interval.
func (s *Supervisor) hangThreshold() uint64 { return MissedBeats * s.scanInterval }

// latchCrash records a bus-reported crash for the next scan to handle.
func (s *Supervisor) latchCrash(encID int, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.byEnc[encID]
	if w == nil || w.state != Healthy || w.failed {
		return
	}
	w.failed = true
	w.lastReason = reason
}

// Scan runs one watchdog pass: advance the virtual clock one scan
// interval, turn hang verdicts into crash reports, convert latched
// failures into scheduled restarts (or quarantine once the budget is
// exhausted), and execute restarts whose backoff deadline has passed.
func (s *Supervisor) Scan() error {
	now := s.Clock.Advance(s.scanInterval)

	// Pass 1: hang detection. The verdict is read-only; the reaction
	// (ReportCrash) re-enters the bus and must run without the lock.
	for _, w := range s.hungWatches() {
		enc := w.be.Enc
		reason := fmt.Sprintf("supervisor: %d missed heartbeats", MissedBeats)
		s.record(now, "sup:hang", "enclave %d %s: %s", enc.ID, w.be.Guest.Name, reason)
		// The crash report tears the enclave down and echoes back through
		// the bus, latching w.failed for pass 2.
		s.node.Host.Pisces.ReportCrash(enc, reason)
	}

	// Pass 2: schedule reactions for latched failures.
	quarantines := s.scheduleFailures(now)
	for _, w := range quarantines {
		if err := s.quarantine(w, now); err != nil {
			return err
		}
	}

	// Pass 3: execute restarts that have reached their deadline.
	for _, w := range s.dueRestarts(now) {
		if err := s.restart(w, now); err != nil {
			return err
		}
	}
	return nil
}

// hungWatches returns the healthy, heartbeat-enabled watches whose boot
// core has outrun the last beat by MissedBeats timer periods. Crash latching
// for enclaves observed in a terminal state happens here too, covering
// crashes that raced a restart or predate registration.
func (s *Supervisor) hungWatches() []*watch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hung []*watch
	for _, w := range s.watches {
		if w.state != Healthy || w.failed {
			continue
		}
		enc := w.be.Enc
		switch enc.State() {
		case pisces.StateCrashed, pisces.StateStopped:
			// Terminal without a latched bus event (e.g. crashed while the
			// watch was being re-registered): latch it now.
			w.failed = true
			w.lastReason = enc.CrashReason()
			continue
		case pisces.StateRunning:
		default:
			continue
		}
		if !w.be.Guest.Heartbeat {
			continue
		}
		// Sample the core's clock before its heartbeat page: a core that
		// runs ahead between the reads then looks more recently beaten,
		// never late, whatever the host schedule.
		tsc := enc.BootCPU().TSCSnapshot()
		hb := enc.Base() + pisces.OffHeartbeat
		count, err := s.io.Read64(hb + pisces.HbCount)
		if err != nil {
			continue
		}
		beatTSC, err := s.io.Read64(hb + pisces.HbTSC)
		if err != nil {
			continue
		}
		w.lastBeat = count
		ref := beatTSC
		if count == 0 {
			ref = w.baseTSC
		}
		if tsc > ref && tsc-ref >= s.hangThreshold() {
			hung = append(hung, w)
		}
	}
	return hung
}

// scheduleFailures turns latched failures into pending restarts, drawing
// jitter in registration order so the stream of random values is a pure
// function of the scan sequence. Watches whose budget is exhausted are
// marked Quarantined and returned for quarantine (executed outside the
// lock). Either way the watch leaves Healthy as its latch is consumed, so
// a late crash report for the failure being handled cannot latch again.
func (s *Supervisor) scheduleFailures(now uint64) []*watch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var quarantines []*watch
	for _, w := range s.watches {
		if !w.failed || w.state != Healthy {
			continue
		}
		w.failed = false
		w.failures++
		w.detectedAt = now
		s.record(now, "sup:detect", "enclave %d %s failure %d: %s",
			w.be.Enc.ID, w.be.Guest.Name, w.failures, w.lastReason)
		if w.failures > w.policy.MaxRestarts {
			w.state = Quarantined
			quarantines = append(quarantines, w)
			continue
		}
		delay := s.scanInterval << (w.failures - 1)
		if limit := maxBackoffScans * s.scanInterval; delay > limit || delay < s.scanInterval {
			delay = limit
		}
		if jit := delay * uint64(w.policy.JitterPct) / 100; jit > 0 {
			delay += s.rng.Uint64n(jit + 1)
		}
		w.state = PendingRestart
		w.restartAt = now + delay
	}
	return quarantines
}

// dueRestarts returns pending watches whose backoff deadline has passed.
func (s *Supervisor) dueRestarts(now uint64) []*watch {
	s.mu.Lock()
	defer s.mu.Unlock()
	var due []*watch
	for _, w := range s.watches {
		if w.state == PendingRestart && now >= w.restartAt {
			due = append(due, w)
		}
	}
	return due
}

// restart reboots w's guest from its declaration. It waits for the dead
// enclave's resources to finish reclaiming — the restart reallocates from
// the same pool — then replaces the testbed entry and rebinds the watch to
// the new enclave.
func (s *Supervisor) restart(w *watch, now uint64) error {
	old := w.be
	attempt := w.restarts + 1
	s.record(now, "sup:restart", "enclave %d %s attempt %d", old.Enc.ID, old.Guest.Name, attempt)
	<-old.Enc.Reclaimed()
	be, err := s.node.ReplaceGuest(old)
	if err != nil {
		return fmt.Errorf("supervisor: restart %s: %w", old.Guest.Name, err)
	}

	s.rebind(w, old.Enc.ID, be, now)
	s.record(now, "sup:recovered", "enclave %d %s restarts=%d", be.Enc.ID, be.Guest.Name, attempt)
	return nil
}

// rebind points w at the freshly booted enclave and marks it healthy.
func (s *Supervisor) rebind(w *watch, oldID int, be *testbed.Enclave, now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byEnc, oldID)
	s.byEnc[be.Enc.ID] = w
	w.be = be
	w.baseTSC = be.Enc.BootCPU().TSCSnapshot()
	w.lastBeat = 0
	w.state = Healthy
	w.restarts++
	w.recoveredAt = now
}

// quarantine escalates: wait for reclaim, then withdraw the enclave's
// exact cores and extents from the enclave pool back to the host.
func (s *Supervisor) quarantine(w *watch, now uint64) error {
	enc := w.be.Enc
	<-enc.Reclaimed()
	cores := append([]int(nil), enc.Cores...)
	mem := enc.Mem()
	if err := s.node.Host.QuarantineResources(cores, mem); err != nil {
		return err
	}
	s.record(now, "sup:quarantined", "enclave %d %s after %d failures: %s",
		enc.ID, w.be.Guest.Name, w.failures, w.lastReason)
	if s.onQuarantine != nil {
		s.onQuarantine(w.be.Guest.Name)
	}
	return nil
}

// Settle scans until a pass finds every watch either healthy with no
// latched failure, or quarantined — i.e. all in-flight recovery has
// completed — and returns the number of scans used. It gives up (with the
// scan count) after maxScans. Note that a hang which has not yet crossed
// its detection threshold does not hold Settle open.
func (s *Supervisor) Settle(maxScans int) (int, error) {
	for i := 1; i <= maxScans; i++ {
		if err := s.Scan(); err != nil {
			return i, err
		}
		if s.settled() {
			return i, nil
		}
	}
	return maxScans, fmt.Errorf("supervisor: not settled after %d scans", maxScans)
}

// settled reports whether no watch has recovery work outstanding.
func (s *Supervisor) settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.watches {
		if w.failed || w.state == PendingRestart {
			return false
		}
	}
	return true
}

// Status returns the supervision status of the guest registered under
// name.
func (s *Supervisor) Status(name string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.watches {
		if w.be.Guest.Name == name {
			return w.status(), true
		}
	}
	return Status{}, false
}

// Statuses returns every watch's status in registration order.
func (s *Supervisor) Statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.watches))
	for _, w := range s.watches {
		out = append(out, w.status())
	}
	return out
}

// status builds the external view. Caller holds s.mu.
func (w *watch) status() Status {
	return Status{
		Name:        w.be.Guest.Name,
		EnclaveID:   w.be.Enc.ID,
		State:       w.state,
		Restarts:    w.restarts,
		Failures:    w.failures,
		LastReason:  w.lastReason,
		LastBeat:    w.lastBeat,
		DetectedAt:  w.detectedAt,
		RecoveredAt: w.recoveredAt,
		RestartAt:   w.restartAt,
	}
}

// record stamps a supervision event on the virtual clock.
func (s *Supervisor) record(now uint64, kind, format string, args ...any) {
	s.tracer.Record(-1, now, kind, format, args...)
}
