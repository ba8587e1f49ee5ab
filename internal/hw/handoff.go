package hw

import (
	"sync"
	"sync/atomic"
)

// Handoff is the one wait primitive for host–guest hand-offs: a ring's
// producer waiting for room, an epoch waiter, a rank parked at a barrier,
// a halted core waiting for an interrupt (CPU.Idle).
// A waiter re-checks its own predicate; it sleeps only while the
// predicate is false and no stop condition holds, and it returns an error
// instead of sleeping once one does. The stop conditions are:
//
//   - the node crash (Machine.Crash), for the node the Handoff was built
//     on or, failing that, the node of the CPU a wait names;
//   - the Latch the Handoff was bound to at construction, if any (an
//     enclave's teardown, for the rings and queues in its memory);
//   - the kill of the CPU a wait names (CPU.Kill), if any.
//
// The code that sets a stop condition also wakes the waiters it stops, so
// no goroutine has to watch a channel to turn a close into a broadcast.
//
// The mutex is taken only to sleep and to wake. Predicates run outside
// it, so a predicate may poll a CPU (a guest endpoint's memory access
// can), and a terminate that the poll triggers can wake this very
// Handoff. Wait and Broadcast allocate nothing.
type Handoff struct {
	m     *Machine
	latch *Latch

	// seq counts broadcasts. A waiter samples it before evaluating its
	// predicate and sleeps only while it is unchanged, so a broadcast
	// that lands between the evaluation and the sleep is never lost.
	seq atomic.Uint64
	// parked counts goroutines inside block. Broadcast skips the lock when
	// it reads 0: a waiter raises it before re-reading seq, so either the
	// broadcaster sees the waiter or the waiter sees the new seq.
	parked atomic.Int32

	mu   sync.Mutex
	cond sync.Cond

	// sleepers and the links below place the Handoff on its node's list
	// of Handoffs with a goroutine asleep in them, guarded by the node's
	// waitMu. Crash and Kill walk that list.
	sleepers   int
	prev, next *Handoff
}

// NewHandoff returns a Handoff whose waits stop when m crashes or latch
// fires. Either may be nil: a nil m takes the node from the CPU each wait
// names, and a nil latch binds no latch. All waits on one Handoff must
// run on one node.
func NewHandoff(m *Machine, latch *Latch) *Handoff {
	h := &Handoff{m: m, latch: latch}
	h.cond.L = &h.mu
	if latch != nil {
		latch.bind(h)
	}
	return h
}

// Wait blocks until ready reports true or fails, and returns ready's
// error. It returns a stop condition's error instead, without calling
// ready, once any stop condition holds: the latch's error, a
// FaultMachineCrashed fault, or a FaultEnclaveKilled fault for cpu. cpu
// may be nil when no core's kill should end the wait. ready runs without
// any lock held.
func (h *Handoff) Wait(cpu *CPU, ready func() (bool, error)) error {
	for {
		if err := h.Stopped(cpu); err != nil {
			return err
		}
		seq := h.seq.Load()
		if ok, err := ready(); ok || err != nil {
			return err
		}
		if err := h.sleep(cpu, seq); err != nil {
			return err
		}
	}
}

// Broadcast wakes every waiter so it re-checks its predicate. Call it
// after each change a predicate may be waiting for.
func (h *Handoff) Broadcast() {
	h.seq.Add(1)
	if h.parked.Load() == 0 {
		return
	}
	h.wake()
}

// Stopped returns the error of the first stop condition that holds for a
// wait naming cpu (nil for none), or nil.
func (h *Handoff) Stopped(cpu *CPU) error {
	if h.latch != nil && h.latch.Fired() {
		return h.latch.err
	}
	if m := h.node(cpu); m != nil && m.Crashed() {
		f := &Fault{Kind: FaultMachineCrashed, CPU: -1, Msg: m.CrashReason()}
		if cpu != nil {
			f.CPU = cpu.ID
		}
		return f
	}
	if cpu != nil && cpu.killed.Load() {
		return &Fault{Kind: FaultEnclaveKilled, CPU: cpu.ID}
	}
	return nil
}

// Parked reports how many goroutines are asleep in (or entering) Wait.
func (h *Handoff) Parked() int { return int(h.parked.Load()) }

// node returns the machine whose crash stops a wait naming cpu.
func (h *Handoff) node(cpu *CPU) *Machine {
	if h.m != nil || cpu == nil {
		return h.m
	}
	return cpu.M
}

// sleep parks the caller until the next broadcast after seq, or until a
// stop condition holds. The Handoff joins its node's sleeping list before
// it checks the stop conditions, so a Crash or Kill either sees it there
// or set its flag before the check.
func (h *Handoff) sleep(cpu *CPU, seq uint64) error {
	if m := h.node(cpu); m != nil {
		m.park(h)
		defer m.unpark(h)
	}
	return h.block(cpu, seq)
}

// block sleeps on the condition until seq moves or a stop condition holds.
func (h *Handoff) block(cpu *CPU, seq uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parked.Add(1)
	defer h.parked.Add(-1)
	for h.seq.Load() == seq {
		if err := h.Stopped(cpu); err != nil {
			return err
		}
		h.cond.Wait()
	}
	return nil
}

// wake broadcasts under the lock, so it cannot fall between a waiter's
// check and its sleep.
func (h *Handoff) wake() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cond.Broadcast()
}

// park adds one sleeper of h to m's sleeping list.
func (m *Machine) park(h *Handoff) {
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	if h.sleepers == 0 {
		h.prev, h.next = nil, m.sleeping
		if m.sleeping != nil {
			m.sleeping.prev = h
		}
		m.sleeping = h
	}
	h.sleepers++
}

// unpark removes one sleeper of h, unlinking h after its last.
func (m *Machine) unpark(h *Handoff) {
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	if h.sleepers--; h.sleepers > 0 {
		return
	}
	if h.prev != nil {
		h.prev.next = h.next
	} else {
		m.sleeping = h.next
	}
	if h.next != nil {
		h.next.prev = h.prev
	}
	h.prev, h.next = nil, nil
}

// wakeSleepers wakes every Handoff on m with a goroutine asleep in it, so
// each re-checks its stop conditions. Crash and Kill call it after setting
// their flag.
func (m *Machine) wakeSleepers() {
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	for h := m.sleeping; h != nil; h = h.next {
		h.wake()
	}
}

// Latch is a one-shot stop condition for Handoff waits. Once fired it
// stays fired: every wait on a Handoff bound to it fails with the latch's
// error, and Done's channel is closed for observers outside the node.
type Latch struct {
	err   error
	fired atomic.Bool
	done  chan struct{}

	mu    sync.Mutex //covirt:guards bound
	bound []*Handoff
}

// NewLatch returns an unfired latch whose waits fail with err.
func NewLatch(err error) *Latch {
	return &Latch{err: err, done: make(chan struct{})}
}

// Fire sets the latch and wakes every Handoff bound to it. Only the first
// call has an effect.
func (l *Latch) Fire() {
	if !l.fired.CompareAndSwap(false, true) {
		return
	}
	close(l.done)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, h := range l.bound {
		h.wake()
	}
}

// Fired reports whether the latch has fired.
func (l *Latch) Fired() bool { return l.fired.Load() }

// Done returns a channel closed when the latch fires.
func (l *Latch) Done() <-chan struct{} { return l.done }

// bind adds h to the Handoffs Fire wakes.
func (l *Latch) bind(h *Handoff) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bound = append(l.bound, h)
}
