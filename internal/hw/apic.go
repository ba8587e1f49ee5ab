package hw

import (
	"sync"
	"sync/atomic"
)

// MaxVectors is the size of the interrupt vector space.
const MaxVectors = 256

// pending-event flag bits used for the fast-path poll check. pendingIntr
// and pendingNMI track deliverable events; pendingKill and pendingCrash
// mirror the CPU kill latch and machine crash flag so CPU.poll's fast path
// can rule out every slow-path condition with a single atomic load.
const (
	pendingIntr uint32 = 1 << iota
	pendingNMI
	pendingKill
	pendingCrash
)

// pendingEvents masks the bits that mean an interrupt or NMI awaits
// delivery (as opposed to the kill/crash fast-path mirrors).
const pendingEvents = pendingIntr | pendingNMI

// timerDisarmed is the deadline sentinel meaning "timer not armed"; it lets
// checkTimer's common case (armed or not, deadline not reached) decide with
// one atomic load.
const timerDisarmed = ^uint64(0)

// APIC simulates a local Advanced Programmable Interrupt Controller: an
// interrupt request register (IRR) fed by IPIs and device interrupts, an NMI
// line, and a one-shot-rearming local timer. Incoming interrupts may be
// raised from any goroutine; delivery happens on the owning CPU's execution
// context via CPU.poll, and a halted CPU waits for them in CPU.Idle.
type APIC struct {
	cpuID int

	mu     sync.Mutex
	irr    [MaxVectors / 64]uint64 // pending vectors
	extIRR [MaxVectors / 64]uint64 // which pending vectors are device-originated
	nmi    int32                   // pending NMI count

	pending atomic.Uint32 // fast-path event flags
	idle    *Handoff      // CPU.Idle parks here; every raise broadcasts

	// Timer state. The owning CPU advances the deadline; ArmTimer and
	// DisarmTimer may be called from management contexts, so the fields
	// are atomics. A deadline of timerDisarmed means the timer is off.
	timerDeadline atomic.Uint64
	timerInterval atomic.Uint64
	timerVector   atomic.Uint32

	// Counters (owning CPU's goroutine only, except raises).
	Delivered uint64 // interrupts delivered to the guest
	NMICount  uint64 // NMIs handled
}

// newAPIC returns an APIC for the given CPU id.
func newAPIC(cpuID int) *APIC {
	a := &APIC{cpuID: cpuID, idle: NewHandoff(nil, nil)}
	a.timerDeadline.Store(timerDisarmed)
	return a
}

// Raise queues vector for delivery. external marks device-originated
// interrupts (as opposed to IPIs), which matters for posted-interrupt
// semantics: PIV avoids exits for IPIs but not for external interrupts.
func (a *APIC) Raise(vector uint8, external bool) {
	a.post(vector, external)
	a.pending.Or(pendingIntr)
	a.idle.Broadcast()
}

// post sets the IRR bits for vector under the lock.
func (a *APIC) post(vector uint8, external bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.irr[vector/64] |= 1 << (vector % 64)
	if external {
		a.extIRR[vector/64] |= 1 << (vector % 64)
	}
}

// RaiseNMI asserts the NMI line.
func (a *APIC) RaiseNMI() {
	atomic.AddInt32(&a.nmi, 1)
	a.pending.Or(pendingNMI)
	a.idle.Broadcast()
}

// takeNMI consumes one pending NMI, reporting whether one was pending.
func (a *APIC) takeNMI() bool {
	for {
		n := atomic.LoadInt32(&a.nmi)
		if n == 0 {
			return false
		}
		if atomic.CompareAndSwapInt32(&a.nmi, n, n-1) {
			if n == 1 {
				a.pending.And(^pendingNMI)
			}
			return true
		}
	}
}

// takeIntr pops the highest-priority (highest-numbered, as on x86) pending
// vector. It returns the vector, whether it was external, and whether
// anything was pending.
func (a *APIC) takeIntr() (vector uint8, external, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for w := len(a.irr) - 1; w >= 0; w-- {
		bits := a.irr[w]
		if bits == 0 {
			continue
		}
		// Highest set bit in this word.
		b := 63
		for ; b >= 0; b-- {
			if bits&(1<<uint(b)) != 0 {
				break
			}
		}
		v := uint8(w*64 + b)
		a.irr[w] &^= 1 << uint(b)
		ext := a.extIRR[w]&(1<<uint(b)) != 0
		a.extIRR[w] &^= 1 << uint(b)
		empty := true
		for _, x := range a.irr {
			if x != 0 {
				empty = false
				break
			}
		}
		if empty {
			a.pending.And(^pendingIntr)
		}
		return v, ext, true
	}
	return 0, false, false
}

// HasPending reports whether any interrupt or NMI awaits delivery.
func (a *APIC) HasPending() bool { return a.pending.Load()&pendingEvents != 0 }

// setKillPending and clearKillPending mirror the owning CPU's kill latch
// into the pending word (set by Kill, cleared by Revive).
func (a *APIC) setKillPending()   { a.pending.Or(pendingKill) }
func (a *APIC) clearKillPending() { a.pending.And(^pendingKill) }

// setCrashPending mirrors the machine crash flag; it is never cleared.
func (a *APIC) setCrashPending() { a.pending.Or(pendingCrash) }

// ArmTimer programs the local timer to fire vector every interval cycles,
// starting from now (the caller's current TSC). A zero interval disarms.
func (a *APIC) ArmTimer(now, interval uint64, vector uint8) {
	a.timerInterval.Store(interval)
	a.timerVector.Store(uint32(vector))
	if interval == 0 {
		a.timerDeadline.Store(timerDisarmed)
		return
	}
	a.timerDeadline.Store(now + interval)
}

// DisarmTimer stops the local timer.
func (a *APIC) DisarmTimer() { a.timerDeadline.Store(timerDisarmed) }

// checkTimer raises the timer vector if now has passed the deadline,
// rearming for the next period. Called from the owning CPU only.
func (a *APIC) checkTimer(now uint64) {
	deadline := a.timerDeadline.Load()
	if now < deadline { // also covers the disarmed sentinel
		return
	}
	// Catch up without raising a storm if the CPU slept through many
	// periods: one interrupt per poll, deadline advanced past now.
	interval := a.timerInterval.Load()
	if interval == 0 {
		a.timerDeadline.Store(timerDisarmed)
		return
	}
	for deadline <= now {
		deadline += interval
	}
	a.timerDeadline.Store(deadline)
	a.Raise(uint8(a.timerVector.Load()), true) // the LAPIC timer is an external interrupt source
}

// pollsUntilTimer returns how many charges of step cycles a batched access
// path may apply, starting from now, before the poll that would observe the
// timer deadline — i.e. the smallest j ≥ 1 with now + j*step ≥ deadline.
// Per-page loops poll after every page, so a batched path that splits its
// charge at this boundary delivers the timer tick at exactly the same page
// as the element-at-a-time path. Returns MaxUint64 when no split is needed.
func (a *APIC) pollsUntilTimer(now, step uint64) uint64 {
	deadline := a.timerDeadline.Load()
	if deadline == timerDisarmed || step == 0 {
		return ^uint64(0)
	}
	if now >= deadline {
		return 1
	}
	d := deadline - now
	j := d / step
	if d%step != 0 {
		j++
	}
	return j
}
