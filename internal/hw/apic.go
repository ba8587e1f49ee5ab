package hw

import (
	"sync"
	"sync/atomic"
)

// MaxVectors is the size of the interrupt vector space.
const MaxVectors = 256

// pending-event flag bits used for the fast-path poll check. pendingIntr
// and pendingNMI track deliverable events; pendingKill and pendingCrash
// mirror the CPU kill latch and machine crash flag so due can rule out
// every slow-path condition but the timer with a single atomic load.
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
// due and checkTimer decide their common case (armed or not, deadline not
// reached) with one atomic load.
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
	a.postIntr(vector, external)
	a.idle.Broadcast()
}

// postIntr queues vector and flags it pending, waking no one.
func (a *APIC) postIntr(vector uint8, external bool) {
	a.post(vector, external)
	a.pending.Or(pendingIntr)
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
	a.postNMI()
	a.idle.Broadcast()
}

// postNMI asserts the NMI line without waking anyone.
func (a *APIC) postNMI() {
	atomic.AddInt32(&a.nmi, 1)
	a.pending.Or(pendingNMI)
}

// takeNMI consumes one pending NMI, reporting whether one was pending.
func (a *APIC) takeNMI() bool {
	for {
		n := atomic.LoadInt32(&a.nmi)
		if n == 0 {
			if a.pending.Load()&pendingNMI != 0 {
				a.clearNMIPending()
			}
			return false
		}
		if atomic.CompareAndSwapInt32(&a.nmi, n, n-1) {
			if n == 1 {
				a.clearNMIPending()
			}
			return true
		}
	}
}

// clearNMIPending drops the NMI flag unless an NMI is counted. A raise
// counts its NMI before it sets the flag, so one that lands between the
// two steps here is either seen by the count or sets the flag after them:
// a counted NMI never goes unflagged.
func (a *APIC) clearNMIPending() {
	a.pending.And(^pendingNMI)
	if atomic.LoadInt32(&a.nmi) > 0 {
		a.pending.Or(pendingNMI)
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
	// Nothing is queued: a raise that posted its vector before a take
	// emptied the IRR may have set the flag after the take cleared it.
	// Every raise sets its IRR bit under this lock before the flag, so
	// clearing here loses no raise.
	a.pending.And(^pendingIntr)
	return 0, false, false
}

// HasPending reports whether any interrupt or NMI awaits delivery.
func (a *APIC) HasPending() bool { return a.pending.Load()&pendingEvents != 0 }

// due reports whether the owning CPU's poll at now has work: the pending
// word holds an event, a kill or a crash, or now has reached the timer
// deadline. Both words are read at the check, so a raise or a retime from
// another goroutine is seen by the next one. When due is false, poll's
// slow path would deliver nothing and fire no tick.
func (a *APIC) due(now uint64) bool {
	return a.pending.Load() != 0 || now >= a.timerDeadline.Load() // also covers the disarmed sentinel
}

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
	// The LAPIC timer is an external interrupt source. Its poll delivers it
	// next, so the raise wakes no one: a broadcast would end the Idle of a
	// core a ringer is delivering for.
	a.postIntr(uint8(a.timerVector.Load()), true)
}

// pollsUntilDue returns how many charges of step cycles a batched access
// path may apply, starting from now, before the poll at which due holds:
// 1 when the pending word is set, else the smallest j ≥ 1 with
// now + j*step ≥ deadline. Per-page loops poll after every page, so a
// batched path that splits its charge at this boundary takes a pending
// event, a kill or a timer tick after exactly the same page as the
// element-at-a-time path. Returns MaxUint64 when no split is needed.
func (a *APIC) pollsUntilDue(now, step uint64) uint64 {
	if a.pending.Load() != 0 {
		return 1
	}
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
