package hw

// A halted core hands itself to whoever rings it. The core's goroutine
// marks the core halted inside Idle and between BlockOnHost and Unblock.
// A ringer (RingNMI, RingIPI) that finds the core halted claims it, posts
// its event without waking the goroutine and runs poll for the core on its
// own goroutine, then hands the core back. The charges, and their order,
// are the ones the core's own poll would have produced; the goroutine
// neither wakes for the event nor runs while a ringer holds the core.
//
// Only raises whose handlers do all their work in interrupt context ring:
// Covirt's command-queue doorbell and Kitten's TLB-shootdown IPI. What a
// ringer delivers depends on why the core is halted:
//
//   - In Idle, the ringer delivers only when its event would be the only
//     one: nothing else pending, no kill or crash, and, for an NMI, a
//     VirtLayer (the hypervisor's handler, not guest code). Any other
//     event needs the goroutine, so the ring falls back to a plain raise,
//     which wakes it. Idle returns on every plain raise, so one that
//     lands while a ringer holds the core reaches the goroutine even when
//     the ringer's poll took its event.
//   - Blocked on the host, the goroutine cannot poll until Unblock, and the
//     host work it runs may wait for the core's own handlers (an epoch
//     waits for the core to drain its command queue). So a ringer delivers
//     everything pending, as the wake of a core idling in the call would,
//     unless a kill or crash is pending; and a plain raise that lands while
//     a ringer holds the core is delivered when the ringer hands it back.
//
// A running core, a core in StallNoIRQ, and a core with a kill or crash
// pending get the plain raise.
const (
	haltNone uint32 = iota
	haltIdle
	haltHost
	haltHeld uint32 = 1 << 2 // ORed into haltIdle or haltHost
)

// Idle halts the core until an interrupt or NMI is pending, a plain raise
// or Wake lands after the halt began, or stop reports true, then delivers
// pending events and returns poll's verdict. A nil stop never holds. A
// halted core charges nothing, and an event a poll took before the halt
// does not wake it. A kill or node crash ends the halt with the fault poll
// would return. While halted, the core may take rung events on a ringer's
// goroutine (see above). The core publishes its TSC as it halts, so a
// halted core's TSCSnapshot is exact.
func (c *CPU) Idle(stop func() bool) error {
	a := c.APIC
	since := a.idle.seq.Load()
	c.tscShadow.Store(c.TSC) // before the halt: a ringer's delivery then owns the TSC
	c.halt.Store(haltIdle)
	err := a.idle.Wait(c, func() (bool, error) {
		return a.HasPending() || a.idle.seq.Load() != since || stop != nil && stop(), nil
	})
	c.resume()
	if err != nil {
		c.tscShadow.Store(c.TSC) // as poll publishes before reporting it
		return err
	}
	return c.poll()
}

// Wake ends the Idle of a halted core without posting an event, so it
// re-checks its stop and waking it charges nothing. Safe from any
// goroutine.
func (c *CPU) Wake() { c.APIC.idle.Broadcast() }

// BlockOnHost marks the core halted while its goroutine runs host work on
// the core's behalf (a forwarded system call), until Unblock. In between,
// the goroutine must not touch the core: ringers deliver its events.
func (c *CPU) BlockOnHost() { c.halt.Store(haltHost) }

// Unblock ends BlockOnHost. It waits out a ringer that holds the core, then
// returns the core to its goroutine. Events left pending are delivered by
// the core's next poll.
func (c *CPU) Unblock() { c.resume() }

// RingNMI asserts c's NMI line as a doorbell whose handler does all its
// work in interrupt context, delivering it on the caller's goroutine when
// c is halted. Call it holding no lock that the handler's fault path
// takes: a handler that terminates the core reports the crash from here.
func (c *CPU) RingNMI() {
	if c.ring(true, 0) {
		return
	}
	c.APIC.RaiseNMI()
	c.serveHost()
}

// RingIPI raises vector on c as RingNMI does the NMI line. The vector's
// handler must do all its work in interrupt context.
func (c *CPU) RingIPI(vector uint8) {
	if c.ring(false, vector) {
		return
	}
	c.APIC.Raise(vector, false)
	c.serveHost()
}

// ring claims a halted c, posts the event and delivers it with c's poll,
// reporting whether it did.
func (c *CPU) ring(nmi bool, vector uint8) bool {
	mode := c.claim(nmi)
	if mode == haltNone {
		return false
	}
	schedPoint()
	if nmi {
		c.APIC.postNMI()
	} else {
		c.APIC.postIntr(vector, false)
	}
	//covirt:allow physmem-errcheck a fault is the core's: its goroutine meets it in its own wait
	_ = c.poll()
	c.unhold(mode)
	return true
}

// claim takes a halted core for a ringer of an NMI (nmi) or an interrupt,
// returning the halt mode to restore, or haltNone when the ring must fall
// back to a plain raise. The checks run again once the core is held: an
// event raised between the first check and the claim would otherwise be
// taken by the ringer's poll without its goroutine noticing.
func (c *CPU) claim(nmi bool) uint32 {
	mode := c.halt.Load()
	if (mode != haltIdle && mode != haltHost) || !c.deliverable(mode, nmi) {
		return haltNone
	}
	if !c.halt.CompareAndSwap(mode, mode|haltHeld) {
		return haltNone
	}
	if !c.deliverable(mode, nmi) {
		c.unhold(mode)
		return haltNone
	}
	return mode
}

// deliverable reports whether a ringer may deliver for a core halted in
// mode. Reads of Virt are safe only while the core is held or halted.
func (c *CPU) deliverable(mode uint32, nmi bool) bool {
	w := c.APIC.pending.Load()
	if w&(pendingKill|pendingCrash) != 0 {
		return false
	}
	if mode == haltHost {
		return true
	}
	return w&pendingEvents == 0 && (!nmi || c.Virt != nil)
}

// unhold hands a held core back, halted in mode. A core blocked on the host
// then gets what was raised while it was held.
func (c *CPU) unhold(mode uint32) {
	c.halt.Store(mode)
	c.release.Broadcast()
	if mode == haltHost {
		c.serveHost()
	}
}

// serveHost delivers what is pending on a core blocked on the host that no
// ringer holds. A ringer that holds it does the same when it lets go, so no
// event stays pending while the goroutine waits for the core's handlers.
func (c *CPU) serveHost() {
	for {
		w := c.APIC.pending.Load()
		if w&pendingEvents == 0 || w&(pendingKill|pendingCrash) != 0 {
			return
		}
		if !c.halt.CompareAndSwap(haltHost, haltHost|haltHeld) {
			return // running, idle, or held by a ringer that serves it
		}
		schedPoint()
		//covirt:allow physmem-errcheck a fault is the core's: its goroutine meets it after Unblock
		_ = c.poll()
		c.halt.Store(haltHost)
		c.release.Broadcast()
	}
}

// resume returns a halted core to its goroutine, waiting while a ringer
// holds it.
func (c *CPU) resume() {
	for {
		mode := c.halt.Load()
		if mode&haltHeld == 0 {
			if c.halt.CompareAndSwap(mode, haltNone) {
				return
			}
			continue
		}
		//covirt:allow physmem-errcheck release names no CPU, node or latch, so its wait never fails
		_ = c.release.Wait(nil, func() (bool, error) { return c.halt.Load()&haltHeld == 0, nil })
	}
}
