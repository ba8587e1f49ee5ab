package hw

import (
	"sync/atomic"
	"testing"
)

// nmiVirt is a VirtLayer whose NMI exit charges a fixed cost, as Covirt's
// command-queue drain does, and runs onNMI; everything else passes
// through at no cost.
type nmiVirt struct{ onNMI func(c *CPU) }

func (nmiVirt) TranslateGPA(*CPU, uint64, bool) (uint64, uint64, error) { return 0, 0, nil }
func (nmiVirt) FilterIPI(*CPU, int, uint8) (bool, uint64, error)        { return true, 0, nil }
func (nmiVirt) MSRRead(*CPU, uint32) (uint64, uint64, error)            { return 0, 0, nil }
func (nmiVirt) MSRWrite(*CPU, uint32, uint64) (uint64, error)           { return 0, nil }
func (nmiVirt) IO(*CPU, uint16, bool, uint32) (uint32, uint64, error)   { return 0, 0, nil }
func (nmiVirt) OnInterrupt(*CPU, uint8, bool) uint64                    { return 40 }
func (nmiVirt) Emulate(*CPU, EmulInstr) (uint64, error)                 { return 0, nil }
func (nmiVirt) OnAbort(_ *CPU, f *Fault) error                          { return f }
func (v nmiVirt) OnNMI(c *CPU) uint64 {
	if v.onNMI != nil {
		v.onNMI(c)
	}
	return 700
}

// ringState is what a delivery leaves on a core.
type ringState struct {
	tsc, irqs, nmis, delivered uint64
	vectors                    string
}

// ringCore prepares c as the ring tests need it: a VirtLayer, a handler
// that logs each vector, and a timer whose deadline the TSC has passed
// since the last poll, so a delivery's poll also raises and takes a tick.
// inHandler runs inside every handler.
func ringCore(c *CPU, log *[]byte, inHandler func()) {
	c.Virt = nmiVirt{onNMI: func(*CPU) { *log = append(*log, 'N'); inHandler() }}
	c.SetIRQHandler(func(_ *CPU, v uint8, _ bool) { *log = append(*log, v); inHandler() })
	c.APIC.ArmTimer(0, 1000, 0x30)
	c.TSC += 5000
}

func stateOf(c *CPU, log []byte) ringState {
	return ringState{c.TSC, c.IRQsTaken, c.APIC.NMICount, c.APIC.Delivered, string(log)}
}

// TestRingDeliversLikePoll: a ringer's delivery to an idle core charges
// what the core's own poll charges when it wakes for the same raise, in
// the same order, the timer tick its poll raises included. The idle
// goroutine neither wakes for the event nor runs during the delivery.
func TestRingDeliversLikePoll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ring  func(c *CPU)
		raise func(c *CPU)
	}{
		{"nmi", (*CPU).RingNMI, func(c *CPU) { c.APIC.RaiseNMI() }},
		{"ipi", func(c *CPU) { c.RingIPI(0x41) }, func(c *CPU) { c.APIC.Raise(0x41, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(t)
			own, rung := m.CPU(0), m.CPU(1)

			// The reference: the core takes the raise in its own Idle.
			var ownLog []byte
			ringCore(own, &ownLog, func() {})
			tc.raise(own)
			if err := own.Idle(nil); err != nil {
				t.Fatal(err)
			}

			var rungLog []byte
			var stop atomic.Bool
			parkedInHandler := true
			ringCore(rung, &rungLog, func() {
				parkedInHandler = parkedInHandler && rung.APIC.idle.Parked() == 1
			})
			errc := make(chan error, 1)
			go func() {
				for !stop.Load() {
					if err := rung.Idle(stop.Load); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			waitParked(t, rung.APIC.idle, 1)
			parks := Parks()
			tc.ring(rung)
			if got := Parks(); got != parks {
				t.Errorf("the idle goroutine parked %d more times: it woke for the rung event", got-parks)
			}
			if !parkedInHandler {
				t.Error("the idle goroutine was not asleep while the ringer delivered")
			}
			if got, want := stateOf(rung, rungLog), stateOf(own, ownLog); got != want {
				t.Errorf("ringer delivery left %+v, the core's own poll %+v", got, want)
			}
			stop.Store(true)
			rung.Wake()
			if err := waitResult(t, errc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRingFallsBack: a ring delivers nothing for a core that is running,
// stalled with interrupts off, killed, on a crashed node, or idle with
// another event pending, or for an idle core's NMI without a VirtLayer
// (the native handler is guest code). The event stays pending for the
// core's own goroutine, and no handler runs on the ringer's.
func TestRingFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(m *Machine, c *CPU) (undo func())
		nmi   bool
	}{
		{"running", func(*Machine, *CPU) func() { return func() {} }, false},
		{"stalled", func(_ *Machine, c *CPU) func() {
			errc := make(chan error, 1)
			go func() { errc <- c.StallNoIRQ(1) }()
			waitParked(t, c.APIC.idle, 1)
			return func() { c.Kill(); <-errc }
		}, false},
		{"killed", func(_ *Machine, c *CPU) func() {
			c.halt.Store(haltIdle)
			c.Kill()
			return func() {}
		}, false},
		{"crashed", func(m *Machine, c *CPU) func() {
			c.halt.Store(haltHost)
			m.Crash("test: node down")
			return func() {}
		}, false},
		{"other-event", func(_ *Machine, c *CPU) func() {
			c.halt.Store(haltIdle)
			c.APIC.Raise(0x42, false)
			return func() {}
		}, false},
		{"native-nmi", func(_ *Machine, c *CPU) func() {
			c.Virt = nil
			c.halt.Store(haltIdle)
			return func() {}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(t)
			c := m.CPU(0)
			var log []byte
			ringCore(c, &log, func() {})
			undo := tc.setup(m, c)
			if tc.nmi {
				c.RingNMI()
			} else {
				c.RingIPI(0x41)
			}
			undo()
			if len(log) != 0 || c.IRQsTaken != 0 || c.APIC.NMICount != 0 {
				t.Errorf("the ringer delivered %q (IRQs %d, NMIs %d)", log, c.IRQsTaken, c.APIC.NMICount)
			}
			if !c.APIC.HasPending() {
				t.Error("the rung event is not pending for the core's goroutine")
			}
		})
	}
}

// TestRingHostBlockedTakesAll: a core blocked on the host gets everything
// pending from a ringer, and a raise that lands while the ringer holds it
// is delivered when the ringer lets go: the host work the core's goroutine
// runs may be waiting for those handlers.
func TestRingHostBlockedTakesAll(t *testing.T) {
	c := testMachine(t).CPU(0)
	var log []byte
	raised := false
	ringCore(c, &log, func() {
		if !raised {
			raised = true
			c.APIC.Raise(0x50, false)
		}
	})
	c.APIC.Raise(0x42, false)
	c.BlockOnHost()
	c.RingNMI()
	c.Unblock()
	if got, want := string(log), "N\x50\x42\x30"; got != want {
		t.Errorf("delivered %q, want %q", got, want)
	}
	if c.APIC.HasPending() {
		t.Error("events left pending on the blocked core")
	}
}

// TestRingHeldRaiseEndsIdle: a plain raise that lands while a ringer holds
// an idle core ends the core's Idle, even when the ringer's poll took the
// event: the goroutine must see, for example, a reschedule doorbell.
func TestRingHeldRaiseEndsIdle(t *testing.T) {
	c := testMachine(t).CPU(0)
	var log []byte
	raised := false
	ringCore(c, &log, func() {
		if !raised {
			raised = true
			c.APIC.Raise(0x50, false)
		}
	})
	c.APIC.DisarmTimer()
	errc := make(chan error, 1)
	go func() { errc <- c.Idle(nil) }()
	waitParked(t, c.APIC.idle, 1)
	c.RingIPI(0x41)
	if err := waitResult(t, errc); err != nil {
		t.Fatal(err)
	}
	if got, want := string(log), "\x41\x50"; got != want {
		t.Errorf("delivered %q, want %q", got, want)
	}
}
