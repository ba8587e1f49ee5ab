package hw

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// handoffMachine builds a small machine for Handoff tests.
func handoffMachine(t *testing.T) *Machine {
	t.Helper()
	spec := DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitParked spins until n goroutines are asleep in h. It orders nothing
// by time: the stop that follows is set only once the waiter is parked.
func waitParked(t *testing.T, h *Handoff, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h.Parked() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked after 30 s, want %d", h.Parked(), n)
		}
		runtime.Gosched()
	}
}

// waitResult returns the error a waiter sent on errc, failing the test if
// none arrives within 30 s.
func waitResult(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("waiter still parked 30 s after its wakeup")
		return nil
	}
}

// TestHandoffWakes parks a waiter and then sets each wakeup in turn: a
// broadcast after its predicate turned true, the latch, the node crash,
// and the kill of the CPU the wait names. Each must end the wait with its
// own result.
func TestHandoffWakes(t *testing.T) {
	errTorn := errors.New("test: torn down")
	for _, tc := range []struct {
		name  string
		wake  func(m *Machine, h *Handoff, l *Latch, ready *atomic.Bool)
		check func(err error) bool
	}{
		{"broadcast", func(_ *Machine, h *Handoff, _ *Latch, ready *atomic.Bool) {
			ready.Store(true)
			h.Broadcast()
		}, func(err error) bool { return err == nil }},
		{"latch", func(_ *Machine, _ *Handoff, l *Latch, _ *atomic.Bool) {
			l.Fire()
		}, func(err error) bool { return errors.Is(err, errTorn) }},
		{"crash", func(m *Machine, _ *Handoff, _ *Latch, _ *atomic.Bool) {
			m.Crash("test: node down")
		}, func(err error) bool { return IsFault(err, FaultMachineCrashed) }},
		{"kill", func(m *Machine, _ *Handoff, _ *Latch, _ *atomic.Bool) {
			m.CPU(0).Kill()
		}, func(err error) bool { return IsFault(err, FaultEnclaveKilled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := handoffMachine(t)
			l := NewLatch(errTorn)
			h := NewHandoff(m, l)
			var ready atomic.Bool
			errc := make(chan error, 1)
			go func() {
				errc <- h.Wait(m.CPU(0), func() (bool, error) { return ready.Load(), nil })
			}()
			waitParked(t, h, 1)
			tc.wake(m, h, l, &ready)
			if err := waitResult(t, errc); !tc.check(err) {
				t.Errorf("Wait = %v", err)
			}
		})
	}
}

// TestHandoffKillNamesOneCPU: the kill of a CPU ends only the waits that
// name it. A rank parked on core 0 stays parked through core 1's kill and
// wakes on the next broadcast.
func TestHandoffKillNamesOneCPU(t *testing.T) {
	m := handoffMachine(t)
	h := NewHandoff(nil, nil) // the node comes from the named CPU
	var ready atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- h.Wait(m.CPU(0), func() (bool, error) { return ready.Load(), nil })
	}()
	waitParked(t, h, 1)
	m.CPU(1).Kill()
	select {
	case err := <-errc:
		t.Fatalf("core 1's kill ended a wait naming core 0: %v", err)
	default:
	}
	ready.Store(true)
	h.Broadcast()
	if err := waitResult(t, errc); err != nil {
		t.Errorf("Wait = %v", err)
	}
}

// TestHandoffStopAlreadyHolds: a stop condition that holds before the wait
// starts fails it at once, without evaluating the predicate or sleeping.
func TestHandoffStopAlreadyHolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(m *Machine, l *Latch)
	}{
		{"latch", func(_ *Machine, l *Latch) { l.Fire() }},
		{"crash", func(m *Machine, _ *Latch) { m.Crash("test: node down") }},
		{"kill", func(m *Machine, _ *Latch) { m.CPU(0).Kill() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := handoffMachine(t)
			l := NewLatch(errors.New("test: torn down"))
			h := NewHandoff(m, l)
			tc.stop(m, l)
			err := h.Wait(m.CPU(0), func() (bool, error) {
				t.Error("predicate evaluated after a stop condition held")
				return false, nil
			})
			if err == nil {
				t.Error("Wait returned nil with a stop condition holding")
			}
			if h.Parked() != 0 {
				t.Errorf("%d waiters parked", h.Parked())
			}
		})
	}
}

// TestHandoffPredicateError: a predicate's error ends the wait with that
// error, as Ring uses it to report a corrupt header.
func TestHandoffPredicateError(t *testing.T) {
	h := NewHandoff(nil, nil)
	want := errors.New("test: corrupt")
	if err := h.Wait(nil, func() (bool, error) { return false, want }); err != want {
		t.Errorf("Wait = %v, want %v", err, want)
	}
}

// TestHandoffNoAllocs pins the primitive's cost: a wait whose predicate
// already holds, a broadcast nobody waits for, and a full round trip that
// parks and wakes two goroutines all allocate nothing.
func TestHandoffNoAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := handoffMachine(t)
	stop := NewLatch(errors.New("test: done"))
	ping, pong := NewHandoff(m, stop), NewHandoff(m, nil)
	var pings, pongs atomic.Uint64

	ready := func() (bool, error) { return true, nil }
	satisfied := func() {
		if err := pong.Wait(m.CPU(0), ready); err != nil {
			t.Error(err)
		}
	}
	if a := testing.AllocsPerRun(100, satisfied); a != 0 {
		t.Errorf("satisfied Wait: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, pong.Broadcast); a != 0 {
		t.Errorf("Broadcast with no waiter: %v allocs, want 0", a)
	}

	echoed := make(chan struct{})
	go func() { // answers every ping with a pong until stop fires
		defer close(echoed)
		for i := uint64(1); ; i++ {
			if ping.Wait(nil, func() (bool, error) { return pings.Load() >= i, nil }) != nil {
				return
			}
			pongs.Store(i)
			pong.Broadcast()
		}
	}()
	round := func() {
		n := pings.Add(1)
		ping.Broadcast()
		if err := pong.Wait(m.CPU(0), func() (bool, error) { return pongs.Load() >= n, nil }); err != nil {
			t.Error(err)
		}
	}
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Errorf("parking round trip: %v allocs, want 0", a)
	}
	stop.Fire()
	<-echoed
}

// TestIdleNoAllocs pins the idle wait's cost beside the primitive's: a
// raise, an Idle that finds an event pending, and a wake allocate nothing.
func TestIdleNoAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := handoffMachine(t).CPU(0)
	raise := func() { c.APIC.Raise(0x41, false) }
	if a := testing.AllocsPerRun(100, raise); a != 0 {
		t.Errorf("Raise: %v allocs, want 0", a)
	}
	idle := func() {
		raise()
		if err := c.Idle(nil); err != nil {
			t.Error(err)
		}
	}
	if a := testing.AllocsPerRun(100, idle); a != 0 {
		t.Errorf("Idle with an event pending: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, c.Wake); a != 0 {
		t.Errorf("Wake: %v allocs, want 0", a)
	}
}
