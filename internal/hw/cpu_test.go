package hw

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	spec := DefaultSpec()
	spec.MemPerNode = 1 << 30 // keep test machines light
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestMachineLayout(t *testing.T) {
	m := testMachine(t)
	if len(m.CPUs) != 12 {
		t.Fatalf("cpus = %d, want 12", len(m.CPUs))
	}
	if m.Topo.NodeOfCore(0) != 0 || m.Topo.NodeOfCore(6) != 1 {
		t.Error("core-to-node mapping wrong")
	}
	if m.Topo.NodeOfCore(99) != -1 {
		t.Error("NodeOfCore(absent) should be -1")
	}
	if m.CPU(5) == nil || m.CPU(12) != nil || m.CPU(-1) != nil {
		t.Error("CPU() bounds wrong")
	}
	// Node 0 memory starts at 1 MiB (legacy hole), node 1 at the stride.
	if m.Topo.Nodes[0].MemBase != 1<<20 {
		t.Errorf("node0 base = %#x", m.Topo.Nodes[0].MemBase)
	}
	if m.Topo.Nodes[1].MemBase != nodeStride {
		t.Errorf("node1 base = %#x", m.Topo.Nodes[1].MemBase)
	}
}

func TestComputeAdvancesTSC(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	if err := c.Compute(1000); err != nil {
		t.Fatal(err)
	}
	if c.TSC != 1000*m.Costs.Compute {
		t.Errorf("TSC = %d", c.TSC)
	}
}

func TestMemAccessChargesWalkOnMiss(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	addr := m.Topo.Nodes[0].MemBase + 0x1000
	if err := c.MemAccess(addr, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	missCost := c.TSC
	before := c.TSC
	if err := c.MemAccess(addr, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	hitCost := c.TSC - before
	if hitCost >= missCost {
		t.Errorf("hit cost %d >= miss cost %d", hitCost, missCost)
	}
	wantMiss := uint64(c.GuestWalkLevels)*m.Costs.WalkPerLevel + m.Costs.MemDRAM
	if missCost != wantMiss {
		t.Errorf("miss cost = %d, want %d", missCost, wantMiss)
	}
	if hitCost != m.Costs.MemDRAM {
		t.Errorf("hit cost = %d, want %d", hitCost, m.Costs.MemDRAM)
	}
}

func TestNUMARemotePenalty(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0) // node 0
	local := m.Topo.Nodes[0].MemBase + 0x2000
	remote := m.Topo.Nodes[1].MemBase + 0x2000
	// Warm both translations so only data cost differs.
	if err := c.MemAccess(local, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	if err := c.MemAccess(remote, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	t0 := c.TSC
	if err := c.MemAccess(local, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	localCost := c.TSC - t0
	t0 = c.TSC
	if err := c.MemAccess(remote, false, AccessDRAM); err != nil {
		t.Fatal(err)
	}
	remoteCost := c.TSC - t0
	if remoteCost <= localCost {
		t.Errorf("remote %d <= local %d; NUMA penalty missing", remoteCost, localCost)
	}
	want := m.Costs.MemDRAM * m.Costs.RemoteNumer / m.Costs.RemoteDenom
	if remoteCost != want {
		t.Errorf("remote cost = %d, want %d", remoteCost, want)
	}
}

func TestMemStreamCostScalesWithLength(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	base := m.Topo.Nodes[0].MemBase
	if err := c.MemStream(base, 1<<16, false); err != nil {
		t.Fatal(err)
	}
	short := c.TSC
	c2 := m.CPU(1)
	if err := c2.MemStream(base+1<<20, 1<<20, false); err != nil {
		t.Fatal(err)
	}
	long := c2.TSC
	if long < short*10 {
		t.Errorf("1MiB stream (%d) not ~16x of 64KiB stream (%d)", long, short)
	}
}

func TestGuardedReadWrite(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	addr := m.Topo.Nodes[0].MemBase + 0x5000
	if err := c.Write64G(addr, 42); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read64G(addr)
	if err != nil || v != 42 {
		t.Fatalf("Read64G = %d, %v", v, err)
	}
	p := []byte("hello co-kernels")
	if err := c.WriteBytesG(addr+64, p); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if err := c.ReadBytesG(addr+64, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(p) {
		t.Errorf("round trip = %q", got)
	}
}

func TestNativeWildAccessCrashesMachine(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	// Unbacked physical address: native access is an unhandleable abort.
	err := c.MemAccess(0x0, true, AccessHot)
	if !IsFault(err, FaultMachineCrashed) {
		t.Fatalf("err = %v, want machine crash", err)
	}
	if !m.Crashed() {
		t.Fatal("machine not crashed")
	}
	if !strings.Contains(m.CrashReason(), "bus-error") {
		t.Errorf("crash reason = %q", m.CrashReason())
	}
	// Every other CPU is dead too.
	if err := m.CPU(7).Compute(1); !IsFault(err, FaultMachineCrashed) {
		t.Errorf("other cpu err = %v, want machine crash", err)
	}
}

func TestNativeWildWriteCorruptsOtherMemory(t *testing.T) {
	m := testMachine(t)
	victim := m.Topo.Nodes[1].MemBase + 0x100 // "someone else's" memory
	if err := m.Mem.Write64(victim, 0x1111); err != nil {
		t.Fatal(err)
	}
	c := m.CPU(0)
	// Backed but foreign: native execution happily corrupts it.
	if err := c.Write64G(victim, 0x6666); err != nil {
		t.Fatalf("wild write errored: %v", err)
	}
	v, err := m.Mem.Read64(victim)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x6666 {
		t.Errorf("victim = %#x, want corruption to 0x6666", v)
	}
}

func TestIPIDelivery(t *testing.T) {
	m := testMachine(t)
	src, dst := m.CPU(0), m.CPU(3)
	var got []uint8
	dst.SetIRQHandler(func(_ *CPU, v uint8, ext bool) {
		if ext {
			t.Error("IPI marked external")
		}
		got = append(got, v)
	})
	if err := src.SendIPI(3, 0x40); err != nil {
		t.Fatal(err)
	}
	if err := dst.Compute(1); err != nil { // delivery happens at dst's boundary
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0x40 {
		t.Fatalf("delivered = %v", got)
	}
	if dst.IRQsTaken != 1 {
		t.Errorf("IRQsTaken = %d", dst.IRQsTaken)
	}
	// IPI to a nonexistent core is dropped silently.
	if err := src.SendIPI(99, 0x41); err != nil {
		t.Errorf("IPI to absent core: %v", err)
	}
}

func TestInterruptPriority(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	var order []uint8
	c.SetIRQHandler(func(_ *CPU, v uint8, _ bool) { order = append(order, v) })
	c.APIC.Raise(0x30, false)
	c.APIC.Raise(0x80, false)
	c.APIC.Raise(0x31, false)
	if err := c.Compute(1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0x80 || order[1] != 0x31 || order[2] != 0x30 {
		t.Errorf("delivery order = %v, want high vectors first", order)
	}
}

func TestNMIHandling(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	nmis := 0
	c.SetNMIHandler(func(_ *CPU) { nmis++ })
	c.APIC.RaiseNMI()
	c.APIC.RaiseNMI()
	if err := c.Compute(1); err != nil {
		t.Fatal(err)
	}
	if nmis != 2 {
		t.Errorf("nmis = %d, want 2", nmis)
	}
	if c.APIC.NMICount != 2 {
		t.Errorf("NMICount = %d", c.APIC.NMICount)
	}
}

func TestTimerFires(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	ticks := 0
	c.SetIRQHandler(func(_ *CPU, v uint8, ext bool) {
		if v == 0xEF && ext {
			ticks++
		}
	})
	c.APIC.ArmTimer(c.TSC, 10_000, 0xEF)
	for i := 0; i < 100; i++ {
		if err := c.Compute(500); err != nil {
			t.Fatal(err)
		}
	}
	if ticks < 3 {
		t.Errorf("ticks = %d, want several over 50k+ cycles", ticks)
	}
	c.APIC.DisarmTimer()
	before := ticks
	for i := 0; i < 100; i++ {
		if err := c.Compute(500); err != nil {
			t.Fatal(err)
		}
	}
	if ticks != before {
		t.Error("timer fired while disarmed")
	}
}

func TestKillStopsCPU(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	c.Kill()
	if err := c.Compute(1); !IsFault(err, FaultEnclaveKilled) {
		t.Fatalf("err = %v, want enclave-killed", err)
	}
	c.Revive()
	if err := c.Compute(1); err != nil {
		t.Fatalf("after Revive: %v", err)
	}
}

func TestMSRAndIONative(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	if err := c.WRMSR(MSR_IA32_LSTAR, 0xFFFF800000001000); err != nil {
		t.Fatal(err)
	}
	v, err := c.RDMSR(MSR_IA32_LSTAR)
	if err != nil || v != 0xFFFF800000001000 {
		t.Fatalf("RDMSR = %#x, %v", v, err)
	}
	sink := &SerialSink{}
	m.Ports.Register(PortSerialCOM1, sink)
	for _, b := range []byte("ok") {
		if err := c.IOOut(PortSerialCOM1, uint32(b)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.String() != "ok" {
		t.Errorf("serial = %q", sink.String())
	}
	if v, err := c.IOIn(0x9999); err != nil || v != 0xFFFFFFFF {
		t.Errorf("floating port read = %#x, %v", v, err)
	}
}

func TestDoubleFaultCrashesNativeMachine(t *testing.T) {
	m := testMachine(t)
	err := m.CPU(0).RaiseDoubleFault("stack overflow in idt handler")
	if !IsFault(err, FaultMachineCrashed) {
		t.Fatalf("err = %v", err)
	}
	if !m.Crashed() {
		t.Fatal("machine survived native #DF")
	}
}

func TestFaultLog(t *testing.T) {
	m := testMachine(t)
	m.RecordFault(Fault{Kind: FaultEPTViolation, Addr: 0x123, CPU: 2})
	m.RecordFault(Fault{Kind: FaultGP, CPU: 3})
	fs := m.Faults()
	if len(fs) != 2 || fs[0].Kind != FaultEPTViolation || fs[1].CPU != 3 {
		t.Errorf("faults = %+v", fs)
	}
}

func TestIdleWakesOnEvent(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	seen := make(chan uint8, 1)
	c.SetIRQHandler(func(_ *CPU, v uint8, _ bool) { seen <- v })
	go func() {
		//covirt:allow physmem-errcheck delivery is observed via the seen channel
		m.CPU(1).SendIPI(0, 0x55)
	}()
	// Idle until the IPI arrives (Idle returns once it is pending).
	for {
		if err := c.Idle(nil); err != nil {
			t.Errorf("Idle: %v", err)
			return
		}
		select {
		case v := <-seen:
			if v != 0x55 {
				t.Errorf("vector = %#x", v)
			}
			return
		default:
		}
	}
}

// TestIdleReturnsWhenStopHolds: a stop that already holds ends Idle at
// once, and the halt charges nothing.
func TestIdleReturnsWhenStopHolds(t *testing.T) {
	c := testMachine(t).CPU(0)
	if err := c.Idle(func() bool { return true }); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.TSC != 0 || c.IRQsTaken != 0 || c.APIC.NMICount != 0 {
		t.Errorf("halt charged: TSC %d, IRQs %d, NMIs %d", c.TSC, c.IRQsTaken, c.APIC.NMICount)
	}
}

// TestIdleIgnoresTakenEvent: an interrupt a poll already took does not
// end a later Idle. The halted core wakes on the next real event, not at
// a point host scheduling picks.
func TestIdleIgnoresTakenEvent(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	c.APIC.Raise(0x41, false)
	if err := c.Compute(0); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- c.Idle(nil) }()
	waitParked(t, c.APIC.idle, 1)
	select {
	case err := <-errc:
		t.Fatalf("Idle returned with nothing pending: %v", err)
	default:
	}
	c.APIC.Raise(0x42, false)
	if err := waitResult(t, errc); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.IRQsTaken != 2 {
		t.Errorf("IRQs taken = %d, want 2", c.IRQsTaken)
	}
}

// TestIdleEndsOnKillAndCrash: a kill of the halted core, or its node's
// crash, ends Idle with the fault poll returns for it: same kind, CPU
// and message.
func TestIdleEndsOnKillAndCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(m *Machine)
	}{
		{"kill", func(m *Machine) { m.CPU(0).Kill() }},
		{"crash", func(m *Machine) { m.Crash("test: node down") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(t)
			c := m.CPU(0)
			errc := make(chan error, 1)
			go func() { errc <- c.Idle(nil) }()
			waitParked(t, c.APIC.idle, 1)
			tc.stop(m)
			got := waitResult(t, errc)
			want := c.deliver()
			var gf, wf *Fault
			if !errors.As(got, &gf) || !errors.As(want, &wf) || *gf != *wf {
				t.Errorf("Idle = %v, poll = %v", got, want)
			}
		})
	}
}

// TestStallNoIRQ: a core stalled with interrupts off leaves a raised
// vector pending and wakes only for a kill or a crash, which it reports.
func TestStallNoIRQ(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(m *Machine)
		kind FaultKind
	}{
		{"kill", func(m *Machine) { m.CPU(0).Kill() }, FaultEnclaveKilled},
		{"crash", func(m *Machine) { m.Crash("test: node down") }, FaultMachineCrashed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine(t)
			c := m.CPU(0)
			errc := make(chan error, 1)
			go func() { errc <- c.StallNoIRQ(1000) }()
			waitParked(t, c.APIC.idle, 1)
			c.APIC.Raise(0x41, false)
			c.Wake()
			select {
			case err := <-errc:
				t.Fatalf("stall ended on a raise or a wake: %v", err)
			case <-time.After(20 * time.Millisecond):
			}
			tc.stop(m)
			if err := waitResult(t, errc); !IsFault(err, tc.kind) {
				t.Errorf("StallNoIRQ = %v, want %v", err, tc.kind)
			}
			if !c.APIC.HasPending() || c.IRQsTaken != 0 {
				t.Errorf("stall serviced the raise: pending %v, IRQs %d", c.APIC.HasPending(), c.IRQsTaken)
			}
			if c.TSC != 1000 {
				t.Errorf("TSC = %d, want the stall's 1000", c.TSC)
			}
		})
	}
}

// TestWakeEndsIdleWhoseStopHolds: Wake makes a halted core re-check its
// stop, and posts no event: the core returns with its TSC unchanged.
func TestWakeEndsIdleWhoseStopHolds(t *testing.T) {
	c := testMachine(t).CPU(0)
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() { errc <- c.Idle(stop.Load) }()
	waitParked(t, c.APIC.idle, 1)
	stop.Store(true)
	c.Wake()
	if err := waitResult(t, errc); err != nil {
		t.Fatalf("Idle: %v", err)
	}
	if c.TSC != 0 || c.IRQsTaken != 0 || c.APIC.NMICount != 0 {
		t.Errorf("wake charged: TSC %d, IRQs %d, NMIs %d", c.TSC, c.IRQsTaken, c.APIC.NMICount)
	}
}

// TestTSCSnapshotPublication pins where a core publishes its TSC. Running
// with its timer armed, the core's snapshot never leads its TSC, equals the
// TSC each tick was taken at, and after an operation that took a tick
// equals the TSC. A core halted in Idle reads exactly its TSC, though the
// compute it ran before the halt took no event and published nothing.
func TestTSCSnapshotPublication(t *testing.T) {
	c := testMachine(t).CPU(0)
	cs := c.Costs()
	const interval = 20_000
	ticks := 0
	c.SetIRQHandler(func(c *CPU, _ uint8, _ bool) {
		// The slow path publishes before it charges the delivery.
		if lag := c.TSC - c.TSCSnapshot(); lag != cs.IntrDeliver+cs.GuestIRQ {
			t.Errorf("tick %d: snapshot lags the TSC by %d in the handler, want the delivery's %d",
				ticks, lag, cs.IntrDeliver+cs.GuestIRQ)
		}
		ticks++
	})
	c.APIC.ArmTimer(c.TSC, interval, 0x42)
	addrs := gatherAddrs(4096, 1<<21, 64<<20, nodeStride+4<<20, 64<<20)
	for i := range 600 {
		irqs := c.IRQsTaken
		var err error
		switch i % 4 {
		case 0:
			err = c.Compute(uint64(i) * 37 % 1500)
		case 1:
			err = c.MemAccess(addrs[i], i%8 == 1, AccessDRAM)
		case 2:
			err = c.AccessGather(addrs[i:i+8], 6, false, AccessDRAM)
		case 3:
			err = c.MemStream(1<<21+uint64(i)*PageSize4K, 3*PageSize4K+100, false)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		snap := c.TSCSnapshot()
		switch {
		case snap > c.TSC:
			t.Fatalf("op %d: snapshot %d leads the TSC %d", i, snap, c.TSC)
		case c.TSC-snap >= 2*interval:
			t.Fatalf("op %d: snapshot %d lags the TSC %d by more than a timer period and an operation", i, snap, c.TSC)
		case i%4 < 2 && c.IRQsTaken != irqs && snap != c.TSC:
			t.Fatalf("op %d took a tick but left the snapshot at %d, TSC %d", i, snap, c.TSC)
		}
	}
	if ticks < 20 {
		t.Fatalf("%d ticks; want the timer to fire through the run", ticks)
	}

	c.APIC.DisarmTimer()
	if err := c.Compute(12_345); err != nil {
		t.Fatal(err)
	}
	if c.TSCSnapshot() == c.TSC {
		t.Fatal("the compute before the halt published the TSC, so the halt's own publication goes untested")
	}
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() { errc <- c.Idle(stop.Load) }()
	waitParked(t, c.APIC.idle, 1)
	if got := c.TSCSnapshot(); got != c.TSC {
		t.Errorf("halted core's snapshot %d, TSC %d", got, c.TSC)
	}
	stop.Store(true)
	c.Wake()
	if err := waitResult(t, errc); err != nil {
		t.Fatalf("Idle: %v", err)
	}
}

func TestCPUIDAndTSC(t *testing.T) {
	m := testMachine(t)
	c := m.CPU(0)
	if err := c.CPUID(); err != nil {
		t.Fatal(err)
	}
	t1 := c.ReadTSC()
	t2 := c.ReadTSC()
	if t2 <= t1 {
		t.Error("TSC not monotonic across rdtsc")
	}
}
