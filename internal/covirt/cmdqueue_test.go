package covirt

import (
	"sync"
	"testing"
	"testing/quick"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

func queueFixture(t *testing.T) (*hw.Machine, *cmdQueue, *hw.CPU) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	q, err := newCmdQueue(m.Mem, base)
	if err != nil {
		t.Fatal(err)
	}
	return m, q, m.CPU(0)
}

// noDoorbell is the doorbell for pushes that cannot fill the ring, or
// whose queue has a drainer of its own.
func noDoorbell() {}

func TestCmdQueuePushDrain(t *testing.T) {
	_, q, cpu := queueFixture(t)
	recs := []cmdRec{{Typ: CmdFlushRange, Arg0: 0x1000, Arg1: 0x2000}, {Typ: CmdEpoch, Arg0: 1}}
	if _, err := q.pushBatch(recs, noDoorbell, nil); err != nil {
		t.Fatal(err)
	}
	if q.epochApplied() != 0 {
		t.Error("epoch applied before drain")
	}
	// Warm a TLB entry in the to-be-flushed range.
	cpu.TLB.Insert(0x1800, hw.PageSize4K)
	spent := q.drain(cpu)
	if spent == 0 {
		t.Error("drain charged nothing")
	}
	if q.epochApplied() != 1 {
		t.Errorf("epoch applied = %d, want 1", q.epochApplied())
	}
	if cpu.TLB.Lookup(0x1800) {
		t.Error("flush command did not flush")
	}
	// Draining an empty queue is free.
	if q.drain(cpu) != 0 {
		t.Error("empty drain charged cycles")
	}
}

func TestCmdQueueFlushAll(t *testing.T) {
	_, q, cpu := queueFixture(t)
	cpu.TLB.Insert(0x1000, hw.PageSize4K)
	cpu.TLB.Insert(hw.PageSize1G, hw.PageSize2M)
	if _, err := q.pushBatch([]cmdRec{{Typ: CmdFlushAll}}, noDoorbell, nil); err != nil {
		t.Fatal(err)
	}
	q.drain(cpu)
	if cpu.TLB.Len() != 0 {
		t.Error("entries survived CmdFlushAll")
	}
}

// epochRecs returns n epoch markers numbered from first upward.
func epochRecs(first uint64, n int) []cmdRec {
	recs := make([]cmdRec, n)
	for i := range recs {
		recs[i] = cmdRec{Typ: CmdEpoch, Arg0: first + uint64(i)}
	}
	return recs
}

// Regression for the old hard-failure semantics: overflowing the ring must
// apply backpressure (publish what fits, ring the doorbell, park until the
// drainer frees slots) rather than fail. The doorbell here runs the drain
// synchronously, exactly as the NMI handler does on a parked idle core.
func TestCmdQueueFullBackpressure(t *testing.T) {
	_, q, cpu := queueFixture(t)
	if _, err := q.pushBatch(epochRecs(1, cmdqSlots), noDoorbell, nil); err != nil {
		t.Fatal(err)
	}
	// The ring is now full: a batch twice its size cannot fit even an
	// empty ring, so the push must stall at least once and still deliver
	// all records.
	var doorbells int
	var spent uint64
	wait, err := q.pushBatch(epochRecs(cmdqSlots+1, 2*cmdqSlots), func() { doorbells++; spent += q.drain(cpu) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doorbells == 0 {
		t.Error("overflowing push never rang the doorbell")
	}
	if wait == 0 {
		t.Error("overflowing push charged no stall cycles")
	}
	spent += q.drain(cpu)
	if want := uint64(3 * cmdqSlots); q.epochApplied() != want {
		t.Errorf("epoch applied = %d, want %d", q.epochApplied(), want)
	}
	if want := uint64(3*cmdqSlots) * cmdqFetchCycles; spent != want {
		t.Errorf("drains charged %d cycles, want %d (one fetch per record)", spent, want)
	}
	if q.depth() != 0 {
		t.Errorf("depth = %d after full drain", q.depth())
	}
}

// A pushBatch stalled on a full ring must abort when the enclave dies
// instead of parking forever.
func TestCmdQueueBackpressureAbortsOnDeath(t *testing.T) {
	_, q, _ := queueFixture(t)
	done := make(chan struct{})
	close(done) // enclave already dead; no drainer will ever run
	// One more record than the ring holds.
	if _, err := q.pushBatch(epochRecs(1, cmdqSlots+1), noDoorbell, done); err == nil {
		t.Error("overflow push on dead enclave returned nil")
	}
}

// A waiter on an epoch is released once the drain has completed every
// command pushed ahead of the epoch's marker.
func TestCmdQueueWaitCompleted(t *testing.T) {
	_, q, cpu := queueFixture(t)
	if _, err := q.pushBatch(epochRecs(1, 1), noDoorbell, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := q.waitEpoch(1, done); err != nil {
			t.Errorf("waitEpoch: %v", err)
		}
	}()
	q.drain(cpu)
	wg.Wait()
	// Waiting for an already-applied epoch returns immediately.
	if err := q.waitEpoch(1, done); err != nil {
		t.Fatal(err)
	}
}

func TestCmdQueueWaitAbortsOnDeath(t *testing.T) {
	_, q, _ := queueFixture(t)
	if _, err := q.pushBatch(epochRecs(1, 1), noDoorbell, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done) // the enclave is already dead
	errc := make(chan error, 1)
	go func() { errc <- q.waitEpoch(1, done) }()
	// Teardown wakes all waiters.
	q.wake()
	if err := <-errc; err == nil {
		t.Error("wait on dead enclave returned nil")
	}
}

// Regression: concurrent pushers (parking on a full ring), a drainer, and
// epoch waiters must be race-free, and a mid-flight enclave death must
// release every waiter. Pushers open epochs in push order under one lock,
// as the controller does under the enclave's ingest lock, so no epoch
// marker overtakes the flushes of an earlier one. Run under -race
// (scripts/check.sh does).
func TestCmdQueueConcurrentPushDrainWake(t *testing.T) {
	m, q, _ := queueFixture(t)
	// The drainer runs on its own core, as the real hypervisor NMI
	// handler does, while controller threads push from elsewhere.
	drainCPU := m.CPU(1)
	done := make(chan struct{})
	stop := make(chan struct{})

	drained := make(chan struct{})
	go func() { // hypervisor: drain until told to stop
		defer close(drained)
		for {
			q.drain(drainCPU)
			select {
			case <-stop:
				q.drain(drainCPU)
				return
			default:
			}
		}
	}()

	// Each push carries half a ring of flushes plus its epoch marker, so
	// concurrent pushes overflow the ring and park until the drainer
	// frees slots.
	var openMu sync.Mutex
	var epoch uint64
	openEpoch := func() (uint64, error) {
		openMu.Lock()
		defer openMu.Unlock()
		epoch++
		recs := make([]cmdRec, cmdqSlots/2, cmdqSlots/2+1)
		for i := range recs {
			recs[i] = cmdRec{Typ: CmdFlushAll}
		}
		_, err := q.pushBatch(append(recs, cmdRec{Typ: CmdEpoch, Arg0: epoch}), noDoorbell, done)
		return epoch, err
	}

	var wg sync.WaitGroup
	const pushers = 4
	const perPusher = 16
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func() { // controller threads: open an epoch, then wait for it
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				e, err := openEpoch()
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if err := q.waitEpoch(e, done); err != nil {
					t.Errorf("waitEpoch(%d): %v", e, err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-drained
	if want := uint64(pushers * perPusher); q.epochApplied() != want {
		t.Errorf("epoch applied = %d, want %d", q.epochApplied(), want)
	}

	// Now the dying-enclave path: a waiter parked on an epoch that will
	// never be applied must be released by teardown's wake.
	e, err := openEpoch()
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- q.waitEpoch(e, done) }()
	close(done) // enclave death
	q.wake()    // teardown releases waiters
	if err := <-errc; err == nil {
		t.Error("waiter survived enclave death")
	}
}

// Property: any sequence of flush-range commands leaves exactly the pages
// outside all flushed ranges in the TLB.
func TestCmdQueueFlushProperty(t *testing.T) {
	f := func(pages [6]uint8, flushes [3]uint8) bool {
		spec := hw.DefaultSpec()
		spec.MemPerNode = 1 << 30
		m, err := hw.NewMachine(spec)
		if err != nil {
			return false
		}
		q, err := newCmdQueue(m.Mem, hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K))
		if err != nil {
			return false
		}
		cpu := m.CPU(0)
		for _, p := range pages {
			cpu.TLB.Insert(uint64(p)*hw.PageSize4K, hw.PageSize4K)
		}
		flushed := map[uint64]bool{}
		for _, f := range flushes {
			start := uint64(f%32) * hw.PageSize4K
			if _, err := q.pushBatch([]cmdRec{{Typ: CmdFlushRange, Arg0: start, Arg1: 2 * hw.PageSize4K}}, noDoorbell, nil); err != nil {
				return false
			}
			flushed[start] = true
			flushed[start+hw.PageSize4K] = true
		}
		q.drain(cpu)
		for _, p := range pages {
			base := uint64(p) * hw.PageSize4K
			want := !flushed[base]
			if cpu.TLB.Lookup(base) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFeaturesString(t *testing.T) {
	cases := []struct {
		f    Features
		want string
	}{
		{FeaturesNone, "none"},
		{FeaturesMem, "mem+abort"},
		{FeaturesMemIPIVAPIC, "mem+ipi(vapic)+abort"},
		{FeaturesMemIPIPIV, "mem+ipi(piv)+abort"},
		{FeaturesAll, "mem+ipi(piv)+msr+io+abort"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%+v -> %q, want %q", c.f, got, c.want)
		}
	}
}

func TestIPIFilterSemantics(t *testing.T) {
	f := NewIPIFilter([]int{3, 4}, nil)
	// Own cores: any vector.
	if !f.Permitted(3, 0x10) || !f.Permitted(4, 0xFE) {
		t.Error("own-core IPI denied")
	}
	// Foreign core: denied until granted.
	if f.Permitted(7, 0x10) {
		t.Error("foreign IPI permitted without grant")
	}
	f.Grant(7, 0x10, authority.Cap{})
	if !f.Permitted(7, 0x10) {
		t.Error("granted IPI denied")
	}
	if f.Permitted(7, 0x11) {
		t.Error("grant leaked across vectors")
	}
	f.Revoke(7, 0x10)
	if f.Permitted(7, 0x10) {
		t.Error("revoked IPI permitted")
	}
	if f.Dropped.Load() != 3 {
		t.Errorf("dropped = %d, want 3", f.Dropped.Load())
	}
	if f.Checked.Load() != 6 {
		t.Errorf("checked = %d, want 6", f.Checked.Load())
	}
}

// With an authority table attached, a grant stops working the instant its
// backing key is revoked — no filter edit required.
func TestIPIFilterCapLiveness(t *testing.T) {
	tab := authority.NewTable()
	f := NewIPIFilter([]int{0}, tab)
	c := tab.Mint(1, authority.KindIPI, authority.RightSend, authority.IPIScope(7, 0x10), "test-ipi")
	f.Grant(7, 0x10, c)
	if !f.Permitted(7, 0x10) {
		t.Fatal("granted IPI denied")
	}
	if _, err := tab.Revoke(c); err != nil {
		t.Fatal(err)
	}
	if f.Permitted(7, 0x10) {
		t.Error("IPI permitted through a revoked key")
	}
}

func TestCovirtBootParamsRoundTrip(t *testing.T) {
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	addr := hw.AlignUp(m.Topo.Nodes[0].MemBase, hw.PageSize4K)
	in := &BootParams{NumCPUs: 4, CmdQueueBase: 0x10000, CmdQueueStride: CmdQueueStride, CmdQueueSlots: cmdqSlots, PiscesParams: 0x1000}
	if err := encodeBootParams(m.Mem, addr, in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeBootParams(m.Mem, addr)
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if err := m.Mem.Write64(addr, 0xBAD); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBootParams(m.Mem, addr); err == nil {
		t.Error("bad magic accepted")
	}
}
