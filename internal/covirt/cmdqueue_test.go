package covirt

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

// queueFixture builds a queue on a fresh machine. Firing the returned
// latch stands in for the enclave's teardown.
func queueFixture(t *testing.T) (*hw.Machine, *cmdQueue, *hw.CPU, *hw.Latch) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	teardown := hw.NewLatch(errors.New("test: enclave torn down"))
	return m, newCmdQueue(m, teardown), m.CPU(0), teardown
}

func TestCmdQueuePushDrain(t *testing.T) {
	_, q, cpu, _ := queueFixture(t)
	q.push([]cmdRec{{Typ: CmdFlushRange, Arg0: 0x1000, Arg1: 0x2000}, {Typ: CmdEpoch, Arg0: 1}})
	if q.epochApplied() != 0 {
		t.Error("epoch applied before drain")
	}
	if q.depth() != 2 {
		t.Errorf("depth = %d after pushing 2 records", q.depth())
	}
	// Warm a TLB entry in the to-be-flushed range.
	cpu.TLB.Insert(0x1800, hw.PageSize4K)
	// One fetch per record, and the range overlaps one 2 MiB leaf.
	if got, want := q.drain(cpu), 2*cmdqFetchCycles+cpu.Costs().TLBFlushPage; got != want {
		t.Errorf("drain charged %d cycles, want %d", got, want)
	}
	if q.epochApplied() != 1 {
		t.Errorf("epoch applied = %d, want 1", q.epochApplied())
	}
	if q.depth() != 0 {
		t.Errorf("depth = %d after the drain", q.depth())
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
	_, q, cpu, _ := queueFixture(t)
	cpu.TLB.Insert(0x1000, hw.PageSize4K)
	cpu.TLB.Insert(hw.PageSize1G, hw.PageSize2M)
	q.push([]cmdRec{{Typ: CmdFlushAll}})
	q.drain(cpu)
	if cpu.TLB.Len() != 0 {
		t.Error("entries survived CmdFlushAll")
	}
}

// The applied word only rises: a drain whose highest marker is older than
// the applied epoch leaves the word where it is.
func TestCmdQueueEpochMonotonic(t *testing.T) {
	_, q, cpu, _ := queueFixture(t)
	q.push(epochRecs(5, 1))
	q.drain(cpu)
	q.push(epochRecs(3, 1))
	q.drain(cpu)
	if q.epochApplied() != 5 {
		t.Errorf("epoch applied = %d after a stale marker, want 5", q.epochApplied())
	}
}

// The hypervisor allocates nothing after setup: once a first epoch has
// sized the record slice, pushing an epoch of flushAllThreshold ranges and
// its marker, then draining it, allocates nothing.
func TestCmdQueueSteadyStateAllocs(t *testing.T) {
	_, q, cpu, _ := queueFixture(t)
	recs := make([]cmdRec, 0, flushAllThreshold+1)
	for i := range flushAllThreshold {
		recs = append(recs, cmdRec{Typ: CmdFlushRange, Arg0: uint64(2*i) * hw.PageSize2M, Arg1: hw.PageSize2M})
	}
	recs = append(recs, cmdRec{Typ: CmdEpoch})
	epoch := func() {
		recs[len(recs)-1].Arg0++
		q.push(recs)
		q.drain(cpu)
	}
	epoch() // warm-up: sizes the queue's record slice
	if allocs := testing.AllocsPerRun(100, epoch); allocs != 0 {
		t.Errorf("a %d-record epoch's push and drain allocate %.1f times, want 0", len(recs), allocs)
	}
	if want := recs[len(recs)-1].Arg0; q.epochApplied() != want {
		t.Errorf("epoch applied = %d, want %d", q.epochApplied(), want)
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

// A waiter on an epoch is released once the drain has completed every
// command pushed ahead of the epoch's marker.
func TestCmdQueueWaitCompleted(t *testing.T) {
	_, q, cpu, _ := queueFixture(t)
	q.push(epochRecs(1, 1))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := q.waitEpoch(1); err != nil {
			t.Errorf("waitEpoch: %v", err)
		}
	}()
	q.drain(cpu)
	wg.Wait()
	// Waiting for an already-applied epoch returns immediately.
	if err := q.waitEpoch(1); err != nil {
		t.Fatal(err)
	}
}

// An epoch waiter wakes when the enclave is torn down or the node
// crashes, whether the stop comes before the wait or while it sleeps.
func TestCmdQueueWaitAbortsOnDeath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool
		stop   func(m *hw.Machine, teardown *hw.Latch)
	}{
		{"teardown-before", true, func(_ *hw.Machine, l *hw.Latch) { l.Fire() }},
		{"teardown-while-parked", false, func(_ *hw.Machine, l *hw.Latch) { l.Fire() }},
		{"crash-while-parked", false, func(m *hw.Machine, _ *hw.Latch) { m.Crash("test: node down") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, q, _, teardown := queueFixture(t)
			q.push(epochRecs(1, 1))
			if tc.before {
				tc.stop(m, teardown)
			}
			errc := make(chan error, 1)
			go func() { errc <- q.waitEpoch(1) }()
			if !tc.before {
				//covirt:allow queue-protocol the test waits until the waiter is parked
				for q.wait.Parked() == 0 {
					runtime.Gosched()
				}
				tc.stop(m, teardown)
			}
			select {
			case err := <-errc:
				if err == nil {
					t.Error("wait on a dead enclave returned nil")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("epoch waiter still parked 30 s after the stop")
			}
		})
	}
}

// Regression: concurrent pushers, a drainer, and epoch waiters must be
// race-free, and a mid-flight enclave death must release every waiter.
// Pushers open epochs in push order under one lock, as the controller
// does under the enclave's ingest lock, so no epoch marker overtakes the
// flushes of an earlier one. Run under -race (scripts/check.sh does).
func TestCmdQueueConcurrentPushDrainWake(t *testing.T) {
	m, q, _, teardown := queueFixture(t)
	// The drainer runs on its own core, as the real hypervisor NMI
	// handler does, while controller threads push from elsewhere.
	drainCPU := m.CPU(1)
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

	// Each push carries a batch of flushes plus its epoch marker.
	var openMu sync.Mutex
	var epoch uint64
	openEpoch := func() uint64 {
		openMu.Lock()
		defer openMu.Unlock()
		epoch++
		recs := make([]cmdRec, 32, 33)
		for i := range recs {
			recs[i] = cmdRec{Typ: CmdFlushAll}
		}
		q.push(append(recs, cmdRec{Typ: CmdEpoch, Arg0: epoch}))
		return epoch
	}

	var wg sync.WaitGroup
	const pushers = 4
	const perPusher = 16
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func() { // controller threads: open an epoch, then wait for it
			defer wg.Done()
			for i := 0; i < perPusher; i++ {
				e := openEpoch()
				if err := q.waitEpoch(e); err != nil {
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
	// never be applied must be released by the teardown latch.
	e := openEpoch()
	errc := make(chan error, 1)
	go func() { errc <- q.waitEpoch(e) }()
	teardown.Fire() // enclave death releases waiters
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
		q := newCmdQueue(m, nil)
		cpu := m.CPU(0)
		for _, p := range pages {
			cpu.TLB.Insert(uint64(p)*hw.PageSize4K, hw.PageSize4K)
		}
		flushed := map[uint64]bool{}
		for _, f := range flushes {
			start := uint64(f%32) * hw.PageSize4K
			q.push([]cmdRec{{Typ: CmdFlushRange, Arg0: start, Arg1: 2 * hw.PageSize4K}})
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
	in := &BootParams{NumCPUs: 4, PiscesParams: 0x1000}
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
