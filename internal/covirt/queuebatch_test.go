package covirt_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
)

// addAndWarm grants count 2 MiB extents to enc and warms every enclave
// core's TLB with one page inside each, returning the extents.
func addAndWarm(t *testing.T, r *rig, enc *pisces.Enclave, k *kitten.Kernel, cores, count int) []hw.Extent {
	t.Helper()
	exts := make([]hw.Extent, 0, count)
	for i := 0; i < count; i++ {
		ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext)
	}
	for core := 0; core < cores; core++ {
		exts := exts
		task, _ := k.Spawn("warm", core, func(e *kitten.Env) error {
			for _, ext := range exts {
				e.Access(ext.Start+4096, false, hw.AccessHot)
			}
			return nil
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return exts
}

// TestEpochCoalescingEquivalence proves the invalidation semantics of the
// coalesced path: a batched removal with range merging on and the same
// removal with merging off must leave every enclave core's TLB in the same
// state (no stale translation for any removed page), while the coalesced
// run pushes strictly fewer flush commands. Both runs close exactly one
// epoch per batch.
func TestEpochCoalescingEquivalence(t *testing.T) {
	const cores, extents = 2, 4
	for _, coalesce := range []bool{true, false} {
		r := newRig(t, covirt.FeaturesMem)
		r.ctrl.SetCoalescing(coalesce)
		enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
		exts := addAndWarm(t, r, enc, k, cores, extents)
		if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
			t.Fatalf("coalesce=%v: %v", coalesce, err)
		}
		for core := 0; core < cores; core++ {
			for _, ext := range exts {
				if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
					t.Errorf("coalesce=%v: core %d holds a stale translation for %v", coalesce, core, ext)
				}
			}
		}
		qs := r.ctrl.QueueStatsFor(enc.ID)
		if qs.Ingest.Epochs != 1 {
			t.Errorf("coalesce=%v: epochs = %d, want 1", coalesce, qs.Ingest.Epochs)
		}
		// Adjacent 2 MiB grants merge into one range: one flush per core
		// coalesced, one per extent per core verbatim.
		want := uint64(cores * extents)
		if coalesce {
			want = uint64(cores)
		}
		if qs.Ingest.FlushCmds != want {
			t.Errorf("coalesce=%v: flush cmds = %d, want %d", coalesce, qs.Ingest.FlushCmds, want)
		}
		if coalesce && qs.Ingest.FlushCmdsSaved == 0 {
			t.Error("coalescing saved no flush commands")
		}
	}
}

// TestBatchedRemoveFlushAllThreshold: past the range-count threshold the
// coalesced epoch collapses to a single CmdFlushAll per core, and every
// removed translation is still gone.
func TestBatchedRemoveFlushAllThreshold(t *testing.T) {
	const cores = 2
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
	// Interleave two enclave-owned regions so merging cannot collapse the
	// batch below the threshold: grant 2 MiB extents, keeping every other
	// one, then remove the 9+ disjoint survivors in one batch.
	var keep, remove []hw.Extent
	for i := 0; i < 20; i++ {
		ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			remove = append(remove, ext)
		} else {
			keep = append(keep, ext)
		}
	}
	for core := 0; core < cores; core++ {
		remove := remove
		task, _ := k.Spawn("warm", core, func(e *kitten.Env) error {
			for _, ext := range remove {
				e.Access(ext.Start+4096, false, hw.AccessHot)
			}
			return nil
		})
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.h.Pisces.RemoveMemoryBatch(enc, remove); err != nil {
		t.Fatal(err)
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	// 10 disjoint ranges > flushAllThreshold: one CmdFlushAll per core.
	if qs.Ingest.FlushCmds != cores {
		t.Errorf("flush cmds = %d, want %d (one CmdFlushAll per core)", qs.Ingest.FlushCmds, cores)
	}
	for core := 0; core < cores; core++ {
		for _, ext := range remove {
			if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
	for _, ext := range keep {
		if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefusedRemovalClosesNoEpoch removes an extent the co-kernel refuses
// to give back, because a kernel allocation holds it. Nothing left the
// EPT, so the aborted batch's closer must not admit an event, close an
// epoch or interrupt an enclave core.
func TestRefusedRemovalClosesNoEpoch(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 64<<20)
	ext, err := r.h.Pisces.AddMemory(enc, 0, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The boot extent has less than 128 MiB free, so this allocation
	// overlaps the granted extent.
	held, err := k.AllocMemory(0, ext.Size)
	if err != nil {
		t.Fatal(err)
	}
	if held.Start >= ext.End() || ext.Start >= held.End() {
		t.Fatalf("kernel allocation %v does not overlap the granted extent %v", held, ext)
	}
	pre := r.ctrl.QueueStatsFor(enc.ID).Ingest
	preTSC := k.CPU(1).TSCSnapshot()
	if err := r.h.Pisces.RemoveMemory(enc, ext); err == nil {
		t.Fatal("removal of an extent the kernel holds succeeded")
	}
	post := r.ctrl.QueueStatsFor(enc.ID).Ingest
	if post.Epochs != pre.Epochs || post.Events != pre.Events {
		t.Errorf("refused removal moved ingest: epochs %d -> %d, events %d -> %d",
			pre.Epochs, post.Epochs, pre.Events, post.Events)
	}
	if tsc := k.CPU(1).TSCSnapshot(); tsc != preTSC {
		t.Errorf("refused removal charged core 1 %d cycles", tsc-preTSC)
	}
}

// TestCrashReleasesLongcallWaitingOnEpoch crashes an enclave while its
// longcall service waits for a shootdown epoch that a core stalled with
// interrupts off will never apply. Linuxhost's handler waits for the
// service before the controller's teardown runs, so ReportCrash returns
// only if the queue wait itself observes the enclave's death.
func TestCrashReleasesLongcallWaitingOnEpoch(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 128<<20)
	mem, err := r.h.HostAlloc(0, hw.PageSize2M)
	if err != nil {
		t.Fatal(err)
	}
	defer r.h.HostFree(mem)
	seg, err := r.h.Master.Reg.Make(0x57A11, r.h.Pisces.RootMem, []hw.Extent{mem})
	if err != nil {
		t.Fatal(err)
	}
	stalling := make(chan struct{})
	if _, err := k.Spawn("stall", 1, func(e *kitten.Env) error {
		close(stalling)
		return e.CPU.StallNoIRQ(1)
	}); err != nil {
		t.Fatal(err)
	}
	<-stalling
	if _, err := k.Spawn("detach", 0, func(e *kitten.Env) error {
		if _, err := e.XemAttach(seg.ID); err != nil {
			return err
		}
		return e.XemDetach(seg.ID)
	}); err != nil {
		t.Fatal(err)
	}
	// Once the detach's shootdown is queued for the stalled core, the
	// service is in (or entering) its wait for that core's epoch.
	deadline := time.Now().Add(30 * time.Second)
	for r.ctrl.PendingCommands(enc, enc.Cores[1]) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detach never queued a shootdown for the stalled core")
		}
		runtime.Gosched()
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		r.h.Pisces.ReportCrash(enc, "test: crash during an epoch wait")
	}()
	select {
	case <-crashed:
	case <-time.After(30 * time.Second):
		t.Fatal("ReportCrash hung: the longcall service never left its epoch wait")
	}
}

// TestOldGeometryBackpressure is the end-to-end regression for the hard
// "command queue full" failure that the pre-batching 8-slot ring hit: with
// coalescing off, a 72-extent batch pushes 73 records per core into the
// 64-slot ring — the old code errored out of the unmap; the new path parks
// under backpressure and completes, charging the stall.
func TestOldGeometryBackpressure(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	r.ctrl.SetCoalescing(false)
	enc, k := r.boot(t, "old", 2, []int{0}, 128<<20)

	exts := addAndWarm(t, r, enc, k, 2, 72)
	if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
		t.Fatalf("batched remove overflowing the ring: %v", err)
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	if qs.Slots != 64 {
		t.Fatalf("ring slots = %d, want 64", qs.Slots)
	}
	if qs.Ingest.StallCycles == 0 {
		t.Error("overflowing the ring charged no backpressure stall")
	}
	for core := 0; core < 2; core++ {
		for _, ext := range exts {
			if k.CPU(core).TLB.Lookup(ext.Start + 4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
}

// TestQoSStarvation measures the admission isolation property: a
// grant-storming enclave is paced by its token bucket (admission waits
// accumulate) while an interleaved well-behaved victim is admitted without
// a single wait — its per-event apply cost, including p99, is identical to
// a run with no stormer at all, and to a run with no admission policy.
func TestQoSStarvation(t *testing.T) {
	policy := covirt.QoS{Burst: 8, CyclesPerToken: 10000}
	const victimPairs = 4

	// victimCosts drives the victim's event sequence on rig r and returns
	// the per-remove-event costs observed on the bus.
	victimCosts := func(r *rig, victim *pisces.Enclave, storm func(i int)) []uint64 {
		var costs []uint64
		r.h.Pisces.Bus.Subscribe(func(ev *pisces.Event) error {
			if ev.Kind == pisces.EvMemRemovePost && ev.Enclave == victim {
				costs = append(costs, ev.Cost)
			}
			return nil
		})
		for i := 0; i < victimPairs; i++ {
			if storm != nil {
				storm(i)
			}
			ext, err := r.h.Pisces.AddMemory(victim, 0, 2<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.h.Pisces.RemoveMemory(victim, ext); err != nil {
				t.Fatal(err)
			}
		}
		return costs
	}

	// Control: the victim alone under the same QoS policy.
	ctl := newRig(t, covirt.FeaturesMem)
	ctl.ctrl.SetQoS(policy)
	victimAlone, _ := ctl.boot(t, "victim", 1, []int{0}, 128<<20)
	baseline := victimCosts(ctl, victimAlone, nil)
	if q := ctl.ctrl.QueueStatsFor(victimAlone.ID); q.Ingest.AdmissionWaits != 0 {
		t.Fatalf("lone victim hit %d admission waits; the bucket must never empty", q.Ingest.AdmissionWaits)
	}

	// QoS off: a bucket the victim never empties must cost nothing, so its
	// events cost exactly what they cost with no admission policy at all.
	off := newRig(t, covirt.FeaturesMem)
	victimOff, _ := off.boot(t, "victim", 1, []int{0}, 128<<20)
	unpoliced := victimCosts(off, victimOff, nil)
	if len(unpoliced) != len(baseline) {
		t.Fatalf("victim events = %d without QoS, %d under it", len(unpoliced), len(baseline))
	}
	for i := range unpoliced {
		if unpoliced[i] != baseline[i] {
			t.Errorf("victim event %d cost %d without QoS, %d under an unexhausted bucket", i, unpoliced[i], baseline[i])
		}
	}

	// Measured: the victim interleaved with a storming neighbor that
	// bursts 10 grant/revoke pairs (20 admissions) before every victim
	// pair.
	r := newRig(t, covirt.FeaturesMem)
	r.ctrl.SetQoS(policy)
	stormer, _ := r.boot(t, "stormer", 1, []int{0}, 128<<20)
	victim, _ := r.boot(t, "victim", 1, []int{0}, 128<<20)
	costs := victimCosts(r, victim, func(int) {
		for s := 0; s < 10; s++ {
			ext, err := r.h.Pisces.AddMemory(stormer, 0, 2<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.h.Pisces.RemoveMemory(stormer, ext); err != nil {
				t.Fatal(err)
			}
		}
	})

	sq := r.ctrl.QueueStatsFor(stormer.ID)
	if sq.Ingest.AdmissionWaits == 0 {
		t.Error("storming enclave was never paced by its token bucket")
	}
	vq := r.ctrl.QueueStatsFor(victim.ID)
	if vq.Ingest.AdmissionWaits != 0 {
		t.Errorf("victim enclave hit %d admission waits; QoS leaked across enclaves", vq.Ingest.AdmissionWaits)
	}
	if len(costs) != len(baseline) {
		t.Fatalf("victim events = %d with stormer, %d alone", len(costs), len(baseline))
	}
	for i := range costs {
		if costs[i] != baseline[i] {
			t.Errorf("victim event %d cost %d with stormer, %d alone; p99 not flat", i, costs[i], baseline[i])
		}
	}
}

// TestConcurrentMultiEnclaveIngest is the -race stress for the ingest
// path: several enclaves push grant/revoke traffic (single events and
// batches) concurrently while an observer polls queue statistics. Any data
// race between pushers, the per-core drainers, and the stats snapshots is
// the failure.
func TestConcurrentMultiEnclaveIngest(t *testing.T) {
	const enclaves = 3
	r := newRig(t, covirt.FeaturesMem)
	r.ctrl.SetQoS(covirt.QoS{Burst: 64, CyclesPerToken: 1000})
	// The rig donates three cores per node; the third two-core enclave
	// straddles both nodes.
	nodeSets := [][]int{{0}, {1}, {0, 1}}
	encs := make([]*pisces.Enclave, enclaves)
	for i := range encs {
		encs[i], _ = r.boot(t, fmt.Sprintf("lwk%d", i), 2, nodeSets[i], 64<<20)
	}

	iters := 24
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	observerDone := make(chan struct{})
	go func() { // observer: stats snapshots race against pushers/drainers
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, enc := range encs {
				_ = r.ctrl.QueueStatsFor(enc.ID)
			}
		}
	}()
	for i, enc := range encs {
		wg.Add(1)
		go func(node int, enc *pisces.Enclave) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if it%3 == 0 { // batched revoke
					var exts []hw.Extent
					for j := 0; j < 4; j++ {
						ext, err := r.h.Pisces.AddMemory(enc, node, 2<<20)
						if err != nil {
							t.Errorf("enclave %d: add: %v", enc.ID, err)
							return
						}
						exts = append(exts, ext)
					}
					if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
						t.Errorf("enclave %d: batch remove: %v", enc.ID, err)
						return
					}
					continue
				}
				ext, err := r.h.Pisces.AddMemory(enc, node, 2<<20)
				if err != nil {
					t.Errorf("enclave %d: add: %v", enc.ID, err)
					return
				}
				if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
					t.Errorf("enclave %d: remove: %v", enc.ID, err)
					return
				}
			}
		}(i%2, enc)
	}
	wg.Wait()
	close(stop)
	<-observerDone

	for _, enc := range encs {
		qs := r.ctrl.QueueStatsFor(enc.ID)
		if qs == nil {
			t.Fatalf("no stats for enclave %d", enc.ID)
		}
		if qs.Ingest.Epochs == 0 || qs.Ingest.FlushCmds == 0 {
			t.Errorf("enclave %d saw no ingest traffic: %+v", enc.ID, qs.Ingest)
		}
		for core, d := range qs.Depth {
			if d != 0 {
				t.Errorf("enclave %d core %d left %d undrained records", enc.ID, core, d)
			}
		}
	}
}

// TestStatusForConcurrentMapUnmap is the -race probe for the status
// counters: a host grant/revoke loop and a guest XEMEM attach/detach loop
// map and unmap one enclave's EPT concurrently while StatusFor polls it.
// Every map and unmap must be counted exactly once, and the flush count
// must match the ingest statistics.
func TestStatusForConcurrentMapUnmap(t *testing.T) {
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", 2, []int{0}, 64<<20)
	seg, err := r.h.HostAlloc(0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	const name = "status.race"
	if _, err := r.h.Master.Reg.Make(pisces.NameHash(name), r.h.Pisces.RootMem, []hw.Extent{seg}); err != nil {
		t.Fatal(err)
	}
	iters := 24
	if testing.Short() {
		iters = 8
	}
	base := r.ctrl.StatusFor(enc.ID)

	stop := make(chan struct{})
	observerDone := make(chan struct{})
	go func() { // observer: status snapshots race against both mappers
		defer close(observerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.ctrl.StatusFor(enc.ID)
		}
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // host: grant and revoke
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ext, err := r.h.Pisces.AddMemory(enc, 0, 2<<20)
			if err != nil {
				t.Errorf("add: %v", err)
				return
			}
			if err := r.h.Pisces.RemoveMemory(enc, ext); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
		}
	}()
	go func() { // guest: attach and detach
		defer wg.Done()
		task, err := k.Spawn("xemem", 1, func(e *kitten.Env) error {
			segid, err := e.XemGet(name)
			if err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				if _, err := e.XemAttach(segid); err != nil {
					return err
				}
				if err := e.XemDetach(segid); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = task.Wait()
		}
		if err != nil {
			t.Errorf("guest: %v", err)
		}
	}()
	wg.Wait()
	close(stop)
	<-observerDone

	st := r.ctrl.StatusFor(enc.ID)
	if got, want := st.MapOps-base.MapOps, uint64(2*iters); got != want {
		t.Errorf("map ops = %d, want %d", got, want)
	}
	if got, want := st.UnmapOps-base.UnmapOps, uint64(2*iters); got != want {
		t.Errorf("unmap ops = %d, want %d", got, want)
	}
	if qs := r.ctrl.QueueStatsFor(enc.ID); st.FlushCmds != qs.Ingest.FlushCmds {
		t.Errorf("status flush cmds = %d, ingest stats %d", st.FlushCmds, qs.Ingest.FlushCmds)
	}
}
