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

// TestEpochCoalescingEquivalence checks the invalidation semantics of the
// coalesced ingest path: a batched removal must leave no stale translation
// for any removed page on any enclave core, close exactly one epoch, and
// merge the adjacent grants into one flush command per core, saving the
// per-extent ones.
func TestEpochCoalescingEquivalence(t *testing.T) {
	const cores, extents = 2, 4
	r := newRig(t, covirt.FeaturesMem)
	enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
	exts := addAndWarm(t, r, enc, k, cores, extents)
	if err := r.h.Pisces.RemoveMemoryBatch(enc, exts); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < cores; core++ {
		for _, ext := range exts {
			if cached(t, k, core, ext.Start+4096) {
				t.Errorf("core %d holds a stale translation for %v", core, ext)
			}
		}
	}
	qs := r.ctrl.QueueStatsFor(enc.ID)
	if qs.Ingest.Epochs != 1 {
		t.Errorf("epochs = %d, want 1", qs.Ingest.Epochs)
	}
	// Adjacent 2 MiB grants merge into one range: one flush per core.
	if qs.Ingest.FlushCmds != cores {
		t.Errorf("flush cmds = %d, want %d", qs.Ingest.FlushCmds, cores)
	}
	if qs.Ingest.FlushCmdsSaved == 0 {
		t.Error("coalescing saved no flush commands")
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
			if cached(t, k, core, ext.Start+4096) {
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

// TestEpochRecordBound pins the bound that lets pushEpoch hold the
// per-core lock across its pushes: however many extents a batch removes,
// its epoch pushes at most FlushAllThreshold+1 records to each core, so
// the 64-slot ring (empty at every epoch's start) never parks the push.
// Each shape removes 72 extents, the batch that overflowed the ring when
// every extent was flushed separately; a batch of exactly
// FlushAllThreshold disjoint extents reaches the bound.
func TestEpochRecordBound(t *testing.T) {
	const cores = 2
	for _, tc := range []struct {
		name      string
		remove    int // extents removed in one batch
		disjoint  bool
		flushRecs uint64 // flush records per core (the CmdEpoch marker aside)
	}{
		{"adjacent-72", 72, false, 1},
		{"disjoint-72", 72, true, 1}, // one CmdFlushAll
		{"disjoint-threshold", covirt.FlushAllThreshold, true, covirt.FlushAllThreshold},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, covirt.FeaturesMem)
			enc, k := r.boot(t, "lwk", cores, []int{0}, 128<<20)
			// A disjoint batch interleaves kept grants between the
			// removed ones, so no two removed extents merge.
			stride := 1
			if tc.disjoint {
				stride = 2
			}
			granted := addAndWarm(t, r, enc, k, cores, tc.remove*stride)
			var remove []hw.Extent
			for i := 0; i < len(granted); i += stride {
				remove = append(remove, granted[i])
			}
			if err := r.h.Pisces.RemoveMemoryBatch(enc, remove); err != nil {
				t.Fatal(err)
			}
			qs := r.ctrl.QueueStatsFor(enc.ID)
			if qs.Slots != 64 {
				t.Fatalf("ring slots = %d, want 64", qs.Slots)
			}
			in := qs.Ingest
			if in.Epochs != 1 {
				t.Errorf("epochs = %d, want 1", in.Epochs)
			}
			perCore := in.FlushCmds / cores
			if perCore != tc.flushRecs {
				t.Errorf("flush records per core = %d, want %d", perCore, tc.flushRecs)
			}
			if perCore+1 > covirt.FlushAllThreshold+1 {
				t.Errorf("epoch pushed %d records per core, over the bound %d", perCore+1, covirt.FlushAllThreshold+1)
			}
			if in.StallCycles != 0 {
				t.Errorf("epoch push stalled %d cycles on a 64-slot ring", in.StallCycles)
			}
			for core := 0; core < cores; core++ {
				for _, ext := range remove {
					if cached(t, k, core, ext.Start+4096) {
						t.Errorf("core %d holds a stale translation for %v", core, ext)
					}
				}
			}
		})
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
