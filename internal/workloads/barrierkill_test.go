package workloads_test

import (
	"runtime"
	"testing"
	"time"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/testbed"
	"covirt/internal/workloads"
)

// TestBarrierRankKilledWhileParked: rank 1 parks at a barrier, then rank
// 0's wild write gets the enclave killed. Nothing once woke rank 1, so
// RunParallel never returned, the kernel never quiesced, and the
// enclave's cores never went back to the ledger. The parked rank must now
// fail with the kill, and the enclave must be reclaimed while a bystander
// keeps running. Rank 0 faults only after rank 1 is parked, which it
// learns from the barrier's waiter count, not from a sleep.
func TestBarrierRankKilledWhileParked(t *testing.T) {
	spec := hw.DefaultSpec()
	spec.MemPerNode = 2 << 30
	node, err := testbed.Spec{
		Machine:  spec,
		Covirt:   true,
		Features: covirt.FeaturesMem,
		Guests: []testbed.Guest{
			{Name: "ranks", Cores: 2, Nodes: []int{0}, MemBytes: 128 << 20},
			{Name: "bystander", Cores: 1, Nodes: []int{1}, MemBytes: 64 << 20},
		},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	enc, k, kB := node.Encs[0].Enc, node.Encs[0].Kitten, node.Encs[1].Kitten
	cores := append([]int(nil), enc.Cores...)

	bar := workloads.NewBarrier(2)
	ran := make(chan error, 1)
	go func() {
		ran <- k.RunParallel("barrier", 2, func(e *kitten.Env, rank int) error {
			if rank == 1 {
				bar.Wait(e)
				return nil
			}
			for bar.Parked() == 0 {
				runtime.Gosched()
			}
			return e.RawWrite64(0x20, 1)
		})
	}()
	select {
	case err := <-ran:
		if !hw.IsFault(err, hw.FaultEnclaveKilled) {
			t.Errorf("RunParallel = %v, want an enclave kill", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunParallel still blocked 30 s after rank 0's fault")
	}
	select {
	case <-enc.Reclaimed():
	case <-time.After(30 * time.Second):
		t.Fatal("enclave not reclaimed 30 s after its kill")
	}
	for _, c := range cores {
		if !node.Host.EnclaveLedger.WithdrawCore(c) {
			t.Errorf("core %d is not back in the ledger", c)
		}
	}
	task, err := kB.Spawn("alive", 0, func(e *kitten.Env) error { e.Compute(100); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Errorf("bystander task: %v", err)
	}
}
