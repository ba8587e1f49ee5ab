package workloads_test

import (
	"runtime"
	"testing"
	"time"

	"covirt/internal/harness"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/workloads"
)

// TestRankOrderRounds drives the collective from ranks released in
// reverse rank order and checks that sections still execute strictly
// rank-major, round by round.
func TestRankOrderRounds(t *testing.T) {
	const n, rounds = 4, 3
	nd := node(t, harness.CfgNative, harness.Layouts[1]) // 4 cores
	ord := workloads.NewRankOrder(n)
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var seq []int
	// Adversarial arrival: the highest rank is released first and gets a
	// head start toward the collective.
	go func() {
		for r := n - 1; r >= 0; r-- {
			close(gates[r])
			time.Sleep(time.Millisecond)
		}
	}()
	err := nd.K.RunParallel("rounds", n, func(e *kitten.Env, rank int) error {
		<-gates[rank]
		for round := 0; round < rounds; round++ {
			ord.Do(e, rank, func() { seq = append(seq, rank) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != n*rounds {
		t.Fatalf("got %d sections, want %d", len(seq), n*rounds)
	}
	for i, rank := range seq {
		if rank != i%n {
			t.Fatalf("section %d ran on rank %d, want %d (seq %v)", i, rank, i%n, seq)
		}
	}
}

// TestRankOrderLapping covers the free-running interleaving: no gates, no
// pacing, and per-rank work so unequal that fast ranks race back to the
// collective for round R+1 while slow ranks have not yet taken their
// round-R turns. The monotonic turn counter must hold a lapping rank at
// the door until every rank of the current round has run — sections stay
// strictly rank-major no matter how far ahead a rank's goroutine gets.
func TestRankOrderLapping(t *testing.T) {
	const n, rounds = 4, 16
	nd := node(t, harness.CfgNative, harness.Layouts[1]) // 4 cores
	ord := workloads.NewRankOrder(n)
	var seq []int // appended under the collective's own serialization
	err := nd.K.RunParallel("lapping", n, func(e *kitten.Env, rank int) error {
		for round := 0; round < rounds; round++ {
			ord.Do(e, rank, func() { seq = append(seq, rank) })
			// Rank 0 sprints straight back to the collective; higher
			// ranks burn rank-proportional time between sections so
			// rank 0 is perpetually trying to lap them.
			for spin := 0; spin < rank*200; spin++ {
				runtime.Gosched()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != n*rounds {
		t.Fatalf("got %d sections, want %d", len(seq), n*rounds)
	}
	for i, rank := range seq {
		if rank != i%n {
			t.Fatalf("section %d ran on rank %d, want %d (seq %v)", i, rank, i%n, seq)
		}
	}
}

// TestLedgerLayoutIndependentOfArrival is the regression test for the
// multi-rank ledger-order jitter (PR 3 caveat): the extents each rank
// receives must not depend on the order goroutine scheduling lets ranks
// reach the allocator. Two runs on identical fresh nodes — one with ranks
// released in rank order, one in reverse with a head start — must yield
// byte-identical per-rank layouts.
func TestLedgerLayoutIndependentOfArrival(t *testing.T) {
	const threads = 4
	layout := func(reverse bool) [threads]hw.Extent {
		nd := node(t, harness.CfgNative, harness.Layouts[1]) // 4 cores
		ord := workloads.NewRankOrder(threads)
		gates := make([]chan struct{}, threads)
		for i := range gates {
			gates[i] = make(chan struct{})
		}
		go func() {
			order := make([]int, threads)
			for i := range order {
				if reverse {
					order[i] = threads - 1 - i
				} else {
					order[i] = i
				}
			}
			for _, r := range order {
				close(gates[r])
				time.Sleep(time.Millisecond)
			}
		}()
		var got [threads]hw.Extent
		err := nd.K.RunParallel("layout", threads, func(e *kitten.Env, rank int) error {
			<-gates[rank]
			ord.Do(e, rank, func() {
				got[rank] = e.Alloc(e.CPU.Node, uint64(rank+1)<<20)
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	forward := layout(false)
	reverse := layout(true)
	if forward != reverse {
		t.Errorf("per-rank layout depends on arrival order:\nforward: %v\nreverse: %v", forward, reverse)
	}
}

// TestWorkloadCyclesStableAcrossRepeats reruns a multi-rank workload on
// fresh nodes and requires identical cycle counts — the user-visible form
// of the jitter the rank-ordered allocation removes.
func TestWorkloadCyclesStableAcrossRepeats(t *testing.T) {
	mk := func() *workloads.MiniFE {
		return &workloads.MiniFE{NX: 16, NY: 16, NZ: 16, Iters: 8}
	}
	a := run(t, mk(), harness.CfgNative, harness.Layouts[1])
	b := run(t, mk(), harness.CfgNative, harness.Layouts[1])
	if a.Cycles != b.Cycles {
		t.Errorf("multi-rank cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
	}
}

// TestRankOrderFailedSectionPassesTurn: a section that fails its task
// (here an allocation no node can satisfy) must still pass the turn on.
// Kept, the turn left every later rank waiting for good.
func TestRankOrderFailedSectionPassesTurn(t *testing.T) {
	const n = 4
	nd := node(t, harness.CfgNative, harness.Layouts[1]) // 4 cores
	ord := workloads.NewRankOrder(n)
	ran := make(chan error, 1)
	go func() {
		ran <- nd.K.RunParallel("fail", n, func(e *kitten.Env, rank int) error {
			ord.Do(e, rank, func() {
				if rank == 0 {
					e.Alloc(e.CPU.Node, 1<<50)
				}
			})
			return nil
		})
	}()
	select {
	case err := <-ran:
		if err == nil {
			t.Error("RunParallel = nil, want rank 0's allocation failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ranks still waiting 30 s after rank 0's section failed")
	}
}
