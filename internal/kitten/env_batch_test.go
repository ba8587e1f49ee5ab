package kitten

import (
	"testing"

	"covirt/internal/hw"
)

// coreState is what the gather oracles compare between a batched and a
// per-element run: the core's TSC and Instret, and a copy of its TLB.
type coreState struct {
	tsc, instret uint64
	tlb          hw.TLB
}

// snapshotCore reads c's state; call it on c's execution goroutine.
func snapshotCore(c *hw.CPU) coreState {
	return coreState{tsc: c.TSC, instret: c.Instret, tlb: *c.TLB}
}

// assertSameCore fails the test unless the batched and the per-element
// run left the same state. The TLBs must be equal as whole values: their
// counters, and the slot arrays that hold each class's entries and its
// recency list, which decide what later accesses evict and so what they
// cost.
func assertSameCore(t *testing.T, what string, batched, perElement coreState) {
	t.Helper()
	if batched.tsc != perElement.tsc || batched.instret != perElement.instret {
		t.Errorf("%s: batched gather diverged: TSC %d vs %d, Instret %d vs %d",
			what, batched.tsc, perElement.tsc, batched.instret, perElement.instret)
	}
	if bs, ps := batched.tlb.Stats(), perElement.tlb.Stats(); bs != ps {
		t.Errorf("%s: TLB stats diverged: batched %+v, per-element %+v", what, bs, ps)
	} else if batched.tlb != perElement.tlb {
		t.Errorf("%s: TLB entries or recency diverged", what)
	}
}

// runEnvTask boots a fresh single-core stack, runs fn as a guest task, and
// returns the task error and the core's state when fn returns or fails,
// read on the task's goroutine. Two calls with equivalent guest bodies must
// leave identical states — the harness for proving Env.AccessGather
// charges exactly what a per-element loop does.
func runEnvTask(t *testing.T, fn func(e *Env) error) (st coreState, err error) {
	t.Helper()
	_, _, _, k := testStack(t, 1, []int{0}, 256<<20)
	task, serr := k.Spawn("batch", 0, func(e *Env) error {
		defer func() { st = snapshotCore(e.CPU) }()
		return fn(e)
	})
	if serr != nil {
		t.Fatal(serr)
	}
	err = task.Wait()
	return st, err
}

// TestMemMapGen pins the generation contract cached lookups depend on:
// every successful mutation bumps the generation, failed ones do not.
func TestMemMapGen(t *testing.T) {
	mm := NewMemMap()
	g0 := mm.Gen()
	mm.Add(hw.Extent{Start: 0x1000, Size: 0x1000})
	if mm.Gen() != g0+1 {
		t.Errorf("gen after add = %d, want %d", mm.Gen(), g0+1)
	}
	if mm.Remove(hw.Extent{Start: 0x9000, Size: 0x1000}) {
		t.Fatal("removed absent extent")
	}
	if mm.Gen() != g0+1 {
		t.Errorf("failed remove bumped gen to %d", mm.Gen())
	}
	if !mm.Remove(hw.Extent{Start: 0x1000, Size: 0x1000}) {
		t.Fatal("remove failed")
	}
	if mm.Gen() != g0+2 {
		t.Errorf("gen after remove = %d, want %d", mm.Gen(), g0+2)
	}
}
