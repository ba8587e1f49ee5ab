package kitten

import (
	"testing"

	"covirt/internal/hw"
)

// runEnvTask boots a fresh single-core stack, runs fn as a guest task, and
// returns the core's final TSC/Instret plus the task error. Two calls with
// equivalent guest bodies must land on identical counters — the harness for
// proving Env.AccessGather charges exactly what a per-element loop does.
func runEnvTask(t *testing.T, fn func(e *Env) error) (tsc, instret uint64, err error) {
	t.Helper()
	_, _, _, k := testStack(t, 1, []int{0}, 256<<20)
	task, serr := k.Spawn("batch", 0, fn)
	if serr != nil {
		t.Fatal(serr)
	}
	err = task.Wait()
	c := k.CPU(0)
	return c.TSC, c.Instret, err
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
