package workloads_test

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"covirt/internal/harness"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/workloads"
)

// TestGUPSTablePoolHoldsIdentity checks the GUPS table pool's rule: every
// table the pool hands out holds table[i] == i in all 2^21 words, after a
// verified run and after a run whose task is killed partway through its
// updates. The collector is off and the process runs on one P, so the
// table a run puts back is the one the next get returns.
func TestGUPSTablePoolHoldsIdentity(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const words = 1 << 21
	check := func(when string) {
		t.Helper()
		table := workloads.GetGUPSTable(words)
		for i, v := range table {
			if v != uint64(i) {
				t.Fatalf("%s: pooled table[%d] = %#x, want %#x", when, i, v, i)
			}
		}
		workloads.PutGUPSTable(table)
	}

	run(t, &workloads.RandomAccess{LogTableSize: 22, Updates: 1 << 14}, harness.CfgNative, harness.SingleCore)
	check("after a verified run")

	// Kill the task 2M cycles in, about 9,000 of its 65,536 updates: a
	// one-shot APIC timer on a vector whose handler touches an address
	// outside the memory map, a segfault Kitten kills the task for.
	n := node(t, harness.CfgNative, harness.SingleCore)
	const vectorFault uint8 = 0x63
	n.K.OnIPI(vectorFault, func(e *kitten.Env) {
		e.CPU.APIC.DisarmTimer()
		e.Access(0, false, hw.AccessHot)
	})
	cpu := n.K.CPU(0)
	cpu.APIC.ArmTimer(cpu.TSCSnapshot(), 2_000_000, vectorFault)
	_, err := (&workloads.RandomAccess{LogTableSize: 22, Updates: 1 << 16}).Run(n.K, 1)
	if !errors.Is(err, kitten.ErrSegfault) {
		t.Fatalf("killed run: err = %v, want a segfault", err)
	}
	check("after a killed run")
}
