package harness_test

import (
	"fmt"
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/testbed"
)

// The control plane's allocation and park budgets. Each test builds
// ctl-saturation's node (5 cores; a 4-core, 32 MiB covirt-mem enclave) and
// pins two costs of one control round, counted over the whole process: the
// calling goroutine, the enclave cores and the controller.
//
// Allocations: a budget is the round's measured count plus at most 10 %.
// One new allocation per round fits in that headroom; one per ring message
// (six in the XEMEM round, four in the grant round) or per NMI (four per
// round, one per enclave core) does not. The counts come from
// testing.AllocsPerRun; the race detector's instrumentation allocates on
// its own, so the tests skip under -race.
//
// Parks: the times a goroutine goes to sleep in an hw.Handoff wait
// (hw.Parks), averaged over the same rounds. A park and its wake are a
// host hand-off between goroutines, which a simulated crossing pays only
// when the goroutine on the other side must run: a halted enclave core
// takes its doorbells on the ringer's goroutine, and a system call runs
// the host's service on the calling core's. Which side of a hand-off
// arrives first is host timing, so a park budget sits a few parks above
// the round's measured mean; one park per doorbell (four per round) does
// not fit.

// checkBudget builds ctl-saturation's node, warms its control paths with
// one run of round (so slices and maps that grow once per node are sized),
// then runs round repeatedly and fails when its mean allocation count
// exceeds budget or its mean park count exceeds parkBudget.
func checkBudget(t *testing.T, budget, parkBudget float64, round func(*testbed.Node) error) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	spec := testbed.Spec{
		Machine:      hw.MachineSpec{NumNodes: 1, CoresPerNode: 5, MemPerNode: 1 << 30},
		OfflineCores: []int{1, 2, 3, 4},
		OfflineMem:   map[int]uint64{0: 256 << 20},
		Covirt:       true,
		Features:     covirt.FeaturesMem,
		Guests:       []testbed.Guest{{Name: "budget", Cores: 4, Nodes: []int{0}, MemBytes: 32 << 20}},
	}
	n, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := round(n); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	parks := hw.Parks()
	got := testing.AllocsPerRun(runs, func() {
		if e := round(n); e != nil && err == nil {
			err = e
		}
	})
	// AllocsPerRun runs round once more to warm up.
	parked := float64(hw.Parks()-parks) / (runs + 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per round (budget %.0f), %.1f parks (budget %.0f)", got, budget, parked, parkBudget)
	if got > budget {
		t.Errorf("round makes %.0f allocations, over its budget of %.0f", got, budget)
	}
	if parked > parkBudget {
		t.Errorf("round parks %.1f times, over its budget of %.0f", parked, parkBudget)
	}
}

// xememRound is one round of Fig. 4's path for a 2 MiB segment: the host
// exports it, a guest task attaches it, writes and reads a word in it and
// detaches it, and the host removes the segment and frees the memory.
func xememRound(n *testbed.Node) error {
	reg := n.Host.Master.Reg
	mem, err := n.Host.HostAlloc(0, hw.PageSize2M)
	if err != nil {
		return err
	}
	defer n.Host.HostFree(mem)
	seg, err := reg.Make(0xB0D6E7, n.Host.Pisces.RootMem, []hw.Extent{mem})
	if err != nil {
		return err
	}
	task, err := n.Kitten().Spawn("budget", 1, func(e *kitten.Env) error {
		exts, err := e.XemAttach(seg.ID)
		if err != nil {
			return err
		}
		for _, x := range exts {
			e.Write64(x.Start, seg.ID)
			if v := e.Read64(x.Start); v != seg.ID {
				return fmt.Errorf("xemem: extent %v read back %#x, want %#x", x, v, seg.ID)
			}
		}
		return e.XemDetach(seg.ID)
	})
	if err != nil {
		return err
	}
	if err := task.Wait(); err != nil {
		return err
	}
	return reg.Remove(seg.ID, seg.OwnerCap)
}

// memRound is one 2 MiB grant and revoke through the host-to-guest control
// ring.
func memRound(n *testbed.Node) error {
	fw := n.Host.Pisces
	ext, err := fw.AddMemory(n.Enc(), 0, hw.PageSize2M)
	if err != nil {
		return err
	}
	return fw.RemoveMemory(n.Enc(), ext)
}

// TestXememRoundAllocBudget pins the XEMEM round at its measured 30
// allocations plus 10 %, and at its measured 1 park (core 1 halting after
// the task) plus 2.
func TestXememRoundAllocBudget(t *testing.T) {
	checkBudget(t, 33, 3, xememRound)
}

// TestMemGrantRoundAllocBudget pins the grant/revoke round at its measured
// 19 allocations plus 10 %, and at its measured 4 parks plus 2: for each of
// the two control commands, the host waits for the ack and the boot core
// halts again after serving it.
func TestMemGrantRoundAllocBudget(t *testing.T) {
	checkBudget(t, 20, 6, memRound)
}
