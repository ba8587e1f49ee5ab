// Faultisolation reproduces the paper's §V war story: a bug in an XEMEM
// cleanup path leaves a stale shared-memory mapping in a co-kernel for a
// short window after the host has reclaimed the memory. At scale this
// caused "extremely rare system crashes that could not be reproduced in
// local development environments".
//
// The scenario is run three times:
//
//  1. unprotected, stale memory reused by the host  -> silent corruption
//
//  2. unprotected, stale memory already unbacked    -> the node crashes
//
//  3. under Covirt memory protection                -> the enclave is
//     terminated, the node and the host's data survive, and the fault is
//     logged with the exact address — the debugging gift the paper
//     describes.
//
//     go run ./examples/faultisolation
package main

import (
	"fmt"
	"log"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// buildNode boots a host with one enclave, optionally protected by Covirt.
func buildNode(protected bool) *testbed.Node {
	tb, err := testbed.Spec{
		OfflineCores: []int{1},
		OfflineMem:   map[int]uint64{0: 1 << 30},
		Covirt:       protected,
		Features:     covirt.FeaturesMem,
		Guests: []testbed.Guest{{
			Name: "victim-of-its-own-bug", Cores: 1, Nodes: []int{0}, MemBytes: 512 << 20,
		}},
	}.Build()
	if err != nil {
		log.Fatal(err)
	}
	return tb
}

// staleSegmentBug exports a host segment, attaches it in the enclave, then
// runs the buggy cleanup: the detach protocol completes with the host (so
// the host reclaims the memory) but the co-kernel "forgets" to drop its own
// mapping. The co-kernel then touches the segment through the stale map.
func staleSegmentBug(host *linuxhost.Host, k *kitten.Kernel, seg hw.Extent, name string) error {
	task, err := k.Spawn("buggy-cleanup", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet(name)
		if err != nil {
			return err
		}
		if _, err := e.XemAttach(segid); err != nil {
			return err
		}
		// --- the bug: detach protocol completes, local mapping remains ---
		if _, _, err := e.Syscall(pisces.SysXemDetach, segid); err != nil {
			return err
		}
		if _, _, err := e.Syscall(pisces.SysXemDetachDone, segid); err != nil {
			return err
		}
		// Later, unrelated co-kernel code writes through the "still
		// mapped" page — its own memory map says the access is fine.
		e.Write64(seg.Start+8192, 0x4141414141414141)
		return nil
	})
	if err != nil {
		return err
	}
	return task.Wait()
}

func main() {
	// ---- Run 1: unprotected; the host reuses the reclaimed memory. ----
	fmt.Println("== run 1: no protection, host has reused the memory ==")
	tb := buildNode(false)
	host, k := tb.Host, tb.Kitten()
	seg, _ := host.HostAlloc(0, 4<<20)
	_ = host.PlantCanary(seg, 0xFEED) // the host's new data lives here
	if _, err := host.Master.Reg.Make(pisces.NameHash("stale.seg"), host.Pisces.RootMem, []hw.Extent{seg}); err != nil {
		log.Fatal(err)
	}
	err := staleSegmentBug(host, k, seg, "stale.seg")
	fmt.Printf("  bug ran: err=%v, node crashed=%v\n", err, host.M.Crashed())
	if addr, _ := host.CheckCanary(seg, 0xFEED); addr != 0 {
		fmt.Printf("  SILENT CORRUPTION of host data at %#x — nobody noticed\n", addr)
	} else {
		fmt.Println("  host data survived (this run got lucky)")
	}
	tb.Close()

	// ---- Run 2: unprotected; the stale page is no longer backed. ----
	fmt.Println("== run 2: no protection, stale page unbacked ==")
	tb2 := buildNode(false)
	task, _ := tb2.Kitten().Spawn("wild", 0, func(e *kitten.Env) error {
		// The stale mapping points into address space the host has since
		// offlined — nothing is there any more.
		return e.RawWrite64(0x20, 0xDEAD)
	})
	err = task.Wait()
	fmt.Printf("  bug ran: err=%v\n  NODE CRASHED: %v (reason: %s)\n",
		err, tb2.M.Crashed(), tb2.M.CrashReason())

	// ---- Run 3: the same bugs under Covirt memory protection. ----
	fmt.Println("== run 3: covirt memory protection ==")
	tb3 := buildNode(true)
	host3, enc3, k3 := tb3.Host, tb3.Enc(), tb3.Kitten()
	seg3, _ := host3.HostAlloc(0, 4<<20)
	_ = host3.PlantCanary(seg3, 0xFEED)
	if _, err := host3.Master.Reg.Make(pisces.NameHash("stale.seg"), host3.Pisces.RootMem, []hw.Extent{seg3}); err != nil {
		log.Fatal(err)
	}
	err = staleSegmentBug(host3, k3, seg3, "stale.seg")
	fmt.Printf("  bug ran: err=%v\n", err)
	fmt.Printf("  node crashed: %v\n", host3.M.Crashed())
	if addr, _ := host3.CheckCanary(seg3, 0xFEED); addr == 0 {
		fmt.Println("  host data intact")
	} else {
		fmt.Printf("  host data corrupted at %#x\n", addr)
	}
	fmt.Printf("  enclave: %v (%s)\n", enc3.State(), enc3.CrashReason())
	for _, f := range host3.M.Faults() {
		fmt.Printf("  fault log: %s at %#x (cpu %d, write=%v)\n", f.Kind, f.Addr, f.CPU, f.Write)
	}
	fmt.Println("  -> diagnosis takes minutes, not weeks: the first wild access is pinpointed")
}
