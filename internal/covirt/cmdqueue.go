package covirt

import (
	"errors"
	"fmt"

	"covirt/internal/hw"
)

// Hypervisor command types carried on the command queue.
const (
	// CmdFlushAll invalidates the CPU's entire TLB (INVEPT global).
	CmdFlushAll uint64 = iota + 1
	// CmdFlushRange invalidates translations overlapping [arg0, arg0+arg1).
	CmdFlushRange
	// CmdEpoch publishes arg0 as the applied shootdown epoch: every
	// command pushed before this marker is guaranteed processed once the
	// header's epoch word reaches arg0. Epochs are the queue's only
	// completion signal: waiters block on "epoch E applied".
	CmdEpoch
)

// Command queue shared-memory geometry. Each enclave CPU has one queue in
// the Covirt boot-parameter area; commands are fixed-size records.
const (
	// cmdqSlots is the ring capacity, a power of two. Sized for bursts: a
	// revocation storm's merged flush batch fits without ever touching
	// the backpressure path.
	cmdqSlots    = 64
	cmdqSlotSize = 24 // type, arg0, arg1
	cmdqHdrSize  = 24 // head, tail, epoch
	// CmdQueueStride is the per-CPU footprint of one command queue: the
	// header plus cmdqSlots records, padded to a page.
	CmdQueueStride = 0x1000
)

// Header word offsets within a queue's base page.
const (
	cmdqOffHead  = 0
	cmdqOffTail  = 8
	cmdqOffEpoch = 16
)

// Cycle charges local to the queue protocol.
const (
	// cmdqFetchCycles is the hypervisor-side fetch/decode of one record.
	cmdqFetchCycles = 80
	// cmdqStallCycles is charged to the pusher each time it finds the
	// ring full and must park until the drainer frees slots. The charge
	// models the doorbell + wait handshake; the number of stalls depends
	// on drain progress, so this cost only appears on genuinely
	// overloaded paths, never on the deterministic golden workloads
	// (their bursts fit the ring).
	cmdqStallCycles = 500
)

// errCorruptHeader reports a queue header no honest pusher and drainer can
// produce: the tail past the head, or more records pending than the ring
// holds. The header lies in the enclave's reserved area, which its EPT
// maps, so a guest can rewrite it; the hypervisor terminates an enclave
// whose drain finds it so.
var errCorruptHeader = errors.New("corrupt command-queue header")

// cmdRec is one fixed-size command record.
type cmdRec struct {
	Typ, Arg0, Arg1 uint64
}

// cmdQueue is the controller->hypervisor channel for one enclave CPU. The
// queue contents live in shared physical memory (written natively by the
// controller, read natively by the root-mode hypervisor). It has one
// pusher (the controller, serialized by the enclave's ingest lock) and one
// drainer (the core's NMI handler), and every backing word is atomic, so
// header and slot I/O take no lock: the pusher's head store releases the
// slots it wrote, and the drainer's tail and epoch stores retire them. The
// hw.Handoff stands in for the hardware's NMI wait loop; its waits end
// when the enclave is torn down or the node crashes.
type cmdQueue struct {
	mem  *hw.PhysMem
	base uint64
	wait *hw.Handoff

	// scratch is the drainer's snapshot buffer. The drain runs on the
	// guest CPU's own execution goroutine, one drainer per queue, so the
	// buffer is reused across NMIs without allocation.
	scratch []cmdRec
}

// newCmdQueue initializes a queue at base in m's memory whose waits end
// when m crashes or teardown fires.
func newCmdQueue(m *hw.Machine, base uint64, teardown *hw.Latch) (*cmdQueue, error) {
	q := &cmdQueue{mem: m.Mem, base: base, wait: hw.NewHandoff(m, teardown)}
	q.scratch = make([]cmdRec, cmdqSlots)
	for off := uint64(0); off < cmdqHdrSize; off += 8 {
		if err := m.Mem.Write64(base+off, 0); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// ends reads the queue's head and tail and checks them against each other.
// It returns errCorruptHeader when they fail the check. An endpoint's own
// index does not move while it reads, and the other's moves only toward
// the check's bounds, so an honest queue always passes.
func (q *cmdQueue) ends() (head, tail uint64, err error) {
	if head, err = q.mem.Read64(q.base + cmdqOffHead); err != nil {
		return 0, 0, err
	}
	if tail, err = q.mem.Read64(q.base + cmdqOffTail); err != nil {
		return 0, 0, err
	}
	if tail > head || head-tail > cmdqSlots {
		return head, tail, errCorruptHeader
	}
	return head, tail, nil
}

// pushBatch enqueues all records with as few head publishes as possible:
// every record that fits the ring is written and then made visible with
// ONE head publish. When the ring is full the push applies bounded
// backpressure instead of failing — it rings the doorbell (so the drainer
// is guaranteed to be on its way) and waits for the drainer to free slots,
// charging cmdqStallCycles per stall to the returned wait cost. The wait
// fails when the enclave is torn down or the node crashes. A corrupt
// header fails the push before any slot is written; the doorbell still
// rings, so the drainer sees the header too and terminates the enclave.
//
// It returns the cycles spent stalled on a full ring.
func (q *cmdQueue) pushBatch(recs []cmdRec, doorbell func()) (uint64, error) {
	var waitCycles uint64
	for len(recs) > 0 {
		n, err := q.publish(recs)
		if errors.Is(err, errCorruptHeader) {
			doorbell()
		}
		if err != nil {
			return waitCycles, err
		}
		recs = recs[n:]
		if n > 0 {
			continue
		}
		waitCycles += cmdqStallCycles
		doorbell()
		if err := q.wait.Wait(nil, q.hasRoom); err != nil {
			return waitCycles, fmt.Errorf("covirt: %d commands unpushed: %w", len(recs), err)
		}
	}
	return waitCycles, nil
}

// publish writes as many of recs as the ring has room for and publishes
// them with one head store, returning how many it wrote (0 on a full
// ring).
func (q *cmdQueue) publish(recs []cmdRec) (uint64, error) {
	head, tail, err := q.ends()
	if errors.Is(err, errCorruptHeader) {
		return 0, fmt.Errorf("covirt: queue at %#x: %w (head %d, tail %d)", q.base, err, head, tail)
	}
	if err != nil {
		return 0, err
	}
	n := min(uint64(len(recs)), cmdqSlots-(head-tail))
	if n == 0 {
		return 0, nil
	}
	for i := uint64(0); i < n; i++ {
		slot := q.base + cmdqHdrSize + ((head+i)&(cmdqSlots-1))*cmdqSlotSize
		for j, v := range [3]uint64{recs[i].Typ, recs[i].Arg0, recs[i].Arg1} {
			if err := q.mem.Write64(slot+uint64(j)*8, v); err != nil {
				return 0, err
			}
		}
	}
	// Slot contents are fully written; one head store publishes the
	// whole chunk (the hardware analogue is a release store the
	// drainer's acquire load of head pairs with).
	if err := q.mem.Write64(q.base+cmdqOffHead, head+n); err != nil {
		return 0, err
	}
	return n, nil
}

// hasRoom is the full-ring wait's predicate. An unreadable or corrupt
// header also ends the wait, so the push reports it.
func (q *cmdQueue) hasRoom() (bool, error) {
	head, tail, err := q.ends()
	return err != nil || head-tail < cmdqSlots, nil
}

// depth returns the number of pushed-but-undrained records, or 0 when the
// header is unreadable or corrupt. Under coresMu, which pushEpoch holds
// across its pushes, the head does not move while depth reads.
func (q *cmdQueue) depth() uint64 {
	head, tail, err := q.ends()
	if err != nil {
		return 0
	}
	return head - tail
}

// fits reports whether n more records fit the ring without a wait. An
// unreadable or corrupt header fits: the push reports it.
func (q *cmdQueue) fits(n int) bool {
	head, tail, err := q.ends()
	return err != nil || cmdqSlots-(head-tail) >= uint64(n)
}

// waitFits blocks until n more records fit the ring, failing when the
// enclave is torn down or the node crashes.
func (q *cmdQueue) waitFits(n int) error {
	return q.wait.Wait(nil, func() (bool, error) { return q.fits(n), nil })
}

// epochApplied returns the last applied shootdown epoch.
func (q *cmdQueue) epochApplied() uint64 {
	v, err := q.mem.Read64(q.base + cmdqOffEpoch)
	if err != nil {
		return 0
	}
	return v
}

// waitEpoch blocks until the hypervisor reports epoch e applied, the
// enclave is torn down or the node crashes, or the header turns out
// corrupt: a drain that finds it so applies nothing and broadcasts, so no
// epoch would land.
func (q *cmdQueue) waitEpoch(e uint64) error {
	var corrupt error
	if err := q.wait.Wait(nil, func() (bool, error) {
		if q.epochApplied() >= e {
			return true, nil
		}
		if _, _, err := q.ends(); errors.Is(err, errCorruptHeader) {
			corrupt = err
		}
		return corrupt != nil, nil
	}); err != nil {
		return fmt.Errorf("covirt: epoch %d not applied: %w", e, err)
	}
	if corrupt != nil {
		return fmt.Errorf("covirt: epoch %d: queue at %#x: %w", e, q.base, corrupt)
	}
	return nil
}

// flushRangeLeaves counts the 2 MiB translation leaves overlapping
// [start, start+size): the units a ranged shootdown actually invalidates,
// and therefore the units it is charged in. A merged range prices exactly
// like the sum of its parts.
func flushRangeLeaves(start, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	lo := start &^ (hw.PageSize2M - 1)
	hi := hw.AlignUp(start+size, hw.PageSize2M)
	return (hi - lo) / hw.PageSize2M
}

// drain processes all pending commands on cpu (the hypervisor's NMI
// handler body). Each pass snapshots the whole ring, applies every record,
// then retires them with one tail advance, one epoch publish, and one
// broadcast. The TLB flushes are the only invalidation: the VCPU's
// nested-walk cache checks every entry against EPT.Gen(), which the
// controller's unmap bumped before pushing. It returns cycles spent, and
// errCorruptHeader when the header fails its check.
func (q *cmdQueue) drain(cpu *hw.CPU) (uint64, error) {
	cs := cpu.Costs()
	var spent uint64
	for {
		recs, tail, err := q.fetchAll()
		if err != nil || len(recs) == 0 {
			return spent, err
		}
		var epoch uint64
		for _, rec := range recs {
			spent += cmdqFetchCycles // fetch/decode of one fixed-size command
			switch rec.Typ {
			case CmdFlushAll:
				cpu.TLB.FlushAll()
				spent += cs.TLBFlushAll
			case CmdFlushRange:
				cpu.TLB.FlushRange(rec.Arg0, rec.Arg1)
				spent += flushRangeLeaves(rec.Arg0, rec.Arg1) * cs.TLBFlushPage
			case CmdEpoch:
				if rec.Arg0 > epoch {
					epoch = rec.Arg0
				}
			}
		}
		if err := q.publishCompletion(tail, uint64(len(recs)), epoch); err != nil {
			return spent, nil
		}
	}
}

// fetchAll snapshots every pending command record and the tail index. An
// empty queue, or a backing region that vanished mid-teardown, yields no
// records. A corrupt header yields errCorruptHeader, after a broadcast
// that lets epoch waiters see it.
func (q *cmdQueue) fetchAll() ([]cmdRec, uint64, error) {
	head, tail, err := q.ends()
	if errors.Is(err, errCorruptHeader) {
		q.wait.Broadcast()
		return nil, 0, err
	}
	if err != nil {
		return nil, 0, nil
	}
	// The check bounds the ring at cmdqSlots records, and scratch was
	// sized to exactly that in newCmdQueue, so the snapshot is written in
	// place — the NMI-path drain never allocates.
	n := head - tail
	for k := uint64(0); k < n; k++ {
		slot := q.base + cmdqHdrSize + ((tail+k)&(cmdqSlots-1))*cmdqSlotSize
		var rec [3]uint64
		for i := range rec {
			v, err := q.mem.Read64(slot + uint64(i)*8)
			if err != nil {
				return nil, 0, nil
			}
			rec[i] = v
		}
		q.scratch[k] = cmdRec{Typ: rec[0], Arg0: rec[1], Arg1: rec[2]}
	}
	return q.scratch[:n], tail, nil
}

// publishCompletion retires n drained records: the tail advances and —
// when the batch carried an epoch marker — the applied-epoch word is
// raised. The epoch publish is guarded to be monotonic: a stale marker
// (reordered relative to a newer epoch already applied) must never move
// the counter backwards, or waiters would unblock on invalidations that
// have not happened. The broadcast fires even when the backing region
// vanished mid-teardown, so no waiter is left hanging on a dead queue.
func (q *cmdQueue) publishCompletion(tail, n, epoch uint64) error {
	defer q.wait.Broadcast()
	if err := q.mem.Write64(q.base+cmdqOffTail, tail+n); err != nil {
		return err
	}
	if epoch > q.epochApplied() {
		if err := q.mem.Write64(q.base+cmdqOffEpoch, epoch); err != nil {
			return err
		}
	}
	return nil
}
