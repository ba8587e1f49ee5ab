package covirt

import (
	"errors"
	"fmt"
	"sync"

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
// controller, read natively by the root-mode hypervisor); the Go-side
// condition variable stands in for the hardware's NMI wait loop.
type cmdQueue struct {
	mem  *hw.PhysMem
	base uint64

	mu   sync.Mutex
	cond *sync.Cond

	// scratch is the drainer's snapshot buffer. The drain runs on the
	// guest CPU's own execution goroutine, one drainer per queue, so the
	// buffer is reused across NMIs without allocation.
	scratch []cmdRec
}

// newCmdQueue initializes a queue at base.
func newCmdQueue(mem *hw.PhysMem, base uint64) (*cmdQueue, error) {
	q := &cmdQueue{mem: mem, base: base}
	q.cond = sync.NewCond(&q.mu)
	q.scratch = make([]cmdRec, cmdqSlots)
	for off := uint64(0); off < cmdqHdrSize; off += 8 {
		if err := mem.Write64(base+off, 0); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// ends reads the queue's head and tail and checks them against each other.
// It returns errCorruptHeader when they fail the check. Called with q.mu
// held.
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

// pushBatch enqueues all records under as few critical sections as
// possible: every record that fits the ring is written and then made
// visible with ONE head publish. When the ring is full the push applies
// bounded backpressure instead of failing — it publishes what fits, rings
// doorbell (so the drainer is guaranteed to be on its way), and parks on
// the queue's condition variable until slots free up, charging
// cmdqStallCycles per stall to the returned wait cost. A closed done
// channel (enclave death) aborts the wait; the wake that follows enclave
// death (see buildCPU) releases the parked pusher. A corrupt header fails
// the push before any slot is written; the doorbell still rings, so the
// drainer sees the header too and terminates the enclave.
//
// It returns the cycles spent stalled on a full ring.
func (q *cmdQueue) pushBatch(recs []cmdRec, doorbell func(), done <-chan struct{}) (uint64, error) {
	var waitCycles uint64
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(recs) > 0 {
		head, tail, err := q.ends()
		if errors.Is(err, errCorruptHeader) {
			q.ringDoorbell(doorbell)
			return waitCycles, fmt.Errorf("covirt: queue at %#x: %w (head %d, tail %d)", q.base, err, head, tail)
		}
		if err != nil {
			return waitCycles, err
		}
		free := cmdqSlots - (head - tail)
		if free == 0 {
			select {
			case <-done:
				return waitCycles, fmt.Errorf("covirt: enclave died with %d commands unpushed", len(recs))
			default:
			}
			waitCycles += cmdqStallCycles
			q.ringDoorbell(doorbell)
			// The drainer may have freed slots (and broadcast) while the
			// lock was dropped; re-checking occupancy before parking makes
			// that wakeup impossible to lose — any later completion
			// publish broadcasts under this lock.
			if h, t, err := q.ends(); err != nil || h-t < cmdqSlots {
				continue
			}
			// Wait with a wakeup guarantee: the drainer broadcasts after
			// each completion publish, and enclave death broadcasts too.
			q.cond.Wait()
			continue
		}
		n := uint64(len(recs))
		if n > free {
			n = free
		}
		for i := uint64(0); i < n; i++ {
			slot := q.base + cmdqHdrSize + ((head+i)&(cmdqSlots-1))*cmdqSlotSize
			for j, v := range [3]uint64{recs[i].Typ, recs[i].Arg0, recs[i].Arg1} {
				if err := q.mem.Write64(slot+uint64(j)*8, v); err != nil {
					return waitCycles, err
				}
			}
		}
		// Slot contents are fully written; one head store publishes the
		// whole chunk (the hardware analogue is a release store the
		// drainer's acquire load of head pairs with).
		if err := q.mem.Write64(q.base+cmdqOffHead, head+n); err != nil {
			return waitCycles, err
		}
		recs = recs[n:]
	}
	return waitCycles, nil
}

// ringDoorbell releases the queue lock around the doorbell and re-acquires
// it before returning: the drainer needs the lock to fetch, and the NMI
// raise may synchronously reach a core parked in its idle loop. Called with
// q.mu held.
func (q *cmdQueue) ringDoorbell(doorbell func()) {
	q.mu.Unlock()
	defer q.mu.Lock()
	doorbell()
}

// depth returns the number of pushed-but-undrained records, or 0 when the
// header is unreadable or corrupt.
func (q *cmdQueue) depth() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	head, tail, err := q.ends()
	if err != nil {
		return 0
	}
	return head - tail
}

// epochApplied returns the last applied shootdown epoch.
func (q *cmdQueue) epochApplied() uint64 {
	v, err := q.mem.Read64(q.base + cmdqOffEpoch)
	if err != nil {
		return 0
	}
	return v
}

// waitEpoch blocks until the hypervisor reports epoch e applied, done
// closes (enclave death), or the header turns out corrupt: a drain that
// finds it so applies nothing and broadcasts, so no epoch would land.
func (q *cmdQueue) waitEpoch(e uint64, done <-chan struct{}) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.epochApplied() < e {
		select {
		case <-done:
			return fmt.Errorf("covirt: enclave died before epoch %d applied", e)
		default:
		}
		if _, _, err := q.ends(); errors.Is(err, errCorruptHeader) {
			return fmt.Errorf("covirt: epoch %d: queue at %#x: %w", e, q.base, err)
		}
		// Wait with a wakeup guarantee: the hypervisor broadcasts after
		// each drain pass, and enclave death broadcasts too.
		q.cond.Wait()
	}
	return nil
}

// wake unblocks waiters (enclave death, core removal). The broadcast runs
// under the lock so it cannot land between a waiter's done-channel check
// and its cond.Wait and be lost — the waiter would then sleep forever on a
// dead queue.
func (q *cmdQueue) wake() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cond.Broadcast()
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
// handler body). Each pass snapshots the whole ring under one critical
// section, applies every record, then retires them with one tail advance,
// one epoch publish, and one broadcast — the NMI does not lock-roundtrip
// per record. The TLB flushes are the only invalidation: the VCPU's
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

// fetchAll snapshots every pending command record and the tail index under
// one critical section. The locked read is the simulation's stand-in for
// the hardware's acquire-ordered head load: the controller publishes slot
// contents before advancing the head pointer inside pushBatch's critical
// section. An empty queue, or a backing region that vanished mid-teardown
// (waiters are then released by teardown's wake), yields no records. A
// corrupt header yields errCorruptHeader, after a broadcast that lets
// epoch waiters see it.
func (q *cmdQueue) fetchAll() ([]cmdRec, uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	head, tail, err := q.ends()
	if errors.Is(err, errCorruptHeader) {
		q.cond.Broadcast()
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

// publishCompletion retires n drained records in one critical section: the
// tail advances and — when the batch carried an epoch marker — the
// applied-epoch word is raised. The epoch publish is guarded to be
// monotonic: a stale marker (reordered relative to a newer epoch already
// applied) must never move the counter backwards, or waiters would
// unblock on invalidations that have not happened. The broadcast runs
// under the lock so a controller thread between its check and cond.Wait
// cannot miss the wakeup, and it fires even when the backing region
// vanished mid-teardown so no waiter is left hanging on a dead queue.
func (q *cmdQueue) publishCompletion(tail, n, epoch uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	defer q.cond.Broadcast()
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
