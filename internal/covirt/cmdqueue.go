package covirt

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// queue's applied word reaches arg0. Epochs are the queue's only
	// completion signal: waiters block on "epoch E applied".
	CmdEpoch
)

// cmdqFetchCycles is the hypervisor-side fetch/decode of one record.
const cmdqFetchCycles = 80

// cmdRec is one fixed-size command record.
type cmdRec struct {
	Typ, Arg0, Arg1 uint64
}

// cmdQueue is the controller->hypervisor channel for one enclave CPU. It is
// hypervisor state, like the EPT and the VMCS: it lives in host memory that
// no guest can address. The controller pushes under the enclave's ingest
// lock and the core's NMI handler drains; the mutex orders the two, and
// the applied-epoch word is atomic so waiters read it without the lock.
// The hw.Handoff stands in for the hardware's NMI wait loop; its waits end
// when the enclave is torn down or the node crashes.
type cmdQueue struct {
	mu   sync.Mutex //covirt:guards recs
	recs []cmdRec

	applied atomic.Uint64
	wait    *hw.Handoff
}

// newCmdQueue returns an empty queue whose waits end when m crashes or
// teardown fires.
func newCmdQueue(m *hw.Machine, teardown *hw.Latch) *cmdQueue {
	return &cmdQueue{wait: hw.NewHandoff(m, teardown)}
}

// push appends recs to the queue. The records' backing array is reused
// from drain to drain, so steady-state pushes allocate nothing.
func (q *cmdQueue) push(recs []cmdRec) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.recs = append(q.recs, recs...)
}

// depth returns the number of pushed-but-undrained records.
func (q *cmdQueue) depth() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return uint64(len(q.recs))
}

// epochApplied returns the last applied shootdown epoch.
func (q *cmdQueue) epochApplied() uint64 { return q.applied.Load() }

// waitEpoch blocks until the hypervisor reports epoch e applied, or fails
// when the enclave is torn down or the node crashes.
func (q *cmdQueue) waitEpoch(e uint64) error {
	if err := q.wait.Wait(nil, func() (bool, error) { return q.applied.Load() >= e, nil }); err != nil {
		return fmt.Errorf("covirt: epoch %d not applied: %w", e, err)
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
// handler body). It applies every record under the lock, publishes the
// highest epoch marker among them, and broadcasts once. The TLB flushes
// are the only invalidation: the VCPU's nested-walk cache checks every
// entry against EPT.Gen(), which the controller's unmap bumped before
// pushing. It returns the cycles spent.
func (q *cmdQueue) drain(cpu *hw.CPU) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.recs) == 0 {
		return 0
	}
	cs := cpu.Costs()
	var spent, epoch uint64
	for _, rec := range q.recs {
		spent += cmdqFetchCycles // fetch/decode of one fixed-size command
		switch rec.Typ {
		case CmdFlushAll:
			cpu.TLB.FlushAll()
			spent += cs.TLBFlushAll
		case CmdFlushRange:
			cpu.TLB.FlushRange(rec.Arg0, rec.Arg1)
			spent += flushRangeLeaves(rec.Arg0, rec.Arg1) * cs.TLBFlushPage
		case CmdEpoch:
			epoch = max(epoch, rec.Arg0)
		}
	}
	q.recs = q.recs[:0]
	// Monotonic: a stale marker must never move the word backwards, or
	// waiters would unblock on invalidations that have not happened.
	if epoch > q.applied.Load() {
		q.applied.Store(epoch)
	}
	q.wait.Broadcast()
	return spent
}
