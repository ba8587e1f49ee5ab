// Package covirt is a fixture stub of the command-queue owner file.
package covirt

import "sync/atomic"

type cmdQueue struct {
	recs    []uint64
	applied atomic.Uint64
}

func (q *cmdQueue) depth() int {
	return len(q.recs) // ok: owner file
}

// publishGood raises the applied epoch only monotonically.
func (q *cmdQueue) publishGood(epoch uint64) {
	if epoch > q.applied.Load() {
		q.applied.Store(epoch)
	}
}

// publishBroken stores the epoch unconditionally: a stale marker moves the
// word backwards and releases waiters early.
func (q *cmdQueue) publishBroken(epoch uint64) {
	q.applied.Store(epoch) // want: unguarded epoch publish
}
