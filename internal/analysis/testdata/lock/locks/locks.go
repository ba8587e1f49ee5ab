// Package locks exercises the lock-discipline analyzer.
package locks

import "sync"

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	n    int
	done bool
}

func bad(b *box) {
	b.mu.Lock() // want: no deferred unlock
	b.n++
	b.mu.Unlock()
}

func badRead(b *box) int {
	b.rw.RLock() // want: no deferred runlock
	n := b.n
	b.rw.RUnlock()
	return n
}

func good(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func condBad(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.done {
		b.cond.Wait() // want: Wait outside for loop, and outside hw.Handoff
	}
}

func condGood(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.done {
		b.cond.Wait() // want: Wait outside hw.Handoff
	}
}

func newBox() *box {
	b := &box{}
	b.cond = sync.NewCond(&b.mu) // want: NewCond outside hw.Handoff
	return b
}
