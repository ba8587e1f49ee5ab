// Package hw holds the fixture's wait primitive: handoff.go is the one
// file allowed to make and wait on a sync.Cond.
package hw

import "sync"

// Handoff is the fixture's wait primitive.
type Handoff struct {
	mu   sync.Mutex
	cond *sync.Cond
	seq  int
}

// NewHandoff makes the primitive's condition.
func NewHandoff() *Handoff {
	h := &Handoff{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Wait sleeps until seq moves on.
func (h *Handoff) Wait(seq int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.seq == seq {
		h.cond.Wait()
	}
}
