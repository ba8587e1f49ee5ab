package hw

// sleep waits on the primitive's condition from outside its file.
func sleep(h *Handoff) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.seq == 0 {
		h.cond.Wait() // want: Cond.Wait outside handoff.go
	}
}
