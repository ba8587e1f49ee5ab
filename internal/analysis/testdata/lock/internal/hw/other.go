package hw

// sleep waits on the primitive's condition from outside its file.
func sleep(h *Handoff) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.seq == 0 {
		h.cond.Wait() // want: Cond.Wait outside handoff.go
	}
}

// recv waits on a channel instead of the primitive.
func recv(done chan struct{}) {
	<-done // want: channel receive outside handoff.go
}

// either waits on two channels instead of the primitive.
func either(a, b chan struct{}) {
	select { // want: select outside handoff.go
	case <-a:
	case <-b:
	}
}
