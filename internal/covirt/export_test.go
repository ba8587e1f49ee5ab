package covirt

import "covirt/internal/pisces"

// Test-only exports for the external covirt_test package, which builds its
// fixtures through internal/testbed (a package that imports covirt, so the
// tests cannot live inside this package).

// DecodeBootParams exposes decodeBootParams.
var DecodeBootParams = decodeBootParams

// FlushAllThreshold exposes flushAllThreshold.
const FlushAllThreshold = flushAllThreshold

// HasState reports whether the controller holds live state for enc.
func (c *Controller) HasState(enc *pisces.Enclave) bool { return c.stateFor(enc) != nil }

// EPTMapped reports whether enc's EPT currently maps addr.
func (c *Controller) EPTMapped(enc *pisces.Enclave, addr uint64) bool {
	st := c.stateFor(enc)
	return st != nil && st.ept.Mapped(addr)
}

// StackDepth exposes the hypervisor's current nested exit-handling depth.
func (h *Hypervisor) StackDepth() int { return h.stackDepth }

// PendingCommands reports the records queued for core but not yet drained.
// It takes only the per-core lock, which a closing epoch does not hold
// while it waits, so it answers while that epoch holds the ingest lock.
func (c *Controller) PendingCommands(enc *pisces.Enclave, core int) uint64 {
	st := c.stateFor(enc)
	if st == nil {
		return 0
	}
	if cc := st.core(core); cc != nil {
		return cc.queue.depth()
	}
	return 0
}
