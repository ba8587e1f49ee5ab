package hw

import (
	"slices"
	"testing"
)

// referenceStream is the element-at-a-time streaming loop MemStream batches:
// one translation lookup, one per-page cost, one poll per 4K page. Kept as
// the oracle the batched implementation must match cycle-for-cycle.
func referenceStream(c *CPU, addr, length uint64, write bool) error {
	if length == 0 {
		return c.poll()
	}
	cs := c.Costs()
	end := addr + length
	for page := AlignDown(addr, PageSize4K); page < end; page += PageSize4K {
		if !c.TLB.Lookup(page) {
			if err := c.translate(page, write); err != nil {
				return err
			}
		}
		lo, hi := page, page+PageSize4K
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		lines := (hi - lo + 63) / 64
		cost := lines * cs.MemLinePerStream
		if s := uint64(c.StreamSharers); s > 3 {
			cost = cost * 3 * s / 10
		}
		if r := c.findRegion(page); r != nil && r.Node != c.Node {
			cost = cs.remoteScale(cost)
		}
		c.Instret += lines
		c.charge(cost)
		if err := c.poll(); err != nil {
			return err
		}
	}
	return nil
}

// twinCPUs returns one CPU on each of two identically configured machines.
func twinCPUs(t *testing.T) (batched, reference *CPU) {
	t.Helper()
	mk := func() *CPU {
		spec := DefaultSpec()
		spec.MemPerNode = 1 << 30
		m, err := NewMachine(spec)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		return m.CPU(0)
	}
	return mk(), mk()
}

// tlbRecency returns each TLB class's page bases in probe order (2M, 4K,
// 1G), most recently used first, read off the class's recency list.
func tlbRecency(t *TLB) [3][]uint64 {
	var out [3][]uint64
	for k := range t.cls {
		c := &t.cls[k]
		for i := c.next[tlbMaxEntries]; i != tlbMaxEntries; i = c.next[i] {
			out[k] = append(out[k], c.tags[i])
		}
	}
	return out
}

// assertSameState fails the test unless the batched and the reference CPU
// agree on TSC, Instret, IRQsTaken, the TLB's counters, and every TLB
// class's entries in recency order, which decide what later accesses
// evict and so what they cost.
func assertSameState(t *testing.T, what string, batched, reference *CPU) {
	t.Helper()
	if bs, rs := batched.TLB.Stats(), reference.TLB.Stats(); bs != rs {
		t.Errorf("%s: TLB stats diverged: batched %+v reference %+v", what, bs, rs)
	}
	if batched.TSC != reference.TSC {
		t.Errorf("%s: TSC diverged: batched %d reference %d", what, batched.TSC, reference.TSC)
	}
	if batched.Instret != reference.Instret {
		t.Errorf("%s: Instret diverged: batched %d reference %d", what, batched.Instret, reference.Instret)
	}
	if batched.IRQsTaken != reference.IRQsTaken {
		t.Errorf("%s: IRQsTaken diverged: batched %d reference %d", what, batched.IRQsTaken, reference.IRQsTaken)
	}
	bo, ro := tlbRecency(batched.TLB), tlbRecency(reference.TLB)
	for k := range bo {
		if !slices.Equal(bo[k], ro[k]) {
			t.Errorf("%s: TLB class %d recency diverged: batched %#x reference %#x", what, k, bo[k], ro[k])
		}
	}
}

func TestMemStreamMatchesReference(t *testing.T) {
	base := uint64(1 << 21)
	remote := uint64(1<<38) + 4<<20 // node-1 memory: remote-scaled costs
	cases := []struct {
		name    string
		addr    uint64
		length  uint64
		sharers int
	}{
		{"aligned", base, 1 << 20, 0},
		{"partial-edges", base + 100, 3*PageSize4K + 700, 0},
		{"sub-page", base + 5000, 100, 0},
		{"contended", base, 1 << 20, 5},
		{"remote", remote, 1 << 19, 0},
		{"huge", base, 64 << 20, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, r := twinCPUs(t)
			b.StreamSharers = tc.sharers
			r.StreamSharers = tc.sharers
			if err := b.MemStream(tc.addr, tc.length, true); err != nil {
				t.Fatalf("batched: %v", err)
			}
			if err := referenceStream(r, tc.addr, tc.length, true); err != nil {
				t.Fatalf("reference: %v", err)
			}
			assertSameState(t, tc.name, b, r)
		})
	}
}

func TestMemStreamTimerTickLandsOnSamePage(t *testing.T) {
	b, r := twinCPUs(t)
	const vec = 0x40
	// Interval small enough that several ticks land inside one stream.
	interval := uint64(50_000)
	b.APIC.ArmTimer(b.TSC, interval, vec)
	r.APIC.ArmTimer(r.TSC, interval, vec)
	if err := b.MemStream(1<<21, 16<<20, false); err != nil {
		t.Fatalf("batched: %v", err)
	}
	if err := referenceStream(r, 1<<21, 16<<20, false); err != nil {
		t.Fatalf("reference: %v", err)
	}
	assertSameState(t, "timer", b, r)
	if b.IRQsTaken == 0 {
		t.Fatalf("timer never fired; interval too large for the stream")
	}
}
