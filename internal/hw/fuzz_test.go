package hw

import (
	"errors"
	"fmt"
	"testing"
)

// fuzzThird is the base of a 4 MiB region on node 0 that a charge
// program's timer handler may move between the nodes.
const fuzzThird = uint64(1) << 37

// fuzzUnbacked is an address no region backs: natively, an access to it
// crashes the node.
const fuzzUnbacked = uint64(1) << 36

// fuzzPages are the 2 MiB pages a charge program's accesses land on: two
// on each node and two in the movable region.
var fuzzPages = [...]uint64{
	4 * PageSize2M, 5 * PageSize2M,
	nodeStride + 6*PageSize2M, nodeStride + 7*PageSize2M,
	fuzzThird, fuzzThird + PageSize2M,
}

// maxChargeOps bounds the operations one charge program runs.
const maxChargeOps = 64

// fuzzTimerVector is the vector of a charge program's timer.
const fuzzTimerVector = 0x42

// program is a fuzz input being decoded. A read past its end gives 0.
type program []byte

func (p *program) next() uint64 {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return uint64(b)
}

// accessFlags is an access's flags byte: bit 0 makes it a write, bit 1 hot
// rather than DRAM, and bits 3-5 all set put it on unbacked memory. A
// gather reads two more: bit 2 adds six compute operations per element,
// and bit 6 keeps each element within the first 8 KiB of its page, so 4K
// TLB entries hit too.
type accessFlags uint64

func (f accessFlags) write() bool { return f&1 != 0 }
func (f accessFlags) fault() bool { return f>>3&7 == 7 }

func (f accessFlags) kind() AccessKind {
	if f&2 != 0 {
		return AccessHot
	}
	return AccessDRAM
}

// FuzzChargePaths decodes its input into a program of up to maxChargeOps
// operations and runs it on twin CPUs: each charging operation (Compute,
// MemAccess, MemStream, AccessGather) through the path under test on one,
// and on the other through its per-operation oracle, which runs poll's
// slow path after every operation. Between the charging operations both
// CPUs get the same events: the timer armed with a decoded interval or
// disarmed, a vector or an NMI raised, the core killed or revived. The
// timer's handler may retime its own timer, move a region to the other
// node, flush a page from the TLB or kill the core. After every operation
// the twins must agree on assertSameState, the NMI count and the fault
// returned.
//
// Byte 0 of the input picks the handler's actions and the CPU's settings
// (chargeSetup), byte 1 is their parameter, and each operation follows as
// an opcode byte and its operands (decodeChargeOp). The committed corpus
// under testdata/fuzz/FuzzChargePaths replays under plain go test.
func FuzzChargePaths(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		p := program(in)
		b, r := twinCPUs(t)
		setup, param := p.next(), p.next()
		chargeSetup(t, b, setup, param)
		chargeSetup(t, r, setup, param)
		for i := 0; i < maxChargeOps && len(p) > 0; i++ {
			name, run, oracle := decodeChargeOp(&p)
			berr, rerr := run(b), oracle(r)
			what := fmt.Sprintf("op %d, %s", i, name)
			assertSameState(t, what, b, r)
			if bn, rn := b.APIC.NMICount, r.APIC.NMICount; bn != rn {
				t.Errorf("%s: NMI count diverged: batched %d reference %d", what, bn, rn)
			}
			if !sameFault(berr, rerr) {
				t.Errorf("%s: batched err %v, reference err %v", what, berr, rerr)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// sameFault reports whether two operations failed alike: both succeeded,
// or both returned equal Faults (kind, address, CPU and message).
func sameFault(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *Fault
	return errors.As(a, &fa) && errors.As(b, &fb) && *fa == *fb
}

// chargeSetup prepares c for a charge program. It adds the movable region
// and installs an interrupt handler that, on the k-th timer tick, does what
// the bits of setup ask:
//
//	bit 0: retime the timer to (param+1) × (k mod 4 + 1) × 8 cycles;
//	bit 1: move the movable region to the other node;
//	bit 2: flush fuzzPages[k mod 6] from the TLB;
//	bit 3: kill the core when k = param mod 8.
//
// Bit 4 gives the CPU 4 KiB guest pages, so its TLB fills with 4K entries,
// and bit 5 five streaming sharers.
func chargeSetup(t *testing.T, c *CPU, setup, param uint64) {
	t.Helper()
	if _, err := c.M.Mem.AddRegion(fuzzThird, 4<<20, 0, "third"); err != nil {
		t.Fatal(err)
	}
	if setup&16 != 0 {
		c.GuestPageSize = PageSize4K
	}
	if setup&32 != 0 {
		c.StreamSharers = 5
	}
	tick, node := uint64(0), 0
	c.SetIRQHandler(func(c *CPU, vector uint8, _ bool) {
		if vector != fuzzTimerVector {
			return
		}
		k := tick
		tick++
		if setup&1 != 0 {
			c.APIC.ArmTimer(c.TSC, (param+1)*(k%4+1)*8, fuzzTimerVector)
		}
		if setup&2 != 0 {
			node ^= 1
			c.M.Mem.RemoveRegion(fuzzThird)
			if _, err := c.M.Mem.AddRegion(fuzzThird, 4<<20, node, "third"); err != nil {
				t.Error(err)
			}
		}
		if setup&4 != 0 {
			c.TLB.FlushRange(fuzzPages[k%uint64(len(fuzzPages))], PageSize2M)
		}
		if setup&8 != 0 && k == param%8 {
			c.Kill()
		}
	})
	c.SetNMIHandler(func(*CPU) {})
}

// decodeChargeOp decodes one operation: its name, the call on the CPU
// under test, and the call on the oracle CPU. An event is the same call
// for both. The opcode's low three bits pick the operation:
//
//	0 Compute(n): two bytes, n = 1 + the little-endian 16-bit value;
//	1 MemAccess: a page, two offset bytes, a flags byte;
//	2 MemStream: a page, two offset bytes, two length bytes, a flags byte;
//	3 AccessGather: a flags byte, a page count byte and that many pages
//	  (1–6, drawn from fuzzPages), two length bytes (up to 1023 elements),
//	  a seed byte, and, when the flags ask for a fault, an element byte;
//	4 arm the timer: an interval byte b, the interval (b mod 64 + 1) <<
//	  4 × (b / 64), from 1 to 262,144 cycles;
//	5 disarm the timer;
//	6 raise: a byte b, an NMI if b ≥ 128, else vector 0x50 + b mod 16,
//	  external if bit 4 is set;
//	7 kill the core, or revive it if the next byte is odd.
//
// A flags byte is read as accessFlags.
func decodeChargeOp(p *program) (name string, run, oracle func(c *CPU) error) {
	page := func() uint64 { return fuzzPages[p.next()%uint64(len(fuzzPages))] }
	event := func(name string, do func(c *CPU)) (string, func(*CPU) error, func(*CPU) error) {
		f := func(c *CPU) error { do(c); return nil }
		return name, f, f
	}
	switch p.next() % 8 {
	case 0:
		n := 1 + (p.next() | p.next()<<8)
		return fmt.Sprintf("Compute(%d)", n),
			func(c *CPU) error { return c.Compute(n) },
			func(c *CPU) error { return referenceCompute(c, n) }
	case 1:
		addr := page() + (p.next()<<13|p.next()<<5)%PageSize2M
		f := accessFlags(p.next())
		write, kind := f.write(), f.kind()
		if f.fault() {
			addr = fuzzUnbacked
		}
		return fmt.Sprintf("MemAccess(%#x, %v, %d)", addr, write, kind),
			func(c *CPU) error { return c.MemAccess(addr, write, kind) },
			func(c *CPU) error { return referenceAccess(c, addr, write, kind) }
	case 2:
		addr := page() + (p.next()<<12 | p.next()<<4)
		length := p.next()<<12 | p.next()<<3
		f := accessFlags(p.next())
		write := f.write()
		if f.fault() {
			addr = fuzzUnbacked
		}
		return fmt.Sprintf("MemStream(%#x, %d, %v)", addr, length, write),
			func(c *CPU) error { return c.MemStream(addr, length, write) },
			func(c *CPU) error { return referenceStream(c, addr, length, write) }
	case 3:
		f := accessFlags(p.next())
		write, kind := f.write(), f.kind()
		pages := make([]uint64, 1+p.next()%6)
		for i := range pages {
			pages[i] = page()
		}
		n := int(p.next()<<2 | p.next()%4)
		rng := NewRand(p.next())
		span := uint64(PageSize2M)
		if f&64 != 0 {
			span = 2 * PageSize4K
		}
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = pages[rng.Next()%uint64(len(pages))] + rng.Next()%span&^7
		}
		if f.fault() && n > 0 {
			addrs[p.next()%uint64(n)] = fuzzUnbacked
		}
		computePer := uint64(0)
		if f&4 != 0 {
			computePer = 6
		}
		return fmt.Sprintf("AccessGather(%d elements on %#x, %d, %v, %d)", n, pages, computePer, write, kind),
			func(c *CPU) error { return c.AccessGather(addrs, computePer, write, kind) },
			func(c *CPU) error { return referenceGather(c, addrs, computePer, write, kind) }
	case 4:
		b := p.next()
		interval := (b%64 + 1) << (4 * (b / 64))
		return event(fmt.Sprintf("ArmTimer(%d)", interval), func(c *CPU) {
			c.APIC.ArmTimer(c.TSC, interval, fuzzTimerVector)
		})
	case 5:
		return event("DisarmTimer", func(c *CPU) { c.APIC.DisarmTimer() })
	case 6:
		b := p.next()
		if b >= 128 {
			return event("RaiseNMI", func(c *CPU) { c.APIC.RaiseNMI() })
		}
		vector, external := uint8(0x50+b%16), b&16 != 0
		return event(fmt.Sprintf("Raise(%#x, %v)", vector, external), func(c *CPU) {
			c.APIC.Raise(vector, external)
		})
	default:
		if p.next()%2 == 1 {
			return event("Revive", (*CPU).Revive)
		}
		return event("Kill", (*CPU).Kill)
	}
}
