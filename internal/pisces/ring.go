package pisces

import (
	"errors"
	"fmt"
	"sync/atomic"

	"covirt/internal/hw"
)

// Msg is one fixed-size command-ring message. Fixed-size messages mirror
// Covirt's "commands are fixed-size messages" design and keep the
// shared-memory layout trivial for both kernels to parse.
type Msg struct {
	Type    uint32
	Seq     uint32
	Payload [MsgPayloadSize]byte
}

// Message geometry.
const (
	MsgPayloadSize = 56
	msgSize        = 64 // 4 type + 4 seq + 56 payload
	ringHdrSize    = 16 // head (8) + tail (8)
)

// RingSlots is the capacity of each command ring.
const RingSlots = 32

// ErrCorruptRing reports a ring header no honest producer and consumer can
// produce: the tail past the head, or more messages pending than the ring
// holds. The header lies in the enclave's reserved area, which the
// co-kernel can write, so a host endpoint that finds it so reports the
// enclave crashed.
var ErrCorruptRing = errors.New("corrupt ring header")

// Ring is a single-producer single-consumer command ring living in shared
// physical memory. Head and tail indices and all message bytes are stored
// in guest-visible memory and accessed through a MemIO, so an enclave-side
// endpoint pays simulated access costs and is subject to protection.
//
// An endpoint that must wait (a full ring for the producer, an empty one
// for the consumer) sleeps on the ring's hw.Handoff, which stands in for
// the interrupt-based wakeups of the real system: each push and pop
// broadcasts, and the wait ends early with an error once the enclave is
// torn down, the node crashes or the core the caller names is killed. The
// IPI "doorbell" side effects are modelled by the callers, which send
// IPIs around Push as the real stack does.
//
// Header and slot I/O run outside any lock: every backing word is atomic,
// and each index has one writer. So a guest endpoint may take an
// interrupt, and terminate its own enclave, in the middle of an access.
type Ring struct {
	base uint64
	wait *hw.Handoff

	// pushBuf and popBuf stage one message between a Msg and shared
	// memory, one buffer per endpoint: a stack array would escape through
	// the MemIO interface and cost an allocation per message.
	pushBuf, popBuf [msgSize]byte
}

// NewRing creates the Go-side handle for a ring at base. Its waits end when
// m crashes or teardown fires; either may be nil. The memory is not
// initialized; call Init from the owning (host) side first.
func NewRing(base uint64, m *hw.Machine, teardown *hw.Latch) *Ring {
	return &Ring{base: base, wait: hw.NewHandoff(m, teardown)}
}

// Init zeroes the ring header through io.
func (r *Ring) Init(io MemIO) error {
	if err := io.Write64(r.base, 0); err != nil {
		return err
	}
	return io.Write64(r.base+8, 0)
}

// slotAddr returns the physical address of slot i.
func (r *Ring) slotAddr(i uint64) uint64 {
	return r.base + ringHdrSize + (i%RingSlots)*msgSize
}

// Push appends m, waiting while the ring is full. It fails if the memory
// access faults, the header is corrupt, or a stop condition of the ring's
// wait holds (cpu names the core whose kill ends the wait, or nil).
func (r *Ring) Push(io MemIO, m *Msg, cpu *hw.CPU) error {
	var head uint64
	if err := r.wait.Wait(cpu, func() (bool, error) {
		h, t, err := r.ends(io)
		head = h
		return h-t < RingSlots, err
	}); err != nil {
		return err
	}
	return r.put(io, head, m)
}

// TryPush is Push without waiting; ok reports whether the ring had room.
func (r *Ring) TryPush(io MemIO, m *Msg) (ok bool, err error) {
	if err := r.wait.Stopped(nil); err != nil {
		return false, err
	}
	head, tail, err := r.ends(io)
	if err != nil || head-tail == RingSlots {
		return false, err
	}
	return true, r.put(io, head, m)
}

// put copies m into slot head through the producer's staging buffer, then
// publishes the slot.
func (r *Ring) put(io MemIO, head uint64, m *Msg) error {
	put32(r.pushBuf[:], 0, m.Type)
	put32(r.pushBuf[:], 4, m.Seq)
	copy(r.pushBuf[8:], m.Payload[:])
	if err := io.WriteBytes(r.slotAddr(head), r.pushBuf[:]); err != nil {
		return err
	}
	if err := io.Write64(r.base, head+1); err != nil {
		return err
	}
	r.wait.Broadcast()
	return nil
}

// Pop removes the oldest message, waiting while the ring is empty. It
// fails as Push does.
func (r *Ring) Pop(io MemIO, m *Msg, cpu *hw.CPU) error {
	var tail uint64
	if err := r.wait.Wait(cpu, func() (bool, error) {
		h, t, err := r.ends(io)
		tail = t
		return h > t, err
	}); err != nil {
		return err
	}
	return r.take(io, tail, m)
}

// TryPop is Pop without waiting; ok reports whether a message was taken.
func (r *Ring) TryPop(io MemIO, m *Msg) (ok bool, err error) {
	if err := r.wait.Stopped(nil); err != nil {
		return false, err
	}
	head, tail, err := r.ends(io)
	if err != nil || head == tail {
		return false, err
	}
	return true, r.take(io, tail, m)
}

// take copies the message in slot tail into m through the consumer's
// staging buffer, then retires the slot.
func (r *Ring) take(io MemIO, tail uint64, m *Msg) error {
	if err := io.ReadBytes(r.slotAddr(tail), r.popBuf[:]); err != nil {
		return err
	}
	m.Type = get32(r.popBuf[:], 0)
	m.Seq = get32(r.popBuf[:], 4)
	copy(m.Payload[:], r.popBuf[8:])
	if err := io.Write64(r.base+8, tail+1); err != nil {
		return err
	}
	r.wait.Broadcast()
	return nil
}

// Empty reports whether the ring holds no message, reading the header
// through io as TryPop does.
func (r *Ring) Empty(io MemIO) (bool, error) {
	if err := r.wait.Stopped(nil); err != nil {
		return false, err
	}
	head, tail, err := r.ends(io)
	return head == tail, err
}

// ends reads the head and tail words through io and checks them against
// each other, failing with ErrCorruptRing when they could not have come
// from an honest producer and consumer.
func (r *Ring) ends(io MemIO) (head, tail uint64, err error) {
	if head, err = io.Read64(r.base); err != nil {
		return 0, 0, err
	}
	if tail, err = io.Read64(r.base + 8); err != nil {
		return 0, 0, err
	}
	if tail > head || head-tail > RingSlots {
		return head, tail, fmt.Errorf("pisces: ring at %#x: %w (head %d, tail %d)", r.base, ErrCorruptRing, head, tail)
	}
	return head, tail, nil
}

// CtlDrain is the enclave side of the control ring, shared by the
// co-kernels. It makes their drain non-reentrant: the drain runs in
// interrupt context on the receiving core, and its ring accesses poll for
// interrupts, so a doorbell for a command the drain is already serving can
// re-enter it from inside TryPop, before that TryPop has retired its slot.
// A nested drain would read the same tail and serve the command twice. A
// call that finds a drain in progress only marks a re-drain and returns;
// the active drain makes one more pass before it exits, so no command is
// lost. The guard charges no simulated cycles. The zero value is ready to
// use.
type CtlDrain struct {
	// calls is 0 when idle, 1 while a drain runs, and above 1 once a
	// doorbell has asked that drain for another pass.
	calls atomic.Int32
}

// Run calls drain, and calls it again for as long as doorbells arrived
// during the previous pass.
func (d *CtlDrain) Run(drain func()) {
	if d.calls.Add(1) > 1 {
		return
	}
	for {
		drain()
		if d.calls.CompareAndSwap(1, 0) {
			return
		}
		// Every request folded away here arrived before the next pass
		// starts, so that pass serves its command.
		d.calls.Store(1)
	}
}

// Serve drains req on cpu, acknowledging each command on resp with AckOK
// when accept applies it and AckErr when it refuses, until req is empty. A
// CmdShutdown is acknowledged without consulting accept and ends the
// drain; Serve then reports it, and the kernel shuts down asynchronously
// so the interrupt returns first.
func (d *CtlDrain) Serve(cpu *hw.CPU, req, resp *Ring, accept func(*Msg) bool) (shutdown bool) {
	io := CPUMemIO{CPU: cpu}
	d.Run(func() {
		for !shutdown {
			var m Msg
			if ok, err := req.TryPop(io, &m); err != nil || !ok {
				return
			}
			ack := Msg{Type: AckErr, Seq: m.Seq}
			if shutdown = m.Type == CmdShutdown; shutdown || accept(&m) {
				ack.Type = AckOK
			}
			if err := resp.Push(io, &ack, cpu); err != nil {
				return
			}
		}
	})
	return shutdown
}
