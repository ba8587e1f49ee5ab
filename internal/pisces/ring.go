package pisces

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// Ring is a single-producer single-consumer command ring living in shared
// physical memory. Head and tail indices and all message bytes are stored
// in guest-visible memory and accessed through a MemIO, so an enclave-side
// endpoint pays simulated access costs and is subject to protection.
//
// Go-level blocking (cond + done channel) stands in for the interrupt-based
// wakeups of the real system; the IPI "doorbell" side effects are modelled
// by the callers, which send IPIs around Push as the real stack does.
type Ring struct {
	base uint64

	mu   sync.Mutex
	cond *sync.Cond
	done <-chan struct{}

	closed bool
	// buf stages one message between the caller's Msg and shared memory.
	// It is guarded by mu: a stack array would escape through the MemIO
	// interface and cost an allocation per message.
	buf [msgSize]byte
}

// NewRing creates the Go-side handle for a ring at base. The memory is not
// initialized; call Init from the owning (host) side first.
func NewRing(base uint64, done <-chan struct{}) *Ring {
	r := &Ring{base: base, done: done}
	r.cond = sync.NewCond(&r.mu)
	if done != nil {
		go func() {
			<-done
			r.markClosed()
		}()
	}
	return r
}

// markClosed latches the closed flag and releases all blocked endpoints.
// The broadcast runs under the lock so a racing Pop between its closed
// check and cond.Wait cannot miss it.
func (r *Ring) markClosed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.cond.Broadcast()
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

// Push appends m, blocking while the ring is full. It returns an error if
// the ring is shut down or the memory access faults.
func (r *Ring) Push(io MemIO, m *Msg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		head, tail, err := r.ends(io)
		if err != nil {
			return err
		}
		if head-tail < RingSlots {
			put32(r.buf[:], 0, m.Type)
			put32(r.buf[:], 4, m.Seq)
			copy(r.buf[8:], m.Payload[:])
			if err := io.WriteBytes(r.slotAddr(head), r.buf[:]); err != nil {
				return err
			}
			if err := io.Write64(r.base, head+1); err != nil {
				return err
			}
			r.cond.Broadcast()
			return nil
		}
		r.cond.Wait()
	}
}

// Pop removes the oldest message, blocking while the ring is empty.
func (r *Ring) Pop(io MemIO, m *Msg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		head, tail, err := r.ends(io)
		if err != nil {
			return err
		}
		if head > tail {
			if err := r.load(io, tail, m); err != nil {
				return err
			}
			if err := io.Write64(r.base+8, tail+1); err != nil {
				return err
			}
			r.cond.Broadcast()
			return nil
		}
		r.cond.Wait()
	}
}

// TryPop is Pop without blocking; ok reports whether a message was taken.
func (r *Ring) TryPop(io MemIO, m *Msg) (ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	head, tail, err := r.ends(io)
	if err != nil || head == tail {
		return false, err
	}
	if err := r.load(io, tail, m); err != nil {
		return false, err
	}
	if err := io.Write64(r.base+8, tail+1); err != nil {
		return false, err
	}
	r.cond.Broadcast()
	return true, nil
}

// load copies the message in slot tail into m through the ring's staging
// buffer. Caller holds r.mu.
func (r *Ring) load(io MemIO, tail uint64, m *Msg) error {
	if err := io.ReadBytes(r.slotAddr(tail), r.buf[:]); err != nil {
		return err
	}
	m.Type = get32(r.buf[:], 0)
	m.Seq = get32(r.buf[:], 4)
	copy(m.Payload[:], r.buf[8:])
	return nil
}

// Empty reports whether the ring holds no message, reading the header
// through io as TryPop does.
func (r *Ring) Empty(io MemIO) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	head, tail, err := r.ends(io)
	return head == tail, err
}

// ends reads the head and tail words through io, failing once the ring is
// shut down. Caller holds r.mu.
func (r *Ring) ends(io MemIO) (head, tail uint64, err error) {
	if r.closed {
		return 0, 0, fmt.Errorf("pisces: ring shut down")
	}
	if head, err = io.Read64(r.base); err != nil {
		return 0, 0, err
	}
	tail, err = io.Read64(r.base + 8)
	return head, tail, err
}

// Close shuts the ring down, releasing all blocked endpoints.
func (r *Ring) Close() {
	r.markClosed()
}

// CtlDrain is the enclave side of the control ring, shared by the
// co-kernels. It makes their drain non-reentrant: the drain runs in
// interrupt context on the receiving core, and its ring accesses poll for
// interrupts, so a doorbell for a command the drain is already serving can
// re-enter it from inside TryPop, which holds the ring lock. A call that
// finds a drain in progress only marks a re-drain and returns; the active
// drain makes one more pass before it exits, so no command is lost. The
// guard charges no simulated cycles. The zero value is ready to use.
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

// Serve drains req, acknowledging each command on resp with AckOK when
// accept applies it and AckErr when it refuses, until req is empty. A
// CmdShutdown is acknowledged without consulting accept and ends the
// drain; Serve then reports it, and the kernel shuts down asynchronously
// so the interrupt returns first.
func (d *CtlDrain) Serve(io MemIO, req, resp *Ring, accept func(*Msg) bool) (shutdown bool) {
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
			if err := resp.Push(io, &ack); err != nil {
				return
			}
		}
	})
	return shutdown
}
