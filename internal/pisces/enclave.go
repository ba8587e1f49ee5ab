package pisces

import (
	"fmt"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

// State is an enclave's lifecycle state.
type State int

// Enclave lifecycle states.
const (
	StateCreated State = iota
	StateBooting
	StateRunning
	StateCrashed
	StateStopped
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateBooting:
		return "booting"
	case StateRunning:
		return "running"
	case StateCrashed:
		return "crashed"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Enclave is one hardware partition running an independent OS/R.
type Enclave struct {
	ID   int
	Name string
	// Cores is reassigned under mu by CPU hot-plug; while the enclave
	// runs, read it through CPUs or BootCPU.
	Cores []int

	mu          sync.Mutex
	mem         []hw.Extent
	memCaps     []authority.Cap // parallel to mem: the key for each extent
	state       State
	crashReason string

	// Control-plane channels (created by the framework).
	CtlReq  *Ring // host -> enclave commands
	CtlResp *Ring // enclave -> host acks
	LcReq   *Ring // enclave -> host longcalls
	LcResp  *Ring // host -> enclave longcall results

	// teardown fires when the enclave stops or crashes. Every wait on its
	// rings and command queues is bound to it.
	teardown *hw.Latch
	// reclaimed closes once every resource (cores included) has returned
	// to the pool and no stale execution context remains.
	reclaimed chan struct{}

	kernel Bootable
	fw     *Framework
	// serve is the host's longcall server (SetLongcallServer).
	serve func(*Enclave) error

	ctlSeq uint32
	ctlMu  sync.Mutex // serializes control commands
}

// Base returns the start of the enclave's first memory extent, which hosts
// the reserved boot-parameter/ring area.
func (e *Enclave) Base() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem[0].Start
}

// Mem returns a snapshot of the enclave's assigned memory extents.
func (e *Enclave) Mem() []hw.Extent {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]hw.Extent, len(e.mem))
	copy(out, e.mem)
	return out
}

// State returns the enclave's lifecycle state.
func (e *Enclave) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state
}

// CrashReason returns the recorded crash cause, if any.
func (e *Enclave) CrashReason() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashReason
}

// Done returns a channel closed when the enclave stops or crashes.
func (e *Enclave) Done() <-chan struct{} { return e.teardown.Done() }

// Teardown returns the latch that fires when the enclave stops or crashes.
// Host-side waits on state in the enclave's memory bind to it, so its
// teardown ends them.
func (e *Enclave) Teardown() *hw.Latch { return e.teardown }

// Reclaimed returns a channel closed when teardown has fully completed:
// the kernel quiesced and all hardware returned to the resource pool.
func (e *Enclave) Reclaimed() <-chan struct{} { return e.reclaimed }

// Kernel returns the booted co-kernel, or nil before boot.
func (e *Enclave) Kernel() Bootable {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.kernel
}

// SetLongcallServer installs the host's longcall server: the host side of
// the longcall rings, run by ServeLongcall on the calling core's own
// goroutine. The host installs it when the enclave has booted.
func (e *Enclave) SetLongcallServer(serve func(*Enclave) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.serve = serve
}

// ServeLongcall runs the host's service for one longcall the enclave pushed
// on LcReq: pop it, handle it, push the answer on LcResp and ring the
// caller's response doorbell. The co-kernel calls it from the core that
// made the call, which the core's goroutine has marked blocked on the host
// (hw.CPU.BlockOnHost). It fails when no host serves the enclave, or when
// the host found nothing to serve or could not answer.
func (e *Enclave) ServeLongcall() error {
	serve := e.longcallServer()
	if serve == nil {
		return fmt.Errorf("pisces: enclave %d: no host serves longcalls", e.ID)
	}
	return serve(e)
}

// longcallServer returns the installed longcall server, or nil.
func (e *Enclave) longcallServer() func(*Enclave) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.serve
}

// setState transitions the lifecycle state.
func (e *Enclave) setState(s State) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = s
}

// setRunning publishes the booted kernel and marks the enclave running.
func (e *Enclave) setRunning(kernel Bootable) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kernel = kernel
	// A boot thread may already have crashed the enclave; a terminal state
	// stands, or a later Destroy would tear the enclave down twice.
	if e.state != StateCrashed && e.state != StateStopped {
		e.state = StateRunning
	}
}

// beginTeardown transitions to a terminal state (StateCrashed or
// StateStopped) and snapshots the memory assignment for reclaim. It
// reports false if the enclave already reached a terminal state, so crash
// and destroy paths cannot double-tear-down.
func (e *Enclave) beginTeardown(final State, crashReason string) ([]hw.Extent, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateCrashed || e.state == StateStopped {
		return nil, false
	}
	e.state = final
	if final == StateCrashed {
		e.crashReason = crashReason
	}
	return append([]hw.Extent(nil), e.mem...), true
}

// appendMem records a hot-added memory extent with its capability.
func (e *Enclave) appendMem(ext hw.Extent, cap authority.Cap) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem = append(e.mem, ext)
	e.memCaps = append(e.memCaps, cap)
}

// memIndex locates a removable extent; extent 0 holds the reserved area
// and is never removable. Returns -1 if absent.
func (e *Enclave) memIndex(ext hw.Extent) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.mem {
		if i > 0 && x == ext {
			return i
		}
	}
	return -1
}

// dropMem removes the extent at index i, returning its capability so the
// caller can revoke it after protection teardown.
func (e *Enclave) dropMem(i int) authority.Cap {
	e.mu.Lock()
	defer e.mu.Unlock()
	cap := e.memCaps[i]
	e.mem = append(e.mem[:i], e.mem[i+1:]...)
	e.memCaps = append(e.memCaps[:i], e.memCaps[i+1:]...)
	return cap
}

// appendCore records a hot-added core.
func (e *Enclave) appendCore(core int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Cores = append(e.Cores, core)
}

// coreIndex locates a removable core; index 0 is the boot core and never
// removable. Returns -1 if absent.
func (e *Enclave) coreIndex(core int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, c := range e.Cores {
		if i > 0 && c == core {
			return i
		}
	}
	return -1
}

// dropCore removes the core at index i.
func (e *Enclave) dropCore(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Cores = append(e.Cores[:i], e.Cores[i+1:]...)
}

// CPUs resolves the enclave's cores to simulated CPUs.
func (e *Enclave) CPUs() []*hw.CPU {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*hw.CPU, 0, len(e.Cores))
	for _, id := range e.Cores {
		out = append(out, e.fw.Machine.CPU(id))
	}
	return out
}

// BootCPU returns the enclave's boot core (first assigned core).
func (e *Enclave) BootCPU() *hw.CPU {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fw.Machine.CPU(e.Cores[0])
}

// MemCaps returns a snapshot of the enclave's memory capabilities,
// parallel to Mem().
func (e *Enclave) MemCaps() []authority.Cap {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]authority.Cap, len(e.memCaps))
	copy(out, e.memCaps)
	return out
}

// CapForAddr returns the memory capability covering addr, if any. Host
// services use it to resolve a guest request's backing authority — the
// guest names addresses, the host names keys — so a guest can never
// exercise authority over memory it was not granted.
func (e *Enclave) CapForAddr(addr uint64) (authority.Cap, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, x := range e.mem {
		if x.Contains(addr) && i < len(e.memCaps) {
			return e.memCaps[i], true
		}
	}
	return authority.Cap{}, false
}

// OwnsAddr reports whether addr lies in the enclave's assigned memory.
func (e *Enclave) OwnsAddr(addr uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, x := range e.mem {
		if x.Contains(addr) {
			return true
		}
	}
	return false
}
