// Package nautilus simulates the Nautilus Aerokernel as a second co-kernel
// architecture on the Pisces framework. The paper's §V recounts porting
// Nautilus to Pisces with Covirt underneath: development could start on
// real hardware immediately because the hypervisor contained early-bringup
// faults to the enclave.
//
// Nautilus differs from Kitten in exactly the ways that exercise the
// framework's generality:
//
//   - it is an aerokernel: a single physical address space shared by
//     lightweight threads, with no processes and no virtual memory
//     management beyond the identity map;
//   - its hybrid-runtime threads are created at boot and run to
//     completion — there is no scheduler to submit work to afterwards;
//   - it services only the minimal control protocol (ping/shutdown) and
//     rejects dynamic memory reconfiguration, as a specialized runtime
//     kernel would.
package nautilus

import (
	"fmt"
	"sync"
	"sync/atomic"

	"covirt/internal/hw"
	"covirt/internal/pisces"
)

// ThreadFn is one hybrid-runtime thread body, started at boot on its core.
type ThreadFn func(env *Env, rank int) error

// Env is the aerokernel execution environment: thinner than Kitten's (no
// syscall forwarding, no dynamic tasks), with direct access to the single
// address space.
type Env struct {
	K    *Kernel
	CPU  *hw.CPU
	Rank int
}

// Compute retires n abstract operations.
func (e *Env) Compute(n uint64) error { return e.CPU.Compute(n) }

// TSC samples the time-stamp counter.
func (e *Env) TSC() uint64 { return e.CPU.ReadTSC() }

// Heap returns the aerokernel's single heap region (everything after the
// reserved boot area). All threads share it; Nautilus-style runtimes
// partition it themselves.
func (e *Env) Heap() hw.Extent { return e.K.heap }

// Read64 and Write64 access the shared address space through the
// protection path.
func (e *Env) Read64(addr uint64) (uint64, error) { return e.CPU.Read64G(addr) }

// Write64 writes the shared address space.
func (e *Env) Write64(addr, v uint64) error { return e.CPU.Write64G(addr, v) }

// Stream charges a sequential sweep.
func (e *Env) Stream(addr, size uint64, write bool) error {
	return e.CPU.MemStream(addr, size, write)
}

// SendIPI signals another rank of the aerokernel.
func (e *Env) SendIPI(rank int, vector uint8) error {
	if rank < 0 || rank >= len(e.K.cores) {
		return fmt.Errorf("nautilus: no rank %d", rank)
	}
	return e.CPU.SendIPI(e.K.cores[rank].ID, vector)
}

// Kernel is one Nautilus instance. It implements pisces.Bootable.
type Kernel struct {
	entry ThreadFn

	mach  *hw.Machine
	enc   *pisces.Enclave
	cores []*hw.CPU
	heap  hw.Extent

	done   chan struct{}
	stop   sync.Once
	wg     sync.WaitGroup
	booted atomic.Bool

	// hbAddr is the supervisor heartbeat page (0 = unsupervised). Nautilus
	// is tickless by design, so supervision arms a timer on the boot core
	// only, solely to drive beats; hbCount is written from that core's
	// timer interrupt.
	hbAddr  uint64
	hbCount atomic.Uint64

	errMu    sync.Mutex
	errs     []error
	handlers sync.Map // vector -> func(*Env)

	// ctl serves the host control ring, never re-entering its own drain.
	ctl pisces.CtlDrain
}

// New returns an unbooted Nautilus image whose threads run entry.
func New(entry ThreadFn) *Kernel {
	return &Kernel{entry: entry, done: make(chan struct{})}
}

// Boot implements pisces.Bootable: identity-map the assignment, start one
// hybrid-runtime thread per core, and service the minimal control channel
// from interrupt context on the boot core.
func (k *Kernel) Boot(bc *pisces.BootContext) error {
	if k.booted.Load() {
		return fmt.Errorf("nautilus: already booted")
	}
	k.mach = bc.Machine
	k.enc = bc.Enclave

	first := bc.Params.Mem[0]
	k.heap = hw.Extent{
		Start: first.Start + pisces.ReservedBytes,
		Size:  first.Size - pisces.ReservedBytes,
		Node:  first.Node,
	}

	k.hbAddr = bc.Params.Heartbeat
	for i, id := range bc.Params.Cores {
		cpu := k.mach.CPU(id)
		if cpu == nil {
			return fmt.Errorf("nautilus: no core %d", id)
		}
		k.cores = append(k.cores, cpu)
		cpu.SetIRQHandler(k.handleIRQ)
		if i == 0 && k.hbAddr != 0 {
			cpu.APIC.ArmTimer(cpu.TSC, k.mach.Costs.TimerIntervalCycles, pisces.VectorTimer)
			// Initial beat before the boot thread starts, so the watchdog
			// measures hangs against this boot's TSC even if the thread
			// locks up instantly.
			k.beat(cpu)
		}
		rank := i
		k.wg.Add(1)
		go k.threadLoop(cpu, rank)
	}
	k.booted.Store(true)
	return nil
}

// threadLoop runs the rank's thread body, then idles (servicing
// interrupts — including Covirt's NMI doorbells) until shutdown.
func (k *Kernel) threadLoop(cpu *hw.CPU, rank int) {
	defer k.wg.Done()
	env := &Env{K: k, CPU: cpu, Rank: rank}
	if err := k.entry(env, rank); err != nil {
		k.recordErr(fmt.Errorf("rank %d: %w", rank, err))
	}
	for {
		select {
		case <-k.done:
			return
		default:
		}
		if err := cpu.Idle(k.done); err != nil {
			return
		}
	}
}

// recordErr appends a rank failure under the error lock.
func (k *Kernel) recordErr(err error) {
	k.errMu.Lock()
	defer k.errMu.Unlock()
	k.errs = append(k.errs, err)
}

// handleIRQ services interrupts: the Pisces control vector on any core,
// plus registered runtime vectors.
func (k *Kernel) handleIRQ(cpu *hw.CPU, vector uint8, external bool) {
	switch vector {
	case pisces.VectorTimer:
		if k.hbAddr != 0 && cpu.ID == k.cores[0].ID {
			k.beat(cpu)
		}
	case pisces.VectorCtl:
		// Nautilus accepts ping and shutdown and, being a static runtime
		// kernel, rejects memory reconfiguration.
		ping := func(m *pisces.Msg) bool { return m.Type == pisces.CmdPing }
		if k.ctl.Serve(pisces.CPUMemIO{CPU: cpu}, k.enc.CtlReq, k.enc.CtlResp, ping) {
			go k.Shutdown()
		}
	default:
		if h, ok := k.handlers.Load(vector); ok {
			rank := -1
			for i, c := range k.cores {
				if c.ID == cpu.ID {
					rank = i
				}
			}
			h.(func(*Env))(&Env{K: k, CPU: cpu, Rank: rank})
		}
	}
}

// beat publishes one liveness heartbeat from the boot core (timer-interrupt
// context): bump the monotonic counter and write it to the shared
// heartbeat page.
func (k *Kernel) beat(cpu *hw.CPU) {
	pisces.WriteHeartbeat(cpu, k.hbAddr, k.hbCount.Add(1))
}

// OnIPI registers a runtime interrupt handler.
func (k *Kernel) OnIPI(vector uint8, h func(*Env)) { k.handlers.Store(vector, h) }

// Shutdown implements pisces.Bootable.
func (k *Kernel) Shutdown() {
	k.stop.Do(func() {
		close(k.done)
		for _, c := range k.cores {
			c.APIC.DisarmTimer() // only armed when supervised
			c.APIC.RaiseNMI()    // wake idle loops
		}
	})
}

// Quiesce implements pisces.Quiescer: wait for all thread loops to exit.
func (k *Kernel) Quiesce() { k.wg.Wait() }

// Wait blocks until all thread loops exit, returning the first thread
// error.
func (k *Kernel) Wait() error {
	k.wg.Wait()
	k.errMu.Lock()
	defer k.errMu.Unlock()
	if len(k.errs) > 0 {
		return k.errs[0]
	}
	return nil
}

// JoinThreads blocks until every thread body has returned (they may still
// be idling) and reports the first error so far.
func (k *Kernel) Errors() []error {
	k.errMu.Lock()
	defer k.errMu.Unlock()
	out := make([]error, len(k.errs))
	copy(out, k.errs)
	return out
}

var _ pisces.Bootable = (*Kernel)(nil)
