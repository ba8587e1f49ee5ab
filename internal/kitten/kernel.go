package kitten

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/pisces"
)

// Kernel-internal interrupt vectors (distinct from the Pisces control
// vectors).
const (
	VectorResched  uint8 = 0xF0 // wake an idle core: new task queued
	VectorTLBFlush uint8 = 0xF1 // TLB shootdown request
)

// errKernelDown fails a task that the kernel will never run: one spawned
// after its core's loop exited, or still queued when the loop exits.
var errKernelDown = errors.New("kitten: kernel is down")

// Kernel is one booted Kitten instance inside a Pisces enclave. It
// implements pisces.Bootable. Each core's local APIC timer ticks at the
// machine's hw.Costs.TimerIntervalCycles (0 runs tickless), the period
// the host-side supervisor also judges heartbeats against.
type Kernel struct {
	mach *hw.Machine
	enc  *pisces.Enclave
	bp   *pisces.BootParams
	auth *authority.Table

	mm    *MemMap
	alloc *pisces.Ledger

	coresMu sync.RWMutex
	cores   []*coreCtx
	byCPU   map[int]*coreCtx
	stopped atomic.Bool // set by Shutdown; every core loop exits on it
	wg      sync.WaitGroup
	booted  atomic.Bool

	lcMu  sync.Mutex
	lcSeq uint32

	irqMu       sync.Mutex
	irqHandlers map[uint8]func(env *Env)

	flushMu      sync.Mutex
	flushPending map[int]*flushQueue // cpu id -> shootdown work awaiting the core

	// ctl serves the host control ring, never re-entering its own drain.
	ctl pisces.CtlDrain

	// Ticks counts timer interrupts taken (noise accounting).
	Ticks atomic.Uint64

	// hbAddr is the supervisor heartbeat page (0 = unsupervised); hbCount
	// is the monotonic beat counter, written by the boot core's timer
	// interrupt only.
	hbAddr  uint64
	hbCount atomic.Uint64
}

// coreCtx is the per-core execution context: exactly one goroutine runs a
// core at any time (the core loop), alternating between queued tasks and
// the idle loop.
type coreCtx struct {
	local   int // index within the enclave at creation time
	cpu     *hw.CPU
	offline atomic.Bool   // set on hot-remove
	exited  chan struct{} // closed when the core loop returns
	busy    atomic.Bool   // a task is executing

	// mu guards the run queue. down is set as the core loop exits: no task
	// is queued after that, and the loop fails every task it leaves.
	mu    sync.Mutex //covirt:guards queue,down
	queue []*Task
	down  bool
}

// flushQueue is one core's share of pending TLB shootdowns: the ranges to
// flush, and the VectorTLBFlush IPIs raised for them and not yet delivered.
type flushQueue struct {
	ranges []hw.Extent
	ipis   int
}

// Task is one run-to-completion unit of guest work.
type Task struct {
	Name string
	fn   func(*Env) error
	err  error
	done chan struct{}
}

// Wait blocks until the task finishes, or its core's loop exits without
// running it, and returns its error.
func (t *Task) Wait() error {
	<-t.done
	return t.err
}

// New returns an unbooted Kitten image.
func New() *Kernel {
	return &Kernel{
		mm:           NewMemMap(),
		alloc:        pisces.NewLedgerGranule(hw.PageSize4K),
		byCPU:        make(map[int]*coreCtx),
		irqHandlers:  make(map[uint8]func(*Env)),
		flushPending: make(map[int]*flushQueue),
	}
}

// verifyMemRef checks the i-th boot extent against its capability
// reference from the boot parameters. A missing table (bare-metal test
// boots outside a framework) skips verification.
func (k *Kernel) verifyMemRef(i int, ext hw.Extent) bool {
	if k.auth == nil {
		return true
	}
	if i >= len(k.bp.MemCaps) {
		return false
	}
	cap, ok := k.auth.Resolve(k.bp.MemCaps[i])
	if !ok {
		return false
	}
	return k.auth.Covers(cap, int(k.bp.EnclaveID), authority.KindMemory,
		authority.RightMap, authority.MemScope(ext.Start, ext.Size))
}

// verifyWireCap checks a hot-add command's capability reference: the key
// must resolve, belong to this enclave, and cover the granted extent.
func (k *Kernel) verifyWireCap(ref authority.Ref, ext hw.Extent) bool {
	if k.auth == nil {
		return true
	}
	cap, ok := k.auth.Resolve(ref)
	if !ok {
		return false
	}
	return k.auth.Covers(cap, int(k.bp.EnclaveID), authority.KindMemory,
		authority.RightMap, authority.MemScope(ext.Start, ext.Size))
}

// Boot implements pisces.Bootable.
func (k *Kernel) Boot(bc *pisces.BootContext) error {
	if k.booted.Load() {
		return fmt.Errorf("kitten: already booted")
	}
	k.mach = bc.Machine
	k.enc = bc.Enclave
	k.bp = bc.Params
	k.auth = bc.Auth
	k.hbAddr = bc.Params.Heartbeat

	// Build the memory map from the boot parameters and hand the
	// non-reserved portions to the physical allocator. The co-kernel
	// adopts only extents it holds a live memory capability for: a boot
	// block naming frames without keys is treated as hostile.
	for i, e := range k.bp.Mem {
		if !k.verifyMemRef(i, e) {
			return fmt.Errorf("kitten: no valid memory capability for boot extent %v", e)
		}
		k.mm.Add(e)
		usable := e
		if i == 0 {
			usable.Start += pisces.ReservedBytes
			usable.Size -= pisces.ReservedBytes
		}
		if err := k.alloc.DonateMemory(usable); err != nil {
			return fmt.Errorf("kitten: allocator: %w", err)
		}
	}

	// Count enclave cores per NUMA node so CPUs can model bandwidth
	// sharing within the partition.
	sharers := make(map[int]int)
	for _, id := range k.bp.Cores {
		if cpu := k.mach.CPU(id); cpu != nil {
			sharers[cpu.Node]++
		}
	}

	for _, id := range k.bp.Cores {
		cpu := k.mach.CPU(id)
		if cpu == nil {
			return fmt.Errorf("kitten: no such core %d", id)
		}
		cpu.StreamSharers = sharers[cpu.Node]
		if k.hbAddr != 0 && id == k.bp.Cores[0] {
			// Initial beat, written before the core loop starts: the
			// watchdog's reference stamp is this boot's TSC from the first
			// scan on, never a stale value from the core's prior history.
			k.beat(cpu)
		}
		k.onlineCore(cpu)
	}
	k.booted.Store(true)
	return nil
}

// onlineCore brings one CPU into the kernel: interrupt handler, timer, and
// a fresh scheduler loop. Used at boot and on hot-add.
func (k *Kernel) onlineCore(cpu *hw.CPU) *coreCtx {
	cc := k.registerCore(cpu)
	cpu.SetIRQHandler(k.handleIRQ)
	if interval := k.mach.Costs.TimerIntervalCycles; interval > 0 {
		cpu.APIC.ArmTimer(cpu.TSC, interval, pisces.VectorTimer)
	}
	k.wg.Add(1)
	go k.coreLoop(cc)
	return cc
}

// registerCore allocates a core context and links it into the core tables
// under the lock; IRQ wiring and the scheduler loop start outside it.
func (k *Kernel) registerCore(cpu *hw.CPU) *coreCtx {
	k.coresMu.Lock()
	defer k.coresMu.Unlock()
	cc := &coreCtx{
		local:  len(k.cores),
		cpu:    cpu,
		exited: make(chan struct{}),
	}
	k.cores = append(k.cores, cc)
	k.byCPU[cpu.ID] = cc
	return cc
}

// Shutdown implements pisces.Bootable. It stops all core loops; safe to
// call multiple times and from any goroutine. It sets the stop flag, then
// wakes every core the kernel runs, hot-added ones included: an idle core
// re-checks the flag, and a busy one checks it when its task returns. A
// wake posts no event. An NMI raised to wake them would charge its
// handler to whichever core polled first, which host timing decides.
func (k *Kernel) Shutdown() {
	k.stopped.Store(true)
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	for _, cc := range k.cores {
		cc.cpu.APIC.DisarmTimer()
		cc.cpu.Wake()
	}
}

// Quiesce implements pisces.Quiescer: it blocks until all core loops exit
// (after Shutdown or a crash).
func (k *Kernel) Quiesce() { k.wg.Wait() }

// NumCores returns the enclave's current core count.
func (k *Kernel) NumCores() int {
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	return len(k.cores)
}

// CPU returns the hw CPU of local core index i.
func (k *Kernel) CPU(i int) *hw.CPU {
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	return k.cores[i].cpu
}

// core returns the core context at local index i, or nil.
func (k *Kernel) core(i int) *coreCtx {
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	if i < 0 || i >= len(k.cores) {
		return nil
	}
	return k.cores[i]
}

// MemMap exposes the kernel's memory map (tests, controller integration).
func (k *Kernel) MemMap() *MemMap { return k.mm }

// Nodes returns the distinct NUMA nodes the enclave's memory spans.
func (k *Kernel) Nodes() []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range k.bp.Mem {
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	return out
}

// coreLoop is the per-core scheduler: run queued tasks to completion,
// otherwise idle (servicing interrupts). Shutdown and hot-remove are
// checked before each task, so a task queued behind one that killed the
// enclave fails instead of racing the shutdown.
func (k *Kernel) coreLoop(cc *coreCtx) {
	defer k.wg.Done()
	defer close(cc.exited)
	defer cc.shutDown()
	stop := func() bool { return k.stopped.Load() || cc.offline.Load() }
	for !stop() {
		if t := cc.next(); t != nil {
			k.runTask(cc, t)
			continue
		}
		// Idle returns on any event; the loop then re-checks the queue.
		if err := cc.cpu.Idle(stop); err != nil {
			// Machine crashed or enclave killed: stop the core.
			return
		}
	}
}

// enqueue appends t to the run queue and raises the reschedule doorbell
// under the queue lock, reporting false once the core loop has exited.
// The loop cannot dequeue t before its doorbell is pending, so by the time
// t runs the doorbell is either serviced (the idle loop polled it) or
// pending for t's first poll: its cost lands at the same point in the
// cycle stream on every run, never at a host-scheduled point inside the
// task body (the multi-rank cycle jitter flake).
func (cc *coreCtx) enqueue(t *Task) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.down {
		return false
	}
	cc.queue = append(cc.queue, t)
	cc.cpu.APIC.Raise(VectorResched, false)
	return true
}

// next dequeues the oldest queued task, or returns nil. It shifts the rest
// down in place, so the queue keeps its backing array and a spawn does not
// allocate one.
func (cc *coreCtx) next() *Task {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.queue) == 0 {
		return nil
	}
	t := cc.queue[0]
	n := copy(cc.queue, cc.queue[1:])
	cc.queue[n] = nil
	cc.queue = cc.queue[:n]
	return t
}

// queued reports how many tasks wait in the run queue.
func (cc *coreCtx) queued() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.queue)
}

// shutDown closes the run queue and fails every task still in it.
func (cc *coreCtx) shutDown() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.down = true
	for _, t := range cc.queue {
		t.err = errKernelDown
		close(t.done)
	}
	cc.queue = nil
}

// runTask executes one task on the core, converting guest panics raised by
// Env helpers into task errors.
func (k *Kernel) runTask(cc *coreCtx, t *Task) {
	cc.busy.Store(true)
	defer cc.busy.Store(false)
	env := &Env{K: k, CPU: cc.cpu, Core: cc.local, Task: t}
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			if ge, ok := r.(guestError); ok {
				t.err = ge.err
				return
			}
			panic(r)
		}
	}()
	t.err = t.fn(env)
}

// Spawn queues fn on local core index, waking the core if idle.
func (k *Kernel) Spawn(name string, core int, fn func(*Env) error) (*Task, error) {
	if !k.booted.Load() {
		return nil, fmt.Errorf("kitten: not booted")
	}
	cc := k.core(core)
	if cc == nil {
		return nil, fmt.Errorf("kitten: no local core %d", core)
	}
	t := &Task{Name: name, fn: fn, done: make(chan struct{})}
	if !cc.enqueue(t) {
		return nil, errKernelDown
	}
	return t, nil
}

// RunParallel spawns fn on cores 0..n-1 (rank passed to each) and waits for
// all of them, returning the first error.
func (k *Kernel) RunParallel(name string, n int, fn func(env *Env, rank int) error) error {
	if n <= 0 || n > k.NumCores() {
		return fmt.Errorf("kitten: RunParallel over %d cores, have %d", n, k.NumCores())
	}
	tasks := make([]*Task, n)
	for r := 0; r < n; r++ {
		rank := r
		t, err := k.Spawn(fmt.Sprintf("%s/%d", name, rank), rank, func(e *Env) error { return fn(e, rank) })
		if err != nil {
			return err
		}
		tasks[rank] = t
	}
	var first error
	for _, t := range tasks {
		if err := t.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OnIPI registers an application-level handler for an IPI vector,
// mirroring Hobbes' globally-allocatable per-core IPI vectors.
func (k *Kernel) OnIPI(vector uint8, h func(env *Env)) {
	k.irqMu.Lock()
	defer k.irqMu.Unlock()
	k.irqHandlers[vector] = h
}

// ipiHandler looks up the registered handler for vector.
func (k *Kernel) ipiHandler(vector uint8) func(env *Env) {
	k.irqMu.Lock()
	defer k.irqMu.Unlock()
	return k.irqHandlers[vector]
}

// coreFor maps a machine CPU ID to its kernel core context, or nil.
func (k *Kernel) coreFor(cpuID int) *coreCtx {
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	return k.byCPU[cpuID]
}

// handleIRQ is the kernel interrupt dispatcher; it runs in interrupt
// context on the receiving core's execution goroutine.
func (k *Kernel) handleIRQ(cpu *hw.CPU, vector uint8, external bool) {
	switch vector {
	case pisces.VectorTimer:
		k.Ticks.Add(1)
		if k.hbAddr != 0 && cpu.ID == k.bp.Cores[0] {
			k.beat(cpu)
		}
	case VectorResched, pisces.VectorLcResp:
		// Nothing: the wakeup itself is the point.
	case VectorTLBFlush:
		k.flushLocal(cpu)
	case pisces.VectorCtl:
		accept := func(m *pisces.Msg) bool { return k.ctlCommand(cpu, m) }
		if k.ctl.Serve(cpu, k.enc.CtlReq, k.enc.CtlResp, accept) {
			go k.Shutdown() // async: let this IRQ return first
		}
	default:
		if h := k.ipiHandler(vector); h != nil {
			if cc := k.coreFor(cpu.ID); cc != nil {
				h(&Env{K: k, CPU: cpu, Core: cc.local})
			}
		}
	}
}

// beat publishes one liveness heartbeat from the boot core (timer-interrupt
// context): bump the monotonic counter and write it to the shared
// heartbeat page.
func (k *Kernel) beat(cpu *hw.CPU) {
	pisces.WriteHeartbeat(cpu, k.hbAddr, k.hbCount.Add(1))
}

// flushLocal performs this core's share of a pending TLB shootdown. It
// consumes the core's queued ranges under flushMu (the TLB is the core's
// own and takes no lock) and keeps the slice's backing for the next
// shootdown, so queueing a range allocates only until the slice has grown.
// The APIC folds a VectorTLBFlush raised while one is pending into it, so
// a delivery that finds more IPIs raised than delivered raises the vector
// again: every raise costs one delivery, whether or not the core polled
// between two shootdowns.
func (k *Kernel) flushLocal(cpu *hw.CPU) {
	if k.takeFlushes(cpu) {
		cpu.APIC.Raise(VectorTLBFlush, false)
	}
}

// takeFlushes flushes the core's queued ranges and accounts one delivered
// IPI, reporting whether more were raised than delivered.
func (k *Kernel) takeFlushes(cpu *hw.CPU) (again bool) {
	k.flushMu.Lock()
	defer k.flushMu.Unlock()
	q := k.flushPending[cpu.ID]
	if q == nil {
		return false
	}
	for _, r := range q.ranges {
		cpu.TLB.FlushRange(r.Start, r.Size)
		cpu.TSC += cpu.Costs().TLBFlushPage
	}
	q.ranges = q.ranges[:0]
	if q.ipis > 0 {
		q.ipis--
	}
	return q.ipis > 0
}

// queueFlush records a pending shootdown range for one core, with the IPI
// the caller raises for it.
func (k *Kernel) queueFlush(cpuID int, e hw.Extent) {
	k.flushMu.Lock()
	defer k.flushMu.Unlock()
	q := k.flushPending[cpuID]
	if q == nil {
		q = &flushQueue{}
		k.flushPending[cpuID] = q
	}
	q.ranges = append(q.ranges, e)
	q.ipis++
}

// snapshotCores copies the core list under the read lock.
func (k *Kernel) snapshotCores() []*coreCtx {
	k.coresMu.RLock()
	defer k.coresMu.RUnlock()
	return append([]*coreCtx(nil), k.cores...)
}

// shootdown flushes [e.Start, e.End) on the initiating core immediately and
// queues asynchronous flushes (IPI-driven) on the enclave's other cores.
// flushLocal is the IPI's whole handler, so the initiator delivers it for
// a halted core (hw.CPU.RingIPI).
func (k *Kernel) shootdown(initiator *hw.CPU, e hw.Extent) {
	initiator.TLB.FlushRange(e.Start, e.Size)
	initiator.TSC += initiator.Costs().TLBFlushPage
	for _, cc := range k.snapshotCores() {
		if cc.cpu.ID == initiator.ID {
			continue
		}
		k.queueFlush(cc.cpu.ID, e)
		cc.cpu.RingIPI(VectorTLBFlush)
	}
}

// ctlCommand applies one host control command, reporting whether it was
// accepted. Runs in interrupt context on the receiving core, under k.ctl.
func (k *Kernel) ctlCommand(cpu *hw.CPU, m *pisces.Msg) bool {
	switch m.Type {
	case pisces.CmdPing:
		return true // liveness only
	case pisces.CmdMemAdd:
		ext := hw.Extent{
			Start: get64(m.Payload[:], 0),
			Size:  get64(m.Payload[:], 8),
			Node:  int(get64(m.Payload[:], 16)),
		}
		ref := authority.Ref{ID: get64(m.Payload[:], 24), Gen: get64(m.Payload[:], 32)}
		// Hot-added memory without a live key is rejected before it
		// touches the memory map or the allocator.
		if !k.verifyWireCap(ref, ext) {
			return false
		}
		k.mm.Add(ext)
		return k.alloc.DonateMemory(ext) == nil
	case pisces.CmdMemRemove:
		ext := hw.Extent{Start: get64(m.Payload[:], 0), Size: get64(m.Payload[:], 8)}
		ext.Node = k.mach.Mem.NodeOf(ext.Start)
		// The extent must be unused (still free in the allocator).
		if k.alloc.Reserve(ext) != nil || !k.mm.Remove(ext) {
			return false
		}
		k.shootdown(cpu, ext)
		return true
	case pisces.CmdCPUAdd:
		newCPU := k.mach.CPU(int(get64(m.Payload[:], 0)))
		if newCPU == nil {
			return false
		}
		k.onlineCore(newCPU)
		return true
	case pisces.CmdCPURemove:
		return k.offlineCore(int(get64(m.Payload[:], 0))) == nil
	}
	return false
}

// offlineCore stops an idle hot-added core's scheduler loop. It refuses if
// the core is running or has queued work, or is the boot core.
func (k *Kernel) offlineCore(cpuID int) error {
	cc, err := k.detachCore(cpuID)
	if err != nil {
		return err
	}

	// Stop the core loop and wait for it to exit (it may take IRQs on the
	// way out, which need coresMu, so the lock is already released): only
	// a quiesced core may be handed back to the host.
	cc.offline.Store(true)
	cc.cpu.APIC.DisarmTimer()
	cc.cpu.Wake()
	<-cc.exited
	return nil
}

// detachCore unlinks an idle hot-added core from the core tables under the
// lock, or reports why it cannot be offlined.
func (k *Kernel) detachCore(cpuID int) (*coreCtx, error) {
	k.coresMu.Lock()
	defer k.coresMu.Unlock()
	var cc *coreCtx
	idx := -1
	for i, c := range k.cores {
		if i > 0 && c.cpu.ID == cpuID {
			cc, idx = c, i
			break
		}
	}
	if cc == nil {
		return nil, fmt.Errorf("kitten: core %d not offline-able", cpuID)
	}
	if cc.busy.Load() || cc.queued() > 0 {
		return nil, fmt.Errorf("kitten: core %d is busy", cpuID)
	}
	k.cores = append(k.cores[:idx], k.cores[idx+1:]...)
	delete(k.byCPU, cpuID)
	return cc, nil
}

// AllocMemory carves an application memory region from the enclave's
// assigned memory on node (contiguous, 2M-granular).
func (k *Kernel) AllocMemory(node int, size uint64) (hw.Extent, error) {
	return k.alloc.AllocMemory(node, size)
}

// FreeMemory returns an application region to the kernel allocator.
func (k *Kernel) FreeMemory(e hw.Extent) { k.alloc.FreeMemory(e) }

var _ pisces.Bootable = (*Kernel)(nil)
