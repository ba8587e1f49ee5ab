package covirt

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/trace"
	"covirt/internal/vmx"
)

// Management-plane cycle costs charged onto synchronous paths (the
// controller runs on host cores; guests blocked on an operation wait for
// this work, so it surfaces in latencies like the XEMEM attach delay).
const (
	costPerEPTLeaf   = 25  // writing one EPT leaf entry
	costPerUnmapLeaf = 30  // clearing entries, possibly splitting
	costCmdIssue     = 250 // queue write + NMI doorbell
)

// flushAllThreshold is the merged-range count past which an epoch's
// shootdown collapses into one CmdFlushAll: invalidating everything is
// cheaper than walking a long range list on every core.
const flushAllThreshold = 8

// IngestStats counts one enclave's traffic through the controller's
// ingest path (resource-assignment events, epochs, and flush-command
// economics).
type IngestStats struct {
	// Events is the number of resource-assignment events ingested.
	Events uint64
	// AdmissionWaits is always 0: the controller admits every event. It
	// stays because perfbench reports it as covirt.admission_waits.
	AdmissionWaits uint64
	// Epochs is the number of shootdown epochs closed.
	Epochs uint64
	// FlushCmds is the number of flush commands pushed (all cores).
	FlushCmds uint64
	// FlushCmdsSaved is how many per-extent flush commands coalescing
	// avoided pushing (all cores).
	FlushCmdsSaved uint64
	// StallCycles counts cycles spent in ring backpressure (all cores).
	StallCycles uint64
}

// QueueStats is the per-enclave command-queue / ingest snapshot behind the
// enclavectl qstats verb.
type QueueStats struct {
	EnclaveID int
	Slots     uint64 // ring capacity per core
	// Depth maps machine core id -> pushed-but-undrained records.
	Depth map[int]uint64
	// EpochIssued is the last shootdown epoch the controller opened;
	// EpochApplied maps core id -> last epoch that core has applied.
	EpochIssued  uint64
	EpochApplied map[int]uint64
	Ingest       IngestStats
}

// Ioctl numbers the controller registers with the Pisces framework's
// control ABI (the paper's "new set of ioctl commands").
const (
	IoctlSetFeatures uint32 = 0xC0560001 // arg: SetFeaturesArgs (pre-boot)
	IoctlStatus      uint32 = 0xC0560002 // arg: enclave id (int) -> *Status
	IoctlGrantIO     uint32 = 0xC0560003 // arg: GrantIOArgs
	IoctlQueueStats  uint32 = 0xC0560004 // arg: enclave id (int) -> *QueueStats
)

// SetFeaturesArgs selects an enclave's protection features (before boot).
type SetFeaturesArgs struct {
	EnclaveID int
	Features  Features
}

// GrantIOArgs permits an enclave to access an I/O port. Cap must be an
// I/O capability held by the enclave whose scope covers the port
// (delegated via Controller.DelegateIO or directly from the table).
type GrantIOArgs struct {
	EnclaveID int
	Port      uint16
	Cap       authority.Cap
}

// Status reports an enclave's Covirt runtime state.
type Status struct {
	EnclaveID   int
	Features    Features
	EPT         vmx.EPTStats
	Exits       map[string]uint64
	ExitCycles  uint64
	DroppedIPIs uint64
	MapOps      uint64
	UnmapOps    uint64
	FlushCmds   uint64
}

// coreCtl is the controller's record of one enclave core: the
// command-queue slot it holds, the VMCS built for it, that slot's queue
// and, once InterposeBoot has launched the core, its hypervisor.
type coreCtl struct {
	id    int // machine core id
	slot  int
	vmcs  *vmx.VMCS
	queue *cmdQueue
	hv    *Hypervisor
}

// enclaveState is the controller's view of one protected enclave: the
// hardware-level virtualization data structures it edits directly.
type enclaveState struct {
	enc  *pisces.Enclave
	feat Features

	ept    *vmx.EPT
	msrBM  *vmx.MSRBitmap
	ioBM   *vmx.IOBitmap
	filter *IPIFilter
	io     *IOTable

	// coresMu guards the enclave's live cores, keyed by machine core id,
	// and the command queue of every slot built so far. CPU hot-plug
	// writes them while the ingest path and the status snapshots read
	// them. It is held for lookups and edits, and by pushEpoch across one
	// epoch's pushes, never across waitEpoch.
	coresMu sync.Mutex //covirt:guards cores,slotQueues
	cores   map[int]*coreCtl
	// slotQueues[s] is slot s's queue in the reserved area (which holds
	// pisces.MaxBootCores slots). It is built when the slot is first
	// used and passes unchanged to every later core that takes the slot.
	slotQueues []*cmdQueue

	// ingestMu serializes the enclave's ingest path: the EPT operation
	// counters and the shootdown-epoch accumulator below. Events for one
	// enclave are normally sequential (one longcall service goroutine),
	// but host-side grants and revocations can overlap guest-driven
	// attaches and detaches.
	ingestMu sync.Mutex //covirt:guards mapOps,unmapOps
	mapOps   uint64
	unmapOps uint64
	// epoch is the last shootdown epoch the controller opened; dirty
	// accumulates the open epoch's unmapped ranges (batched events defer
	// the flush to the batch's final event).
	epoch       uint64
	dirty       []hw.Extent
	dirtyEvents int
	// epochRecs and epochWaits are closeEpoch's flush-batch and wait-list
	// scratch. closeEpoch holds ingestMu throughout, so they, like dirty's
	// backing, are reused from epoch to epoch.
	epochRecs  []cmdRec
	epochWaits []*cmdQueue

	ingest IngestStats
}

// Controller is the Covirt controller module: it integrates with the
// Hobbes master control process and the Pisces framework, monitoring
// resource-management operations and translating them into hypervisor
// configuration changes.
type Controller struct {
	mach *hw.Machine
	fw   *pisces.Framework

	// auth is the node's capability table (shared with the framework);
	// rootIO is the host's root I/O capability from which port grants are
	// delegated.
	auth   *authority.Table
	rootIO authority.Cap

	mu       sync.Mutex
	defaults Features
	pending  map[int]Features // pre-boot per-enclave overrides
	states   map[int]*enclaveState

	// tracer is the optional flight recorder shared with all hypervisor
	// instances (nil-safe; see EnableTracing).
	tracer *trace.Buffer
}

// EnableTracing attaches a flight recorder capturing every VM exit and
// controller action; returns the buffer for inspection. Must be called
// before enclaves boot to capture their hypervisors' events.
func (c *Controller) EnableTracing(capacity int) *trace.Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tracer == nil {
		c.tracer = trace.New(capacity)
	}
	return c.tracer
}

// Trace returns the flight recorder, or nil if tracing is disabled.
func (c *Controller) Trace() *trace.Buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// Attach loads the Covirt controller: it hooks the framework's boot path,
// subscribes to the framework's event bus, and registers its ioctl
// extensions. defaults are the protection features used for enclaves
// without an explicit IoctlSetFeatures/SetFeatures call.
func Attach(mach *hw.Machine, fw *pisces.Framework, defaults Features) (*Controller, error) {
	c := &Controller{
		mach:     mach,
		fw:       fw,
		auth:     fw.Auth,
		defaults: defaults,
		pending:  make(map[int]Features),
		states:   make(map[int]*enclaveState),
	}
	c.rootIO = c.auth.Mint(0, authority.KindIO, authority.RightsAll,
		authority.WildScope(), "root-io")
	fw.SetInterposer(c)
	fw.Bus.Subscribe(c.onEvent)
	for cmd, h := range map[uint32]func(any) (any, error){
		IoctlSetFeatures: c.ioctlSetFeatures,
		IoctlStatus:      c.ioctlStatus,
		IoctlGrantIO:     c.ioctlGrantIO,
		IoctlQueueStats:  c.ioctlQueueStats,
	} {
		if err := fw.RegisterIoctl(cmd, h); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetFeatures overrides the protection features for an enclave; it must be
// called before the enclave boots.
func (c *Controller) SetFeatures(encID int, f Features) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, booted := c.states[encID]; booted {
		return fmt.Errorf("covirt: enclave %d already booted", encID)
	}
	c.pending[encID] = f
	return nil
}

func (c *Controller) ioctlSetFeatures(arg any) (any, error) {
	a, ok := arg.(SetFeaturesArgs)
	if !ok {
		return nil, fmt.Errorf("covirt: IoctlSetFeatures wants SetFeaturesArgs")
	}
	return nil, c.SetFeatures(a.EnclaveID, a.Features)
}

func (c *Controller) ioctlStatus(arg any) (any, error) {
	id, ok := arg.(int)
	if !ok {
		return nil, fmt.Errorf("covirt: IoctlStatus wants an enclave id")
	}
	st := c.StatusFor(id)
	if st == nil {
		return nil, fmt.Errorf("covirt: enclave %d not under covirt", id)
	}
	return st, nil
}

func (c *Controller) ioctlQueueStats(arg any) (any, error) {
	id, ok := arg.(int)
	if !ok {
		return nil, fmt.Errorf("covirt: IoctlQueueStats wants an enclave id")
	}
	qs := c.QueueStatsFor(id)
	if qs == nil {
		return nil, fmt.Errorf("covirt: enclave %d not under covirt", id)
	}
	return qs, nil
}

// QueueStatsFor snapshots an enclave's per-core command-queue depths,
// epoch progress, and ingest counters (the qstats operator view), or nil
// when the enclave is not under Covirt.
func (c *Controller) QueueStatsFor(encID int) *QueueStats {
	st := c.stateByID(encID)
	if st == nil {
		return nil
	}
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	out := &QueueStats{
		EnclaveID:    encID,
		Slots:        cmdqSlots,
		Depth:        make(map[int]uint64, len(st.cores)),
		EpochIssued:  st.epoch,
		EpochApplied: make(map[int]uint64, len(st.cores)),
		Ingest:       st.ingest,
	}
	for id, cc := range st.cores {
		out.Depth[id] = cc.queue.depth()
		out.EpochApplied[id] = cc.queue.epochApplied()
	}
	return out
}

func (c *Controller) ioctlGrantIO(arg any) (any, error) {
	a, ok := arg.(GrantIOArgs)
	if !ok {
		return nil, fmt.Errorf("covirt: IoctlGrantIO wants GrantIOArgs")
	}
	st := c.stateByID(a.EnclaveID)
	if st == nil {
		return nil, fmt.Errorf("covirt: enclave %d not under covirt", a.EnclaveID)
	}
	if !c.auth.Covers(a.Cap, a.EnclaveID, authority.KindIO, authority.RightMap,
		authority.IOScope(a.Port, a.Port)) {
		return nil, fmt.Errorf("covirt: I/O grant for port %#x denied (cap %d)", a.Port, a.Cap.ID)
	}
	st.io.Grant(a.Cap, a.Port, a.Port)
	return nil, nil
}

// DelegateIO mints an I/O capability for encID covering [lo, hi] from the
// controller's root — the assembly-time path testbeds and tools use before
// granting ports through IoctlGrantIO.
func (c *Controller) DelegateIO(encID int, lo, hi uint16) (authority.Cap, error) {
	return c.auth.Delegate(c.rootIO, encID,
		authority.RightRead|authority.RightWrite|authority.RightMap,
		authority.IOScope(lo, hi), fmt.Sprintf("io-e%d", encID))
}

// StatusFor returns runtime statistics for an enclave, or nil.
func (c *Controller) StatusFor(encID int) *Status {
	st := c.stateByID(encID)
	if st == nil {
		return nil
	}
	out := &Status{
		EnclaveID:   encID,
		Features:    st.feat,
		DroppedIPIs: st.filter.Dropped.Load(),
		Exits:       make(map[string]uint64),
	}
	out.MapOps, out.UnmapOps, out.FlushCmds = st.opCounts()
	if st.ept != nil {
		out.EPT = st.ept.Stats()
	}
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	for _, cc := range st.cores {
		if cc.hv == nil {
			continue
		}
		for k, v := range cc.hv.Stats().Snapshot() {
			out.Exits[k] += v
		}
		_, cyc := cc.hv.Stats().Total()
		out.ExitCycles += cyc
	}
	return out
}

// opCounts snapshots the EPT map and unmap operation counts and the flush
// commands issued, under the ingest lock their writers hold.
func (st *enclaveState) opCounts() (mapOps, unmapOps, flushCmds uint64) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	return st.mapOps, st.unmapOps, st.ingest.FlushCmds
}

// admit counts one ingested resource-assignment event; the controller
// admits every event.
func (st *enclaveState) admit() {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	st.ingest.Events++
}

// countMap records one EPT map operation. Host grants and guest attaches
// can map concurrently, so the count is taken under the ingest lock.
func (st *enclaveState) countMap() {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	st.mapOps++
}

// Hypervisor returns the per-core hypervisor managing machine core cpuID of
// enclave encID (tests and tooling).
func (c *Controller) Hypervisor(encID, cpuID int) *Hypervisor {
	st := c.stateByID(encID)
	if st == nil {
		return nil
	}
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	if cc := st.cores[cpuID]; cc != nil {
		return cc.hv
	}
	return nil
}

// FeaturesFor returns the active (or pending) features for an enclave.
func (c *Controller) FeaturesFor(encID int) Features {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.states[encID]; st != nil {
		return st.feat
	}
	if f, ok := c.pending[encID]; ok {
		return f
	}
	return c.defaults
}

// onEvent is the controller's bus subscription: every resource-management
// event becomes a direct edit of the affected enclave's virtualization
// context.
func (c *Controller) onEvent(ev *pisces.Event) error {
	switch ev.Kind {
	case pisces.EvEnclaveBootPre:
		return c.buildState(ev.Enclave)
	case pisces.EvMemAddPre, pisces.EvXememAttachPre:
		return c.mapExtents(ev)
	case pisces.EvMemRemovePost, pisces.EvXememDetachPost:
		return c.unmapAndFlush(ev)
	case pisces.EvIngestFlush:
		return c.flushIngest(ev)
	case pisces.EvCPUAddPre:
		return c.addCPU(ev)
	case pisces.EvCPURemovePost:
		return c.removeCPU(ev)
	case pisces.EvIPIGrant:
		if st := c.stateFor(ev.Enclave); st != nil {
			st.filter.Grant(ev.DestCore, ev.Vector, ev.Cap)
		}
	case pisces.EvIPIRevoke:
		if st := c.stateFor(ev.Enclave); st != nil {
			st.filter.Revoke(ev.DestCore, ev.Vector)
		}
	case pisces.EvCapRevoked:
		return c.capRevoked(ev)
	case pisces.EvEnclaveCrashed, pisces.EvEnclaveDestroyed:
		c.teardown(ev.Enclave)
	}
	return nil
}

// capRevoked propagates a capability kill into the holder's protection
// context: withdrawn memory and segment frames leave the EPT with a full
// command-queue TLB shootdown (the holder's next touch is a contained EPT
// violation), IPI routes leave the filter, I/O ports close. The key itself
// is already dead — the generation checks in the filter and I/O table make
// this cleanup, not enforcement.
//
//covirt:ambient revocation withdraws authority; the key was verified when granted
func (c *Controller) capRevoked(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil {
		return nil
	}
	switch ev.Cap.Kind {
	case authority.KindMemory, authority.KindXemem:
		if len(ev.Extents) > 0 {
			return c.unmapAndFlush(ev)
		}
	case authority.KindIPI:
		st.filter.Revoke(ev.DestCore, ev.Vector)
	case authority.KindIO:
		st.io.RevokeCap(ev.Cap)
	}
	return nil
}

// stateFor looks up the controller state of an enclave.
func (c *Controller) stateFor(enc *pisces.Enclave) *enclaveState {
	if enc == nil {
		return nil
	}
	return c.stateByID(enc.ID)
}

// stateByID looks up controller state under the lock.
func (c *Controller) stateByID(encID int) *enclaveState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.states[encID]
}

// takeFeatures consumes the pending feature request for an enclave,
// falling back to the controller defaults.
func (c *Controller) takeFeatures(encID int) Features {
	c.mu.Lock()
	defer c.mu.Unlock()
	feat, ok := c.pending[encID]
	if !ok {
		feat = c.defaults
	}
	delete(c.pending, encID)
	return feat
}

// setState publishes a fully-built enclave state.
func (c *Controller) setState(encID int, st *enclaveState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states[encID] = st
}

// takeState removes and returns the state of a dead enclave.
func (c *Controller) takeState(encID int) *enclaveState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.states[encID]
	delete(c.states, encID)
	delete(c.pending, encID)
	return st
}

// buildState constructs the full virtualization configuration for an
// enclave before any of its cores boot: EPT identity map of its assignment,
// intercept bitmaps, IPI whitelist, per-core VMCS, and per-core command
// queues — all written by the controller so the hypervisor can simply load
// and launch.
func (c *Controller) buildState(enc *pisces.Enclave) error {
	feat := c.takeFeatures(enc.ID)

	st := &enclaveState{
		enc:    enc,
		feat:   feat,
		filter: NewIPIFilter(enc.Cores, c.auth),
		io:     NewIOTable(c.auth),
		cores:  make(map[int]*coreCtl),
	}
	if feat.Memory {
		st.ept = vmx.NewEPT()
		if feat.EPTMaxPage > 0 {
			st.ept.SetMaxPageSize(feat.EPTMaxPage)
		}
		// The initial identity map covers exactly the extents the enclave
		// holds keys for: each EPT range is established from a verified
		// memory capability, never from the extent list alone.
		caps := enc.MemCaps()
		for i, ext := range enc.Mem() {
			if i >= len(caps) || !c.auth.Covers(caps[i], enc.ID, authority.KindMemory,
				authority.RightMap, authority.MemScope(ext.Start, ext.Size)) {
				return fmt.Errorf("covirt: no memory capability for boot extent %v of enclave %d", ext, enc.ID)
			}
			if err := st.ept.MapRange(ext.Start, ext.Size, vmx.PermAll); err != nil {
				return fmt.Errorf("covirt: initial EPT map %v: %w", ext, err)
			}
		}
	}
	if feat.MSR {
		st.msrBM = vmx.NewMSRBitmap()
		st.msrBM.InterceptAllWrites()
	}
	if feat.IO {
		st.ioBM = vmx.NewIOBitmap()
		st.ioBM.InterceptAll()
	}

	for _, coreID := range enc.Cores {
		if err := c.buildCPU(st, enc, coreID); err != nil {
			return err
		}
	}

	// Publish the Covirt boot-parameter block and point the Pisces boot
	// parameters at it, leaving everything else untouched.
	base := enc.Base()
	cbp := &BootParams{
		NumCPUs:        uint64(len(enc.Cores)),
		CmdQueueBase:   base + pisces.OffCovirtCmdQ,
		CmdQueueStride: CmdQueueStride,
		CmdQueueSlots:  cmdqSlots,
		PiscesParams:   base + pisces.OffBootParams,
	}
	if err := encodeBootParams(c.mach.Mem, base+pisces.OffCovirtParams, cbp); err != nil {
		return err
	}
	hostIO := pisces.NativeMemIO{Mem: c.mach.Mem}
	pbp, err := pisces.DecodeBootParams(hostIO, base+pisces.OffBootParams)
	if err != nil {
		return err
	}
	pbp.CovirtParams = base + pisces.OffCovirtParams
	if err := pisces.EncodeBootParams(hostIO, base+pisces.OffBootParams, pbp); err != nil {
		return err
	}

	c.setState(enc.ID, st)
	return nil
}

// buildCPU constructs the per-core virtualization context — VMCS with
// feature-derived controls, pre-set guest state, command-queue slot — for
// one enclave core and links it into st.cores. Used for every boot core
// and for hot-added cores.
func (c *Controller) buildCPU(st *enclaveState, enc *pisces.Enclave, coreID int) error {
	vmcs := vmx.NewVMCS(coreID)
	vmcs.Controls = vmx.Controls{
		EnableEPT:        st.feat.Memory,
		VirtualAPIC:      st.feat.IPI,
		PostedInterrupts: st.feat.IPI && st.feat.IPIMode == IPIPostedInterrupt,
		InterceptDF:      st.feat.Abort,
	}
	vmcs.EPT = st.ept
	vmcs.MSRBitmap = st.msrBM
	vmcs.IOBitmap = st.ioBM
	if vmcs.Controls.PostedInterrupts {
		vmcs.PID = &vmx.PostedIntDescriptor{}
		vmcs.NotificationVector = 0xF9
	}
	// Guest state mirrors what the Pisces trampoline would have set:
	// launch directly into the co-kernel entry in 64-bit mode with the
	// boot-parameter pointer in RSI.
	vmcs.Guest = vmx.GuestState{
		RIP: enc.Mem()[0].Start + pisces.ReservedBytes, // kernel entry
		RSP: enc.Mem()[0].End(),
		CR3: enc.Mem()[0].Start + pisces.ReservedBytes - hw.PageSize4K,
		RSI: enc.Base() + pisces.OffBootParams,
	}
	return c.linkCore(st, &coreCtl{id: coreID, vmcs: vmcs})
}

// linkCore gives cc the lowest command-queue slot no live core holds, with
// that slot's queue, and links cc into st.cores. A slot's queue is built
// on the slot's first use and never rebuilt: unlinkCore leaves it empty,
// and a waiter still reading it for an earlier epoch must never see its
// epoch word go back to 0.
func (c *Controller) linkCore(st *enclaveState, cc *coreCtl) error {
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	var held [pisces.MaxBootCores]bool
	for _, o := range st.cores {
		held[o.slot] = true
	}
	cc.slot = slices.Index(held[:], false)
	if cc.slot < 0 {
		return fmt.Errorf("covirt: enclave %d exhausted its %d command-queue slots", st.enc.ID, pisces.MaxBootCores)
	}
	if cc.slot == len(st.slotQueues) {
		// The queue's waits end when the enclave dies, even when no drain
		// follows: the longcall service can be parked in closeEpoch at that
		// moment, and linuxhost's bus handler waits for the service before
		// this controller's handler runs.
		q, err := newCmdQueue(c.mach, st.enc.Base()+pisces.OffCovirtCmdQ+uint64(cc.slot)*CmdQueueStride, st.enc.Teardown())
		if err != nil {
			return err
		}
		st.slotQueues = append(st.slotQueues, q)
	}
	cc.queue = st.slotQueues[cc.slot]
	st.cores[cc.id] = cc
	return nil
}

// addCPU handles a hot-added core: build its virtualization context before
// the enclave is told about it (the framework then calls InterposeBoot on
// the new core), and extend the IPI whitelist.
func (c *Controller) addCPU(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil {
		return nil
	}
	if err := c.buildCPU(st, ev.Enclave, ev.Core); err != nil {
		return err
	}
	st.filter.AddOwnCore(ev.Core)
	c.Trace().Record(-1, 0, "ctl:cpu-add", "enclave %d core %d", ev.Enclave.ID, ev.Core)
	return nil
}

// removeCPU tears down a hot-removed core's context after the co-kernel
// has released it.
func (c *Controller) removeCPU(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil {
		return nil
	}
	st.filter.RemoveOwnCore(ev.Core)
	if cpu := c.mach.CPU(ev.Core); cpu != nil {
		st.unlinkCore(cpu)
		cpu.Virt = nil
	}
	c.Trace().Record(-1, 0, "ctl:cpu-remove", "enclave %d core %d", ev.Enclave.ID, ev.Core)
	return nil
}

// unlinkCore drops a hot-removed core from st.cores and applies what its
// queue still holds. The co-kernel has stopped the core's scheduler, which
// does not poll on the way out, so an epoch pushed after its last poll
// would never be applied and closeEpoch would wait for it forever.
// pushEpoch pushes under the same lock, so every epoch either reached this
// queue before the unlink and is applied here, or never reaches it. The
// drain's cycles go uncharged: the core is offline. A drain that finds the
// header corrupt applies nothing, and the epoch wait fails on the same
// check instead of hanging.
func (st *enclaveState) unlinkCore(cpu *hw.CPU) {
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	if cc := st.cores[cpu.ID]; cc != nil {
		delete(st.cores, cpu.ID)
		_, _ = cc.queue.drain(cpu)
	}
}

// InterposeBoot implements pisces.BootInterposer: instead of booting the
// co-kernel directly, each core first enters the Covirt hypervisor, which
// validates its pre-built configuration and launches the guest.
func (c *Controller) InterposeBoot(enc *pisces.Enclave, cpu *hw.CPU, bpAddr uint64) error {
	st := c.stateFor(enc)
	if st == nil {
		return fmt.Errorf("covirt: no state for enclave %d (boot-pre event missed?)", enc.ID)
	}
	cc := st.core(cpu.ID)
	if cc == nil {
		return fmt.Errorf("covirt: no VMCS for core %d", cpu.ID)
	}
	// The hypervisor reads its own boot parameters (validating the chain
	// the controller wrote) before launching.
	cbp, err := decodeBootParams(c.mach.Mem, enc.Base()+pisces.OffCovirtParams)
	if err != nil {
		return err
	}
	if cbp.PiscesParams != bpAddr {
		return fmt.Errorf("covirt: boot-parameter chain mismatch: %#x != %#x", cbp.PiscesParams, bpAddr)
	}
	tracer := c.Trace()
	h := &Hypervisor{
		cpu:    cpu,
		enc:    enc,
		feat:   st.feat,
		flt:    st.filter,
		queue:  cc.queue,
		io:     st.io,
		tracer: tracer,
		onFault: func(h *Hypervisor, reason string) {
			c.fw.ReportCrash(enc, "covirt: "+reason)
		},
	}
	h.vcpu = vmx.Launch(cpu, cc.vmcs, h)
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	cc.hv = h
	// World switch into the guest.
	cpu.TSC += cpu.Costs().VMEntry
	return nil
}

// core returns the record of a live core, or nil. Its id, slot, vmcs and
// queue never change once linked; hv is read and written under coresMu.
func (st *enclaveState) core(id int) *coreCtl {
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	return st.cores[id]
}

// mapExtents handles map-before-notify events: the extents become
// EPT-accessible before the enclave learns of them. No hypervisor
// synchronization is needed — nothing about an *absent* translation can be
// cached in a TLB.
func (c *Controller) mapExtents(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil || st.ept == nil {
		return nil
	}
	st.admit()
	// Every mapping names its authorizing capability: a fresh memory grant
	// presents a memory key covering the extent; a XEMEM attach presents
	// the consumer's attach key. An absent or dead key aborts the
	// operation before anything reaches the EPT.
	switch ev.Kind {
	case pisces.EvMemAddPre:
		for _, ext := range ev.Extents {
			if !c.auth.Covers(ev.Cap, ev.Enclave.ID, authority.KindMemory,
				authority.RightMap, authority.MemScope(ext.Start, ext.Size)) {
				return fmt.Errorf("covirt: memory grant %v denied for enclave %d (cap %d)",
					ext, ev.Enclave.ID, ev.Cap.ID)
			}
		}
	case pisces.EvXememAttachPre:
		if !c.auth.Verify(ev.Cap, ev.Enclave.ID, authority.KindXemem, authority.RightAttach) {
			return fmt.Errorf("covirt: xemem attach of seg %d denied for enclave %d (cap %d)",
				ev.SegID, ev.Enclave.ID, ev.Cap.ID)
		}
	}
	tr := c.Trace()
	for _, ext := range ev.Extents {
		before := st.ept.Stats().Pages()
		if err := st.ept.MapRange(ext.Start, ext.Size, vmx.PermAll); err != nil {
			return fmt.Errorf("covirt: EPT map %v: %w", ext, err)
		}
		st.countMap()
		ev.Cost += (st.ept.Stats().Pages() - before) * costPerEPTLeaf
		if tr != nil {
			tr.Record(-1, 0, "ctl:map", "enclave %d %v (%s)", ev.Enclave.ID, ext, ev.Kind)
		}
	}
	return nil
}

// mergeExtents sorts ranges by start address and merges overlapping or
// adjacent ones in place, returning the shortened slice.
func mergeExtents(exts []hw.Extent) []hw.Extent {
	if len(exts) < 2 {
		return exts
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].Start < exts[j].Start })
	out := exts[:1]
	for _, e := range exts[1:] {
		last := &out[len(out)-1]
		if e.Start <= last.Start+last.Size {
			if end := e.Start + e.Size; end > last.Start+last.Size {
				last.Size = end - last.Start
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// unmapAndFlush handles unmap-after-release events: the extents leave the
// EPT immediately and join the enclave's open shootdown epoch. For a
// standalone event the epoch closes right here — one merged flush per
// core, then wait until every core applies the epoch. An event marked
// MoreInBatch leaves the epoch open: the batch's final event (or the
// emitter's ingest-flush sweep) closes it, so N grants coalesce into one
// invalidation per core instead of N.
func (c *Controller) unmapAndFlush(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil || st.ept == nil {
		return nil
	}
	st.admit()
	cost, err := c.unmapExtents(st, ev)
	ev.Cost += cost
	if err != nil {
		// Flush what already left the EPT before reporting: the failed
		// extent is still mapped, but the unmapped ones must not linger
		// in any TLB while the caller unwinds.
		fcost, ferr := c.closeEpoch(st)
		ev.Cost += fcost
		return errors.Join(err, ferr)
	}
	if !ev.MoreInBatch {
		fcost, err := c.closeEpoch(st)
		ev.Cost += fcost
		return err
	}
	return nil
}

// unmapExtents removes the event's extents from the EPT and adds them to
// the enclave's open shootdown epoch, returning the unmap cycles charged
// to the event.
func (c *Controller) unmapExtents(st *enclaveState, ev *pisces.Event) (uint64, error) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	var cost uint64
	tr := c.Trace()
	for _, ext := range ev.Extents {
		if err := st.ept.UnmapRange(ext.Start, ext.Size); err != nil {
			return cost, fmt.Errorf("covirt: EPT unmap %v: %w", ext, err)
		}
		st.unmapOps++
		cost += (ext.Size / hw.PageSize2M) * costPerUnmapLeaf
		st.dirty = append(st.dirty, ext)
		if tr != nil {
			tr.Record(-1, 0, "ctl:unmap", "enclave %d %v (%s)", ev.Enclave.ID, ext, ev.Kind)
		}
	}
	st.dirtyEvents++
	return cost, nil
}

// flushIngest closes an enclave's open shootdown epoch without unmapping
// anything — the defensive sweep batched emitters run so an aborted batch
// can never leave dirty ranges waiting on a closing event that will not
// come.
func (c *Controller) flushIngest(ev *pisces.Event) error {
	st := c.stateFor(ev.Enclave)
	if st == nil || st.ept == nil {
		return nil
	}
	cost, err := c.closeEpoch(st)
	ev.Cost += cost
	return err
}

// closeEpoch seals the open shootdown epoch: the accumulated dirty ranges
// are merged (and collapsed to one CmdFlushAll past flushAllThreshold)
// into one batched command push per core, terminated by a CmdEpoch
// marker. Every core gets one doorbell, and the operation completes only
// when every core reports the epoch applied. Returns the issue and stall
// cycles charged to the triggering event, and an error when a core's queue
// header is corrupt: that core never applies the epoch, so its ranges may
// stay cached and must not be reclaimed. An enclave or node that dies
// mid-flush is no error; nothing is left to synchronize.
func (c *Controller) closeEpoch(st *enclaveState) (uint64, error) {
	st.ingestMu.Lock()
	defer st.ingestMu.Unlock()
	if st.dirtyEvents == 0 && len(st.dirty) == 0 {
		return 0, nil
	}
	raw := uint64(len(st.dirty))
	ranges := mergeExtents(st.dirty)
	st.dirty = st.dirty[:0] // ranges is consumed before ingestMu is released
	st.dirtyEvents = 0
	st.epoch++
	st.ingest.Epochs++

	recs := st.epochRecs[:0]
	if len(ranges) > flushAllThreshold {
		recs = append(recs, cmdRec{Typ: CmdFlushAll})
	} else {
		for _, r := range ranges {
			recs = append(recs, cmdRec{Typ: CmdFlushRange, Arg0: r.Start, Arg1: r.Size})
		}
	}
	recs = append(recs, cmdRec{Typ: CmdEpoch, Arg0: st.epoch})
	st.epochRecs = recs

	// A core hot-removed from here on has its queue applied by
	// unlinkCore, so each wait ends.
	waits, cost, err := c.pushEpoch(st, recs, raw)
	for _, q := range waits {
		if werr := q.waitEpoch(st.epoch); werr != nil {
			if !errors.Is(werr, errCorruptHeader) {
				break // the enclave or the node died mid-flush
			}
			if err == nil {
				err = werr
			}
		}
	}
	return cost, err
}

// pushEpoch pushes one epoch's records to every live core and rings each
// core's doorbell, holding coresMu throughout, so that a core unlinkCore
// removes got the whole epoch before the unlink or none of it. The pushes
// cannot park on an honest guest's ring: closeEpoch waits for each epoch
// before opening the next, so every epoch starts on empty 64-slot rings,
// and an epoch is at most flushAllThreshold+1 records. It returns the
// queues to wait on (in st.epochWaits) and the cycles to charge; when the
// enclave or the node died under backpressure there is nothing to wait
// on. A core whose queue header is corrupt is skipped and reported; the
// other cores still get the epoch. Called with ingestMu held; raw is the
// epoch's unmerged range count.
func (c *Controller) pushEpoch(st *enclaveState, recs []cmdRec, raw uint64) (waits []*cmdQueue, cost uint64, corrupt error) {
	st.coresMu.Lock()
	defer st.coresMu.Unlock()
	flushRecs := uint64(len(recs) - 1) // all but the CmdEpoch marker
	waits = st.epochWaits[:0]
	for _, cc := range st.cores {
		cpu := c.mach.CPU(cc.id)
		stall, err := cc.queue.pushBatch(recs, cpu.APIC.RaiseNMI)
		if errors.Is(err, errCorruptHeader) {
			if corrupt == nil {
				corrupt = err
			}
			continue
		}
		if err != nil {
			return nil, cost, nil
		}
		cpu.APIC.RaiseNMI()
		st.ingest.FlushCmds += flushRecs
		st.ingest.FlushCmdsSaved += raw - flushRecs
		st.ingest.StallCycles += stall
		cost += costCmdIssue + stall
		waits = append(waits, cc.queue)
	}
	st.epochWaits = waits
	return waits, cost, corrupt
}

// teardown drops controller state for a dead enclave. Waits on its command
// queues already ended: each queue's wait is bound to the enclave's
// teardown latch (linkCore), which fired before this event.
func (c *Controller) teardown(enc *pisces.Enclave) {
	if enc == nil {
		return
	}
	st := c.takeState(enc.ID)
	if tr := c.Trace(); st != nil && tr != nil {
		st.coresMu.Lock()
		defer st.coresMu.Unlock()
		tr.Record(-1, 0, "ctl:teardown", "enclave %d state dropped (%d cores)", enc.ID, len(st.cores))
	}
}

var _ pisces.BootInterposer = (*Controller)(nil)
