package pisces

import (
	"errors"
	"fmt"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
)

// BootInterposer hooks an enclave's CPU boot path. Covirt registers one to
// slide its hypervisor underneath the co-kernel: Pisces "instead boots into
// the Covirt hypervisor, which handles the virtualization hardware setup
// before directly invoking the actual co-kernel".
type BootInterposer interface {
	// InterposeBoot runs on each enclave core before the co-kernel's entry
	// point. bpAddr is the Pisces boot-parameter address the co-kernel
	// will receive, unmodified.
	InterposeBoot(enc *Enclave, cpu *hw.CPU, bpAddr uint64) error
}

// BootContext is everything a co-kernel needs to bring itself up.
type BootContext struct {
	Machine *hw.Machine
	Enclave *Enclave
	Params  *BootParams
	// Auth is the node's capability table; the co-kernel verifies the
	// memory capabilities in Params.MemCaps before adopting extents.
	Auth *authority.Table
}

// Bootable is a co-kernel image the framework can launch in an enclave.
type Bootable interface {
	// Boot initializes the kernel across the enclave's cores and returns
	// once the kernel is ready for work (services run on goroutines /
	// interrupt handlers).
	Boot(bc *BootContext) error
	// Shutdown stops the kernel's execution contexts.
	Shutdown()
}

// Quiescer is implemented by kernels whose execution contexts can be
// awaited after Shutdown. The framework quiesces a kernel before handing
// its cores to a new enclave, so no stale execution context can race with
// the successor.
type Quiescer interface {
	Quiesce()
}

// EnclaveSpec configures CreateEnclave.
type EnclaveSpec struct {
	Name string
	// NumCores cores are allocated round-robin across Nodes.
	NumCores int
	// Nodes lists the NUMA nodes the enclave spans (default node 0).
	Nodes []int
	// MemBytes of memory, split evenly across Nodes.
	MemBytes uint64
	// Heartbeat enables the liveness heartbeat protocol: the boot
	// parameters point the co-kernel at the reserved heartbeat page, and
	// it must beat from its boot core's timer interrupt. Off by default —
	// unsupervised enclaves charge no heartbeat cycles.
	Heartbeat bool
}

// Control command message types.
const (
	CmdPing uint32 = iota + 1
	CmdMemAdd
	CmdMemRemove
	CmdCPUAdd
	CmdCPURemove
	CmdShutdown
	AckOK  uint32 = 100
	AckErr uint32 = 101
)

// Framework is the Pisces co-kernel framework instance (the "kernel
// module" on the host).
type Framework struct {
	Machine *hw.Machine
	Ledger  *Ledger

	// Auth is the node's capability table. RootMem is the host's root
	// memory capability; every extent handed to an enclave is delegated
	// from it, so the delegation tree mirrors the resource handoff graph.
	Auth    *authority.Table
	RootMem authority.Cap

	// Bus carries the node's resource events: the framework emits its
	// lifecycle and memory/CPU crossings on it, Hobbes adds its own, and
	// protection layers subscribe.
	Bus *Bus

	hostIO NativeMemIO

	mu       sync.Mutex
	enclaves map[int]*Enclave
	nextID   int
	interp   BootInterposer

	ioctlMu sync.Mutex
	ioctls  map[uint32]func(arg any) (any, error)
}

// NewFramework loads the Pisces framework on machine m with the given
// resource ledger (populated by the host OS).
func NewFramework(m *hw.Machine, ledger *Ledger) *Framework {
	fw := &Framework{
		Machine:  m,
		Ledger:   ledger,
		Auth:     authority.NewTable(),
		Bus:      &Bus{},
		hostIO:   NativeMemIO{Mem: m.Mem},
		enclaves: make(map[int]*Enclave),
		nextID:   1,
		ioctls:   make(map[uint32]func(any) (any, error)),
	}
	fw.RootMem = fw.Auth.Mint(0, authority.KindMemory, authority.RightsAll,
		authority.WildScope(), "root-mem")
	return fw
}

// SetInterposer installs the boot interposer (at most one; Covirt).
func (fw *Framework) SetInterposer(bi BootInterposer) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.interp = bi
}

// interposer returns the registered boot interposer, or nil.
func (fw *Framework) interposer() BootInterposer {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.interp
}

// allocID reserves the next enclave ID.
func (fw *Framework) allocID() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	id := fw.nextID
	fw.nextID++
	return id
}

// register publishes a fully-constructed enclave in the table.
func (fw *Framework) register(enc *Enclave) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.enclaves[enc.ID] = enc
}

// Enclave returns the enclave with the given id, or nil.
func (fw *Framework) Enclave(id int) *Enclave {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.enclaves[id]
}

// Enclaves returns all enclaves.
func (fw *Framework) Enclaves() []*Enclave {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	out := make([]*Enclave, 0, len(fw.enclaves))
	for _, e := range fw.enclaves {
		out = append(out, e)
	}
	return out
}

// CreateEnclave allocates resources and prepares (but does not boot) a new
// enclave.
func (fw *Framework) CreateEnclave(spec EnclaveSpec) (*Enclave, error) {
	if spec.NumCores <= 0 {
		return nil, fmt.Errorf("pisces: enclave needs at least one core")
	}
	nodes := spec.Nodes
	if len(nodes) == 0 {
		nodes = []int{0}
	}
	if spec.MemBytes == 0 {
		return nil, fmt.Errorf("pisces: enclave needs memory")
	}

	// Allocate cores round-robin across the requested nodes.
	var cores []int
	perNode := make(map[int]int)
	for i := 0; i < spec.NumCores; i++ {
		perNode[nodes[i%len(nodes)]]++
	}
	for _, n := range nodes {
		got, err := fw.Ledger.AllocCores(&fw.Machine.Topo, n, perNode[n])
		if err != nil {
			fw.Ledger.FreeCores(cores)
			return nil, err
		}
		cores = append(cores, got...)
	}

	// Allocate memory split evenly across nodes.
	var mem []hw.Extent
	per := spec.MemBytes / uint64(len(nodes))
	for _, n := range nodes {
		ext, err := fw.Ledger.AllocMemory(n, per)
		if err != nil {
			for _, e := range mem {
				fw.Ledger.FreeMemory(e)
			}
			fw.Ledger.FreeCores(cores)
			return nil, err
		}
		mem = append(mem, ext)
	}

	id := fw.allocID()

	// Delegate one memory capability per extent from the host root: the
	// enclave's authority over its own memory is explicit from birth, and
	// dies (recursively, through anything it delegated onward) with it.
	memCaps := make([]authority.Cap, len(mem))
	for i, e := range mem {
		c, err := fw.Auth.Delegate(fw.RootMem, id,
			authority.RightRead|authority.RightWrite|authority.RightMap|authority.RightDelegate,
			authority.MemScope(e.Start, e.Size), fmt.Sprintf("%s/mem%d", spec.Name, i))
		if err != nil {
			return nil, fmt.Errorf("pisces: mint memory cap: %w", err)
		}
		memCaps[i] = c
	}

	enc := &Enclave{
		ID:        id,
		Name:      spec.Name,
		Cores:     cores,
		mem:       mem,
		memCaps:   memCaps,
		state:     StateCreated,
		teardown:  hw.NewLatch(fmt.Errorf("pisces: enclave %d torn down", id)),
		reclaimed: make(chan struct{}),
		fw:        fw,
	}

	// Lay out control channels in the reserved head of the first extent.
	// Their waits end when the enclave is torn down or the node crashes.
	base := mem[0].Start
	enc.CtlReq = NewRing(base+OffCtlReqRing, fw.Machine, enc.teardown)
	enc.CtlResp = NewRing(base+OffCtlRespRing, fw.Machine, enc.teardown)
	enc.LcReq = NewRing(base+OffLcReqRing, fw.Machine, enc.teardown)
	enc.LcResp = NewRing(base+OffLcRespRing, fw.Machine, enc.teardown)
	for _, r := range []*Ring{enc.CtlReq, enc.CtlResp, enc.LcReq, enc.LcResp} {
		if err := r.Init(fw.hostIO); err != nil {
			return nil, fmt.Errorf("pisces: ring init: %w", err)
		}
	}

	memRefs := make([]authority.Ref, len(memCaps))
	for i, c := range memCaps {
		memRefs[i] = c.Ref()
	}
	bp := &BootParams{
		EnclaveID:   uint64(id),
		Cores:       cores,
		Mem:         mem,
		MemCaps:     memRefs,
		CtlReqRing:  base + OffCtlReqRing,
		CtlRespRing: base + OffCtlRespRing,
		LcReqRing:   base + OffLcReqRing,
		LcRespRing:  base + OffLcRespRing,
	}
	if spec.Heartbeat {
		bp.Heartbeat = base + OffHeartbeat
		// The extent may be recycled from a previous enclave; a stale beat
		// record would look like instant liveness to the watchdog.
		for _, off := range []uint64{HbCount, HbTSC} {
			if err := fw.hostIO.Write64(bp.Heartbeat+off, 0); err != nil {
				return nil, fmt.Errorf("pisces: heartbeat init: %w", err)
			}
		}
	}
	if err := EncodeBootParams(fw.hostIO, base+OffBootParams, bp); err != nil {
		return nil, fmt.Errorf("pisces: boot params: %w", err)
	}

	fw.register(enc)
	if err := fw.Bus.Emit(&Event{Kind: EvEnclaveCreated, Enclave: enc}); err != nil {
		return nil, err
	}
	return enc, nil
}

// Boot launches kernel inside enc, interposing the registered boot
// interposer (if any) on every core first.
func (fw *Framework) Boot(enc *Enclave, kernel Bootable) error {
	if s := enc.State(); s != StateCreated {
		return fmt.Errorf("pisces: enclave %d is %s, cannot boot", enc.ID, s)
	}
	enc.setState(StateBooting)
	// Reset the cores: they may carry kill latches and a stale
	// virtualization layer from a previous enclave that crashed on them.
	for _, cpu := range enc.CPUs() {
		cpu.Revive()
		cpu.Virt = nil
		cpu.SetIRQHandler(nil)
		cpu.SetNMIHandler(nil)
		cpu.TLB.FlushAll()
	}
	if err := fw.Bus.Emit(&Event{Kind: EvEnclaveBootPre, Enclave: enc}); err != nil {
		enc.setState(StateCreated)
		return err
	}

	bpAddr := enc.Base() + OffBootParams
	if interp := fw.interposer(); interp != nil {
		for _, cpu := range enc.CPUs() {
			if err := interp.InterposeBoot(enc, cpu, bpAddr); err != nil {
				enc.setState(StateCreated)
				return fmt.Errorf("pisces: boot interposer on cpu %d: %w", cpu.ID, err)
			}
		}
	}

	params, err := DecodeBootParams(fw.hostIO, bpAddr)
	if err != nil {
		enc.setState(StateCreated)
		return err
	}
	bc := &BootContext{Machine: fw.Machine, Enclave: enc, Params: params, Auth: fw.Auth}
	if err := kernel.Boot(bc); err != nil {
		enc.setState(StateCreated)
		return fmt.Errorf("pisces: kernel boot: %w", err)
	}
	enc.setRunning(kernel)
	return fw.Bus.Emit(&Event{Kind: EvEnclaveBooted, Enclave: enc})
}

// sendCtl issues one control command and waits for the enclave's ack. It
// fails instead of waiting once the enclave is torn down, its boot core
// (the core that serves the ring) is killed, or the node crashes. A
// corrupt ring header means the guest rewrote it: the enclave is reported
// crashed.
func (fw *Framework) sendCtl(enc *Enclave, m *Msg) (*Msg, error) {
	resp, err := fw.ctlRoundTrip(enc, m)
	if errors.Is(err, ErrCorruptRing) {
		fw.ReportCrash(enc, "corrupt control-ring header")
	}
	return resp, err
}

// ctlRoundTrip pushes m on the control ring, rings the doorbell and pops
// the ack, one command at a time.
func (fw *Framework) ctlRoundTrip(enc *Enclave, m *Msg) (*Msg, error) {
	enc.ctlMu.Lock()
	defer enc.ctlMu.Unlock()
	boot := enc.BootCPU()
	enc.ctlSeq++
	m.Seq = enc.ctlSeq
	if err := enc.CtlReq.Push(fw.hostIO, m, boot); err != nil {
		return nil, err
	}
	// Doorbell: kick the enclave's boot core.
	fw.Machine.RouteIPI(-1, boot.ID, VectorCtl)
	var resp Msg
	if err := enc.CtlResp.Pop(fw.hostIO, &resp, boot); err != nil {
		return nil, err
	}
	if resp.Seq != m.Seq {
		return nil, fmt.Errorf("pisces: ctl ack seq %d, want %d", resp.Seq, m.Seq)
	}
	if resp.Type == AckErr {
		return &resp, fmt.Errorf("pisces: enclave %d rejected command %d", enc.ID, m.Type)
	}
	return &resp, nil
}

// Ping round-trips a no-op control command (liveness check).
func (fw *Framework) Ping(enc *Enclave) error {
	_, err := fw.sendCtl(enc, &Msg{Type: CmdPing})
	return err
}

// AddMemory grows the enclave by size bytes on node. The extent is made
// visible to protection layers (EvMemAddPre) before the enclave is told
// about it, preserving Covirt's map-before-notify ordering.
func (fw *Framework) AddMemory(enc *Enclave, node int, size uint64) (hw.Extent, error) {
	if enc.State() != StateRunning {
		return hw.Extent{}, fmt.Errorf("pisces: enclave %d not running", enc.ID)
	}
	ext, err := fw.Ledger.AllocMemory(node, size)
	if err != nil {
		return hw.Extent{}, err
	}
	cap, err := fw.Auth.Delegate(fw.RootMem, enc.ID,
		authority.RightRead|authority.RightWrite|authority.RightMap|authority.RightDelegate,
		authority.MemScope(ext.Start, ext.Size), fmt.Sprintf("%s/mem-add", enc.Name))
	if err != nil {
		fw.Ledger.FreeMemory(ext)
		return hw.Extent{}, err
	}
	if err := fw.Bus.Emit(&Event{Kind: EvMemAddPre, Enclave: enc, Extents: []hw.Extent{ext}, Cap: cap}); err != nil {
		_, _ = fw.Auth.Revoke(cap)
		fw.Ledger.FreeMemory(ext)
		return hw.Extent{}, err
	}
	var m Msg
	m.Type = CmdMemAdd
	put64(m.Payload[:], 0, ext.Start)
	put64(m.Payload[:], 8, ext.Size)
	put64(m.Payload[:], 16, uint64(ext.Node))
	// The grant names its capability on the wire; the co-kernel verifies
	// the reference against the shared table before adopting the extent.
	put64(m.Payload[:], 24, cap.Ref().ID)
	put64(m.Payload[:], 32, cap.Ref().Gen)
	if _, err := fw.sendCtl(enc, &m); err != nil {
		// The enclave rejected (or died before accepting) the grant: undo
		// the protection-layer mapping before reclaiming, or the enclave
		// would retain hardware access to memory it never accepted.
		_ = fw.Bus.Emit(&Event{Kind: EvMemRemovePost, Enclave: enc, Extents: []hw.Extent{ext}, Cap: cap})
		_, _ = fw.Auth.Revoke(cap)
		fw.Ledger.FreeMemory(ext)
		return hw.Extent{}, err
	}
	enc.appendMem(ext, cap)
	return ext, nil
}

// RemoveMemory shrinks the enclave by one extent: the one-extent case of
// RemoveMemoryBatch.
func (fw *Framework) RemoveMemory(enc *Enclave, ext hw.Extent) error {
	return fw.RemoveMemoryBatch(enc, []hw.Extent{ext})
}

// RemoveMemoryBatch shrinks the enclave by several extents as one batched
// operation. For each extent the enclave relinquishes the memory first;
// only then do protection layers unmap it (EvMemRemovePost). The events
// are marked as a batch so protection layers can coalesce their TLB
// shootdowns into one invalidation per core at the batch's final event.
// Reclaim (key revocation and ledger free) happens only after the whole
// batch has been flushed, so the unmap-flush-before-reclaim ordering holds
// at batch granularity: no frame returns to the allocator while any
// enclave core could still hold a translation to it.
//
// On a mid-batch failure an EvIngestFlush flushes whatever already left
// the protection layer, and only the extents whose events succeeded are
// reclaimed before the error is reported. An extent the
// enclave refused stays with the enclave, as do its successors. An extent
// whose event failed has left the enclave but is not reclaimed: a
// protection layer whose unmap failed may still map those frames.
func (fw *Framework) RemoveMemoryBatch(enc *Enclave, exts []hw.Extent) error {
	if len(exts) == 0 {
		return nil
	}
	if enc.State() != StateRunning {
		return fmt.Errorf("pisces: enclave %d not running", enc.ID)
	}
	for _, ext := range exts {
		if enc.memIndex(ext) < 0 {
			return fmt.Errorf("pisces: extent %v not removable from enclave %d", ext, enc.ID)
		}
	}
	type relinquished struct {
		ext hw.Extent
		cap authority.Cap
	}
	var reclaim []relinquished
	var firstErr error
	for i, ext := range exts {
		idx := enc.memIndex(ext)
		if idx < 0 {
			firstErr = fmt.Errorf("pisces: extent %v vanished from enclave %d mid-batch", ext, enc.ID)
			break
		}
		var m Msg
		m.Type = CmdMemRemove
		put64(m.Payload[:], 0, ext.Start)
		put64(m.Payload[:], 8, ext.Size)
		if _, err := fw.sendCtl(enc, &m); err != nil {
			firstErr = err
			break
		}
		cap := enc.dropMem(idx)
		ev := &Event{Kind: EvMemRemovePost, Enclave: enc, Extents: []hw.Extent{ext}, Cap: cap, MoreInBatch: i < len(exts)-1}
		if err := fw.Bus.Emit(ev); err != nil {
			firstErr = err
			break
		}
		reclaim = append(reclaim, relinquished{ext, cap})
	}
	if firstErr != nil {
		// The batch aborted with its closing event unsent: flush the
		// deferred shootdowns before anything is reclaimed.
		_ = fw.Bus.Emit(&Event{Kind: EvIngestFlush, Enclave: enc})
	}
	// Protection teardown already ran through the events; each key (and
	// anything the enclave delegated from it) dies here.
	for _, r := range reclaim {
		if !r.cap.Zero() {
			_, _ = fw.Auth.Revoke(r.cap)
		}
		fw.Ledger.FreeMemory(r.ext)
	}
	return firstErr
}

// AddCPU hot-adds an offline core from node to a running enclave. The
// protection layer sees the core first (EvCPUAddPre: build the per-core
// virtualization context and launch the hypervisor) and only then is the
// co-kernel told to online it.
func (fw *Framework) AddCPU(enc *Enclave, node int) (int, error) {
	if enc.State() != StateRunning {
		return -1, fmt.Errorf("pisces: enclave %d not running", enc.ID)
	}
	cores, err := fw.Ledger.AllocCores(&fw.Machine.Topo, node, 1)
	if err != nil {
		return -1, err
	}
	core := cores[0]
	cpu := fw.Machine.CPU(core)
	cpu.Revive()
	cpu.Virt = nil
	cpu.SetIRQHandler(nil)
	cpu.SetNMIHandler(nil)
	cpu.TLB.FlushAll()
	if err := fw.Bus.Emit(&Event{Kind: EvCPUAddPre, Enclave: enc, Core: core}); err != nil {
		fw.Ledger.FreeCores(cores)
		return -1, err
	}
	if interp := fw.interposer(); interp != nil {
		if err := interp.InterposeBoot(enc, cpu, enc.Base()+OffBootParams); err != nil {
			fw.Ledger.FreeCores(cores)
			return -1, err
		}
	}
	var m Msg
	m.Type = CmdCPUAdd
	put64(m.Payload[:], 0, uint64(core))
	if _, err := fw.sendCtl(enc, &m); err != nil {
		_ = fw.Bus.Emit(&Event{Kind: EvCPURemovePost, Enclave: enc, Core: core})
		fw.Ledger.FreeCores(cores)
		return -1, err
	}
	enc.appendCore(core)
	return core, nil
}

// RemoveCPU offlines a core from a running enclave: the co-kernel
// relinquishes it first (rejecting if it is busy), then the protection
// layer tears down that core's context, then the host reclaims it. The
// enclave's boot core cannot be removed.
func (fw *Framework) RemoveCPU(enc *Enclave, core int) error {
	if enc.State() != StateRunning {
		return fmt.Errorf("pisces: enclave %d not running", enc.ID)
	}
	idx := enc.coreIndex(core)
	if idx < 0 {
		return fmt.Errorf("pisces: core %d not removable from enclave %d", core, enc.ID)
	}
	var m Msg
	m.Type = CmdCPURemove
	put64(m.Payload[:], 0, uint64(core))
	if _, err := fw.sendCtl(enc, &m); err != nil {
		return err
	}
	enc.dropCore(idx)
	if err := fw.Bus.Emit(&Event{Kind: EvCPURemovePost, Enclave: enc, Core: core}); err != nil {
		return err
	}
	cpu := fw.Machine.CPU(core)
	cpu.Virt = nil
	cpu.SetIRQHandler(nil)
	fw.Ledger.FreeCores([]int{core})
	return nil
}

// ReportCrash is called (by the Covirt hypervisor, or host-side detection)
// when an enclave has been terminated. The framework reclaims the enclave's
// resources and notifies dependents — the master control process's cleanup
// duty in the paper.
func (fw *Framework) ReportCrash(enc *Enclave, reason string) {
	mem, ok := enc.beginTeardown(StateCrashed, reason)
	if !ok {
		return
	}

	enc.teardown.Fire()
	for _, cpu := range enc.CPUs() {
		cpu.Kill()
	}
	kernel := enc.Kernel()
	if kernel != nil {
		kernel.Shutdown()
	}
	_ = fw.Bus.Emit(&Event{Kind: EvEnclaveCrashed, Enclave: enc, Reason: reason})
	// A dead enclave holds no authority: every key it held — and every key
	// delegated from those (shared segments, narrowed grants to peers) —
	// dies with it, closing the stale-owner window.
	fw.Auth.RevokeHolder(enc.ID)
	for _, e := range mem {
		fw.Ledger.FreeMemory(e)
	}
	// The crash report may originate from one of the enclave's own
	// execution contexts (the hypervisor's exit handler), so waiting for
	// the kernel to quiesce must happen off to the side; the cores return
	// to the pool only once no stale context can touch them.
	go func() {
		if q, ok := kernel.(Quiescer); ok {
			q.Quiesce()
		}
		fw.Ledger.FreeCores(enc.Cores)
		close(enc.reclaimed)
	}()
}

// Destroy gracefully stops a running enclave and reclaims its resources.
// The shutdown command is best effort: when it fails (the node is down,
// the boot core dead), the enclave is torn down all the same.
func (fw *Framework) Destroy(enc *Enclave) error {
	if enc.State() == StateRunning {
		_, _ = fw.sendCtl(enc, &Msg{Type: CmdShutdown})
	}
	mem, ok := enc.beginTeardown(StateStopped, "")
	if !ok {
		return nil
	}

	enc.teardown.Fire()
	kernel := enc.Kernel()
	if kernel != nil {
		kernel.Shutdown()
	}
	for _, cpu := range enc.CPUs() {
		cpu.Kill()
	}
	// Destroy runs in a management context, never on an enclave core, so
	// the kernel can be quiesced synchronously before the hardware is
	// recycled.
	if q, ok := kernel.(Quiescer); ok {
		q.Quiesce()
	}
	err := fw.Bus.Emit(&Event{Kind: EvEnclaveDestroyed, Enclave: enc})
	fw.Auth.RevokeHolder(enc.ID)
	for _, e := range mem {
		fw.Ledger.FreeMemory(e)
	}
	fw.Ledger.FreeCores(enc.Cores)
	close(enc.reclaimed)
	fw.unregister(enc.ID)
	return err
}

// unregister drops an enclave from the table.
func (fw *Framework) unregister(encID int) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	delete(fw.enclaves, encID)
}

// RegisterIoctl extends the framework's control ABI with a new command —
// the hook Covirt's userspace controller uses ("piggy-backs on the Pisces
// kernel ABI by adding a new set of ioctl commands").
func (fw *Framework) RegisterIoctl(cmd uint32, h func(arg any) (any, error)) error {
	fw.ioctlMu.Lock()
	defer fw.ioctlMu.Unlock()
	if _, dup := fw.ioctls[cmd]; dup {
		return fmt.Errorf("pisces: ioctl %#x already registered", cmd)
	}
	fw.ioctls[cmd] = h
	return nil
}

// ioctlFor looks up an extension handler under the lock; the handler runs
// outside it (handlers call back into the framework).
func (fw *Framework) ioctlFor(cmd uint32) func(arg any) (any, error) {
	fw.ioctlMu.Lock()
	defer fw.ioctlMu.Unlock()
	return fw.ioctls[cmd]
}

// Ioctl dispatches an extension command.
func (fw *Framework) Ioctl(cmd uint32, arg any) (any, error) {
	h := fw.ioctlFor(cmd)
	if h == nil {
		return nil, fmt.Errorf("pisces: unknown ioctl %#x", cmd)
	}
	return h(arg)
}
