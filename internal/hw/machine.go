package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeSpec describes one NUMA node of a machine.
type NodeSpec struct {
	ID      int
	Cores   []int
	MemBase uint64
	MemSize uint64
}

// Topology is the machine's NUMA layout.
type Topology struct {
	Nodes []NodeSpec
}

// NodeOfCore returns the NUMA node a core belongs to, or -1.
func (t *Topology) NodeOfCore(core int) int {
	for _, n := range t.Nodes {
		for _, c := range n.Cores {
			if c == core {
				return n.ID
			}
		}
	}
	return -1
}

// MachineSpec configures NewMachine. The default (zero-adjusted) spec models
// the paper's evaluation platform: two Xeon E5-2603 v4 sockets (6 cores
// each) and 64 GiB of memory split across two NUMA zones.
type MachineSpec struct {
	NumNodes     int
	CoresPerNode int
	MemPerNode   uint64
	Costs        Costs
}

// DefaultSpec returns the paper's dual-socket evaluation platform.
func DefaultSpec() MachineSpec {
	return MachineSpec{
		NumNodes:     2,
		CoresPerNode: 6,
		MemPerNode:   32 << 30,
		Costs:        DefaultCosts(),
	}
}

// nodeStride is the physical address stride between NUMA node memory bases.
const nodeStride = 1 << 38 // 256 GiB apart; leaves room for any MemPerNode

// Machine assembles physical memory, CPUs, NUMA topology and I/O ports into
// one simulated node.
type Machine struct {
	Mem   *PhysMem
	CPUs  []*CPU
	Topo  Topology
	Ports *IOPortSpace
	Costs Costs

	crashed     atomic.Bool
	crashReason atomic.Value // string

	// sleeping lists the Handoffs with a goroutine asleep in them; Crash
	// and CPU.Kill wake each so its waiters re-check their stop
	// conditions.
	waitMu   sync.Mutex //covirt:guards sleeping
	sleeping *Handoff

	faultMu  sync.Mutex
	faultLog []Fault
}

// NewMachine builds a machine from spec. Each node's memory is registered as
// one region labelled "node<N>" — the host OS re-partitions it afterwards.
func NewMachine(spec MachineSpec) (*Machine, error) {
	if spec.NumNodes <= 0 || spec.CoresPerNode <= 0 {
		return nil, fmt.Errorf("hw: invalid machine spec %+v", spec)
	}
	if spec.MemPerNode == 0 {
		spec.MemPerNode = 32 << 30
	}
	if spec.MemPerNode > nodeStride {
		return nil, fmt.Errorf("hw: MemPerNode %d exceeds node stride", spec.MemPerNode)
	}
	if spec.Costs == (Costs{}) {
		spec.Costs = DefaultCosts()
	}
	m := &Machine{
		Mem:   NewPhysMem(),
		Ports: NewIOPortSpace(),
		Costs: spec.Costs,
	}
	core := 0
	for n := 0; n < spec.NumNodes; n++ {
		ns := NodeSpec{ID: n, MemBase: uint64(n) * nodeStride, MemSize: spec.MemPerNode}
		if n == 0 {
			ns.MemBase = 1 << 20 // leave the legacy low megabyte unbacked
			ns.MemSize -= 1 << 20
		}
		if _, err := m.Mem.AddRegion(ns.MemBase, ns.MemSize, n, fmt.Sprintf("node%d", n)); err != nil {
			return nil, err
		}
		for i := 0; i < spec.CoresPerNode; i++ {
			cpu := newCPU(m, core, n)
			m.CPUs = append(m.CPUs, cpu)
			ns.Cores = append(ns.Cores, core)
			core++
		}
		m.Topo.Nodes = append(m.Topo.Nodes, ns)
	}
	return m, nil
}

// CPU returns core id, or nil if out of range.
func (m *Machine) CPU(id int) *CPU {
	if id < 0 || id >= len(m.CPUs) {
		return nil
	}
	return m.CPUs[id]
}

// RouteIPI delivers an inter-processor interrupt from core src to core dest.
// IPIs to nonexistent cores are dropped on the bus, as real APIC messages
// to absent agents are.
func (m *Machine) RouteIPI(src, dest int, vector uint8) {
	if c := m.CPU(dest); c != nil {
		c.APIC.Raise(vector, false)
	}
}

// Crash takes the whole node down: every CPU's next operation fails with
// FaultMachineCrashed, and every Handoff wait on the node returns. This
// models the unprotected failure mode the paper targets — one co-kernel's
// abort killing the machine.
func (m *Machine) Crash(reason string) {
	// The reason is stored before the flag, so a fault built by whoever
	// sees the node crashed always carries it.
	if m.crashReason.CompareAndSwap(nil, reason) {
		m.crashed.Store(true)
		for _, c := range m.CPUs {
			c.APIC.setCrashPending()
		}
		m.wakeSleepers()
	}
}

// Crashed reports whether the node is down.
func (m *Machine) Crashed() bool { return m.crashed.Load() }

// CrashReason returns the first crash cause, or "".
func (m *Machine) CrashReason() string {
	if s, ok := m.crashReason.Load().(string); ok {
		return s
	}
	return ""
}

// RecordFault appends f to the machine's fault log (diagnostics, tests).
func (m *Machine) RecordFault(f Fault) {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	//covirt:allow transitive-hot fault logging is the exceptional path
	m.faultLog = append(m.faultLog, f)
}

// Faults returns a copy of the fault log.
func (m *Machine) Faults() []Fault {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	out := make([]Fault, len(m.faultLog))
	copy(out, m.faultLog)
	return out
}
