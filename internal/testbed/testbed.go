// Package testbed is the one place in the repository that assembles the
// simulated co-kernel stack. A declarative Spec names the machine, the
// resources to carve out of the host, the Covirt feature set, and the
// guests to boot; Build turns it into a running node:
//
//	machine → linuxhost → Pisces/Hobbes → (Covirt controller) → guests
//
// Every consumer — the experiment harness, the examples, the fault
// campaign, the management shell, and the package test fixtures — goes
// through this path, so offline/boot logic lives exactly once.
package testbed

import (
	"fmt"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/linuxhost"
	"covirt/internal/nautilus"
	"covirt/internal/pisces"
	"covirt/internal/trace"
)

// Kind selects the co-kernel booted into an enclave.
type Kind int

const (
	// Kitten is the Hobbes lightweight kernel (the paper's primary guest).
	Kitten Kind = iota
	// Nautilus is the aerokernel port from the paper's §V generality claim.
	Nautilus
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Kitten:
		return "kitten"
	case Nautilus:
		return "nautilus"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Guest describes one enclave and the co-kernel booted into it.
type Guest struct {
	// Name is the enclave name registered with Pisces.
	Name string
	// Kind selects the co-kernel (default Kitten).
	Kind Kind
	// Cores is the enclave's core count; Nodes the NUMA nodes they are
	// drawn from, round-robin.
	Cores int
	Nodes []int
	// MemBytes is the enclave memory, split evenly across Nodes.
	MemBytes uint64
	// Entry is the Nautilus boot thread (required for Kind Nautilus).
	Entry nautilus.ThreadFn
	// Features, when non-nil, overrides the controller's default feature
	// set for this enclave (IoctlSetFeatures before boot).
	Features *covirt.Features
	// Heartbeat enables the supervisor liveness protocol: the co-kernel
	// beats a shared heartbeat page from its boot core's timer interrupt.
	Heartbeat bool
}

// Spec declares a full testbed: hardware, host carve-out, Covirt, guests.
// The zero value plus one Guest is a working single-enclave node on the
// paper's dual-socket platform.
type Spec struct {
	// Machine overrides the simulated hardware (zero = hw.DefaultSpec()).
	Machine hw.MachineSpec
	// OfflineCores lists the host cores to offline for enclave use. Nil
	// derives it from Guests: each guest's cores are taken round-robin
	// from its Nodes, always leaving the first core of every node to the
	// host. Set it explicitly to keep spare capacity (hot-add headroom).
	OfflineCores []int
	// OfflineMem is the per-node memory (bytes) to offline. Nil derives
	// it from the Guests' MemBytes split across their Nodes.
	OfflineMem map[int]uint64
	// Covirt attaches the controller with Features as the default
	// per-enclave feature set.
	Covirt   bool
	Features covirt.Features
	// Guests are created and booted in order by Build. May be empty: an
	// operator shell builds a bare node and boots enclaves later.
	Guests []Guest
}

// Node is a built testbed: the simulated machine, the host stack, the
// optional controller, and one entry per booted guest.
type Node struct {
	M    *hw.Machine
	Host *linuxhost.Host
	Ctrl *covirt.Controller
	Encs []*Enclave
}

// Enclave pairs a booted guest with its Pisces enclave and kernel. Exactly
// one of Kitten/Nautilus is non-nil, matching the guest's Kind.
type Enclave struct {
	Guest    Guest
	Enc      *pisces.Enclave
	Kitten   *kitten.Kernel
	Nautilus *nautilus.Kernel
}

// Build assembles and boots the stack described by the spec.
func (s Spec) Build() (*Node, error) {
	ms := s.Machine
	if ms.NumNodes == 0 {
		ms = hw.DefaultSpec()
	}
	m, err := hw.NewMachine(ms)
	if err != nil {
		return nil, err
	}
	host, err := linuxhost.New(m)
	if err != nil {
		return nil, err
	}

	offCores := s.OfflineCores
	if offCores == nil {
		if offCores, err = deriveOfflineCores(m, s.Guests); err != nil {
			return nil, err
		}
	}
	if len(offCores) > 0 {
		if err := host.OfflineCores(offCores...); err != nil {
			return nil, err
		}
	}
	offMem := s.OfflineMem
	if offMem == nil {
		offMem = deriveOfflineMem(s.Guests)
	}
	// Deterministic order regardless of map iteration.
	for node := 0; node < len(m.Topo.Nodes); node++ {
		if size := offMem[node]; size > 0 {
			if err := host.OfflineMemory(node, size); err != nil {
				return nil, err
			}
		}
	}

	n := &Node{M: m, Host: host}
	if s.Covirt {
		ctrl, err := covirt.Attach(m, host.Pisces, s.Features)
		if err != nil {
			return nil, err
		}
		n.Ctrl = ctrl
	}
	for _, g := range s.Guests {
		if _, err := n.BootGuest(g); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// deriveOfflineCores totals each guest's round-robin demand per node and
// picks that many offline-able cores, keeping the first core of every node
// for the host.
func deriveOfflineCores(m *hw.Machine, guests []Guest) ([]int, error) {
	perNode := make(map[int]int)
	for _, g := range guests {
		if len(g.Nodes) == 0 {
			return nil, fmt.Errorf("testbed: guest %s has no NUMA nodes", g.Name)
		}
		for i := 0; i < g.Cores; i++ {
			perNode[g.Nodes[i%len(g.Nodes)]]++
		}
	}
	var out []int
	for node := 0; node < len(m.Topo.Nodes); node++ {
		want := perNode[node]
		if want == 0 {
			continue
		}
		avail := m.Topo.Nodes[node].Cores[1:]
		if want > len(avail) {
			return nil, fmt.Errorf("testbed: guests want %d cores on node %d, machine has %d offline-able", want, node, len(avail))
		}
		out = append(out, avail[:want]...)
	}
	return out, nil
}

// deriveOfflineMem totals each guest's per-node memory split.
func deriveOfflineMem(guests []Guest) map[int]uint64 {
	out := make(map[int]uint64)
	for _, g := range guests {
		if g.MemBytes == 0 || len(g.Nodes) == 0 {
			continue
		}
		per := g.MemBytes / uint64(len(g.Nodes))
		for _, node := range g.Nodes {
			out[node] += per
		}
	}
	return out
}

// BootGuest creates g's enclave on the built node and boots its kernel.
func (n *Node) BootGuest(g Guest) (*Enclave, error) {
	enc, err := n.Host.Pisces.CreateEnclave(pisces.EnclaveSpec{
		Name:      g.Name,
		NumCores:  g.Cores,
		Nodes:     g.Nodes,
		MemBytes:  g.MemBytes,
		Heartbeat: g.Heartbeat,
	})
	if err != nil {
		return nil, err
	}
	return n.BootInto(enc, g)
}

// BootInto boots g's kernel into an already-created enclave — the operator
// workflow where create and boot are separate steps.
func (n *Node) BootInto(enc *pisces.Enclave, g Guest) (*Enclave, error) {
	if g.Features != nil {
		if n.Ctrl == nil {
			return nil, fmt.Errorf("testbed: guest %s sets features but spec has no covirt", g.Name)
		}
		args := covirt.SetFeaturesArgs{EnclaveID: enc.ID, Features: *g.Features}
		if _, err := n.Host.Pisces.Ioctl(covirt.IoctlSetFeatures, args); err != nil {
			return nil, err
		}
	}
	be := &Enclave{Guest: g, Enc: enc}
	switch g.Kind {
	case Kitten:
		k := kitten.New()
		if err := n.Host.Pisces.Boot(enc, k); err != nil {
			return nil, err
		}
		be.Kitten = k
	case Nautilus:
		k := nautilus.New(g.Entry)
		if err := n.Host.Pisces.Boot(enc, k); err != nil {
			return nil, err
		}
		be.Nautilus = k
	default:
		return nil, fmt.Errorf("testbed: guest %s has unknown kind %v", g.Name, g.Kind)
	}
	n.Encs = append(n.Encs, be)
	return be, nil
}

// ReplaceGuest reboots a dead guest from its original declaration: a fresh
// enclave is created and the spec's kernel, feature set and heartbeat are
// re-established exactly as at first boot. The old entry in the node's
// enclave list is replaced. Supervised recovery uses this as the single
// reboot path, so a restarted stack cannot drift from its spec.
func (n *Node) ReplaceGuest(old *Enclave) (*Enclave, error) {
	be, err := n.BootGuest(old.Guest)
	if err != nil {
		return nil, err
	}
	// BootGuest appended the new entry; drop it and splice it over the old
	// slot so enumeration order keeps matching the spec.
	n.Encs = n.Encs[:len(n.Encs)-1]
	for i, e := range n.Encs {
		if e == old {
			n.Encs[i] = be
			return be, nil
		}
	}
	n.Encs = append(n.Encs, be)
	return be, nil
}

// EnableTracing turns on the node-wide flight recorder: the Covirt
// controller's tracer when the controller is attached (so exits, controller
// commands and bus events interleave in one timeline), else a standalone
// buffer. Bus events are routed into it either way.
func (n *Node) EnableTracing(capacity int) *trace.Buffer {
	var buf *trace.Buffer
	if n.Ctrl != nil {
		buf = n.Ctrl.EnableTracing(capacity)
	} else {
		buf = trace.New(capacity)
	}
	n.Host.Pisces.Bus.SetTracer(buf)
	return buf
}

// Enc returns the first guest's Pisces enclave (single-enclave specs).
func (n *Node) Enc() *pisces.Enclave {
	if len(n.Encs) == 0 {
		return nil
	}
	return n.Encs[0].Enc
}

// Kitten returns the first guest's Kitten kernel (single-enclave specs).
func (n *Node) Kitten() *kitten.Kernel {
	if len(n.Encs) == 0 {
		return nil
	}
	return n.Encs[0].Kitten
}

// Nautilus returns the first guest's Nautilus kernel.
func (n *Node) Nautilus() *nautilus.Kernel {
	if len(n.Encs) == 0 {
		return nil
	}
	return n.Encs[0].Nautilus
}

// Close destroys every enclave (newest first). A crashed node is left
// as-is: there is nothing orderly left to tear down.
func (n *Node) Close() {
	if n.M.Crashed() {
		return
	}
	for i := len(n.Encs) - 1; i >= 0; i-- {
		_ = n.Host.Pisces.Destroy(n.Encs[i].Enc)
	}
	n.Encs = nil
}
