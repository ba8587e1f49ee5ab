// Package cluster federates the single-node Hobbes stack across a
// simulated multi-node fleet. Each fleet node is a full testbed stack
// (machine → linuxhost → Pisces/Hobbes → guests); the nodes are joined by
// an integer-cost fabric (Fabric), a sharded federated name service
// (FedRegistry) that any node resolves without a global lock, cross-node
// XEMEM attach that pulls a window over the fabric with every cycle
// charged through the existing cost model, and gang placement that
// atomically places multi-enclave apps across nodes under per-placement
// capability keys. The shape follows Quest-V's "distributed system on a
// chip" one level up: nodes coordinate only through explicit messages and
// shared segments, and each node stays a blast-radius boundary when
// failures correlate.
package cluster

import (
	"fmt"
	"sync"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// fleetConsumerBase offsets synthetic consumer ids used when a remote
// node attaches a segment through the fabric, keeping them disjoint from
// local enclave ids in the home node's registry and capability table.
const fleetConsumerBase = 1 << 20

// FleetConsumer is the consumer id node appears as in a remote node's
// XEMEM registry and capability table.
func FleetConsumer(node int) int { return fleetConsumerBase | node }

// ScanInterval is the fleet watchdog's virtual-clock scan period (one
// default timer period).
const ScanInterval = 170_000_000

// Options configures a fleet.
type Options struct {
	// Nodes is the fleet size.
	Nodes int
	// Seed feeds the fabric's per-link cost derivation.
	Seed uint64
	// Shards is the federated registry's shard count (rounded up to a
	// power of two; <= 0 selects 64).
	Shards int
	// NodeSpec builds node i's testbed spec (nil = DefaultNodeSpec). The
	// spec must offline capacity explicitly (OfflineCores/OfflineMem):
	// placement boots guests after Build, so derived carve-outs — which
	// need the guest list up front — cannot apply.
	NodeSpec func(id int) testbed.Spec
}

// Default per-node capacity: three offline-able cores (core 0 stays with
// the host) and 192 MiB of enclave memory — small enough that fleets of
// hundreds of nodes build in well under a second, since simulated memory
// is lazily backed.
const (
	defaultNodeCores = 3
	defaultNodeMem   = 192 << 20
)

// DefaultNodeSpec is the stock fleet node: a single-socket machine with
// spare capacity pre-offlined for placement.
func DefaultNodeSpec(id int) testbed.Spec {
	return testbed.Spec{
		Machine:      hw.MachineSpec{NumNodes: 1, CoresPerNode: defaultNodeCores + 1, MemPerNode: 512 << 20},
		OfflineCores: []int{1, 2, 3},
		OfflineMem:   map[int]uint64{0: defaultNodeMem},
	}
}

// Node is one fleet member.
type Node struct {
	ID int
	TB *testbed.Node

	// Placement bookkeeping, guarded by Cluster.mu.
	freeCores int
	freeMem   uint64
	down      bool // machine crash observed by Recover
	drained   bool // excluded from placement (rolling upgrades)
	version   int  // co-kernel image version, bumped by UpgradeNode
}

// Cluster is a built fleet.
type Cluster struct {
	Opt   Options
	Nodes []*Node
	// Reg is the fleet-wide federated name service.
	Reg *FedRegistry
	// Fab prices every cross-node interaction.
	Fab *Fabric
	// Auth is the fleet-level capability table; placement keys are
	// minted here (per-node tables keep governing node-local resources).
	Auth      *authority.Table
	rootPlace authority.Cap
	// Clock is the fleet management plane's virtual timeline, advanced
	// only by watchdog scans and priced repair work (hw.Clock
	// discipline), so fleet MTTR figures are scheduling-independent.
	Clock hw.Clock

	mu         sync.Mutex //covirt:guards placements,nextApp
	placements map[uint64]*Placement
	nextApp    uint64
}

// New builds the fleet: opt.Nodes testbed stacks in node-id order, the
// fabric, the federated registry, and the fleet capability table with its
// root placement key.
func New(opt Options) (*Cluster, error) {
	if opt.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: fleet size %d", opt.Nodes)
	}
	if opt.Shards <= 0 {
		opt.Shards = 64
	}
	shards := opt.Shards
	spec := opt.NodeSpec
	if spec == nil {
		spec = DefaultNodeSpec
	}
	c := &Cluster{
		Opt:        opt,
		Reg:        NewFedRegistry(shards, opt.Nodes),
		Fab:        NewFabric(opt.Nodes, opt.Seed, DefaultFabricCosts()),
		Auth:       authority.NewTable(),
		placements: make(map[uint64]*Placement),
	}
	c.rootPlace = c.Auth.Mint(0, authority.KindPlace, authority.RightsAll,
		authority.WildScope(), "fleet-root-place")
	for i := 0; i < opt.Nodes; i++ {
		s := spec(i)
		tb, err := s.Build()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: build node %d: %w", i, err)
		}
		var mem uint64
		for _, sz := range s.OfflineMem {
			mem += sz
		}
		c.Nodes = append(c.Nodes, &Node{
			ID: i, TB: tb, freeCores: len(s.OfflineCores), freeMem: mem, version: 1,
		})
	}
	return c, nil
}

// Close tears the fleet down, newest node first (crashed nodes are left
// as-is, per testbed semantics).
func (c *Cluster) Close() {
	for i := len(c.Nodes) - 1; i >= 0; i-- {
		c.Nodes[i].TB.Close()
	}
}

// ResolveFrom resolves name as seen from node src. The lookup itself is
// lock-free (one atomic shard-snapshot load); the returned cycles price
// the control round trip to the shard's home node — zero when the shard
// is src-local, one fabric round trip otherwise. Management-plane callers
// advance their clock by it; the guest-side attach path folds it into the
// attach surcharge instead.
func (c *Cluster) ResolveFrom(src int, name string) (Record, uint64, error) {
	hash := pisces.NameHash(name)
	cycles := 2 * c.Fab.Latency(src, c.Reg.HomeNode(hash))
	rec, ok := c.Reg.Resolve(hash)
	if !ok {
		return Record{}, cycles, fmt.Errorf("cluster: %q not registered", name)
	}
	return rec, cycles, nil
}

// ExportHost allocates size bytes of host memory on node src, exports it
// in the node-local XEMEM registry under name, and publishes the segment
// fleet-wide. The backing extent is returned so the exporter can fill it.
func (c *Cluster) ExportHost(src int, name string, size uint64) (Record, hw.Extent, error) {
	if src < 0 || src >= len(c.Nodes) {
		return Record{}, hw.Extent{}, fmt.Errorf("cluster: no node %d", src)
	}
	host := c.Nodes[src].TB.Host
	ext, err := host.HostAlloc(0, size)
	if err != nil {
		return Record{}, hw.Extent{}, err
	}
	rootMem := host.Pisces.RootMem
	seg, err := host.Master.Reg.Make(pisces.NameHash(name), rootMem, []hw.Extent{ext})
	if err != nil {
		host.HostFree(ext)
		return Record{}, hw.Extent{}, err
	}
	rec := Record{Name: name, Hash: pisces.NameHash(name), Node: src, SegID: seg.ID, Bytes: size}
	if err := c.Reg.Publish(rec); err != nil {
		_ = host.Master.Reg.Remove(seg.ID, seg.OwnerCap)
		host.HostFree(ext)
		return Record{}, hw.Extent{}, err
	}
	return rec, ext, nil
}

// Import is one node's established hold on a (possibly remote) fleet
// segment.
type Import struct {
	Rec  Record
	Node int
	// LocalSeg is the segment id a consumer guest on Node attaches —
	// the original segment when it is node-local, the fabric-mirrored
	// window otherwise.
	LocalSeg uint64
	// Window is the local mirror backing a remote import.
	Window hw.Extent
	// AttachKey is the fleet attach capability delegated by the home
	// node's registry (remote imports only): revoking the exporter
	// reaches this consumer exactly like a local one.
	AttachKey authority.Cap
	// ResolveCycles is the control round trip paid to resolve the name;
	// PullCycles is the per-attach fabric pull (latency + bandwidth)
	// charged to the attaching guest through the longcall cost path.
	ResolveCycles uint64
	PullCycles    uint64

	remote bool
}

// Import makes the named fleet segment attachable on node dst. The name
// resolves through the federated registry; a remote segment is recorded
// as a fleet attachment with the home node (delegating an attach key from
// the segment owner), its frames are pulled over the fabric into a local
// window, and the window is re-exported in dst's local registry under the
// same name — so a consumer guest's ordinary XemGet/XemAttach works
// unchanged, with the fabric pull surcharged onto every attach. The
// window is coherent as of the import (one-sided RDMA-get semantics);
// single-writer segments, the dominant XEMEM pattern, see identical
// bytes to a local consumer.
func (c *Cluster) Import(dst int, name string) (*Import, error) {
	if dst < 0 || dst >= len(c.Nodes) {
		return nil, fmt.Errorf("cluster: no node %d", dst)
	}
	rec, cycles, err := c.ResolveFrom(dst, name)
	if err != nil {
		return nil, err
	}
	c.Clock.Advance(cycles)
	imp := &Import{Rec: rec, Node: dst, ResolveCycles: cycles}
	if rec.Node == dst {
		imp.LocalSeg = rec.SegID
		return imp, nil
	}
	if rec.SegID == 0 {
		return nil, fmt.Errorf("cluster: %q is not a segment record", name)
	}
	home, local := c.Nodes[rec.Node], c.Nodes[dst]
	attachKey, exts, err := fleetAttach(home, rec.SegID, FleetConsumer(dst))
	if err != nil {
		return nil, err
	}
	win, err := local.TB.Host.HostAlloc(0, rec.Bytes)
	if err != nil {
		fleetDetach(home, rec.SegID, FleetConsumer(dst))
		return nil, err
	}
	if err := copyExtents(home.TB.M, local.TB.M, exts, win); err != nil {
		local.TB.Host.HostFree(win)
		fleetDetach(home, rec.SegID, FleetConsumer(dst))
		return nil, err
	}
	rootMem := local.TB.Host.Pisces.RootMem
	seg, err := local.TB.Host.Master.Reg.Make(rec.Hash, rootMem, []hw.Extent{win})
	if err != nil {
		local.TB.Host.HostFree(win)
		fleetDetach(home, rec.SegID, FleetConsumer(dst))
		return nil, err
	}
	imp.LocalSeg, imp.Window, imp.AttachKey, imp.remote = seg.ID, win, attachKey, true
	imp.PullCycles = c.Fab.Transfer(rec.Node, dst, rec.Bytes)
	local.TB.Host.SetAttachSurcharge(seg.ID, imp.PullCycles)
	return imp, nil
}

// Release tears an import down: the local mirror is unexported and its
// window freed, and the home node's fleet attachment is detached (which
// revokes the remote attach key). Local imports are a no-op.
func (c *Cluster) Release(imp *Import) error {
	if !imp.remote {
		return nil
	}
	local, home := c.Nodes[imp.Node], c.Nodes[imp.Rec.Node]
	local.TB.Host.SetAttachSurcharge(imp.LocalSeg, 0)
	ownerCap, err := local.TB.Host.Master.Reg.OwnerCapOf(imp.LocalSeg, 0)
	if err != nil {
		return err
	}
	if err := local.TB.Host.Master.Reg.Remove(imp.LocalSeg, ownerCap); err != nil {
		return err
	}
	local.TB.Host.HostFree(imp.Window)
	fleetDetach(home, imp.Rec.SegID, FleetConsumer(imp.Node))
	imp.remote = false
	return nil
}

// fleetAttach records a remote consumer's attachment with the home node's
// registry, naming the delegated attach key it rides on.
func fleetAttach(home *Node, segid uint64, consumer int) (authority.Cap, []hw.Extent, error) {
	exts, attachKey, err := home.TB.Host.Master.Reg.Attach(segid, consumer)
	if err != nil {
		return authority.Cap{}, nil, err
	}
	return attachKey, exts, nil
}

// fleetDetach completes a remote consumer's detach on the home node.
func fleetDetach(home *Node, segid uint64, consumer int) {
	if _, err := home.TB.Host.Master.Reg.DetachStart(segid, consumer); err != nil {
		return
	}
	_, _ = home.TB.Host.Master.Reg.DetachDone(segid, consumer)
}

// copyExtents materializes the remote frames in the local window — the
// simulator-level effect of the fabric's one-sided pull. The pull's cost
// is charged through the attach surcharge; the copy itself is
// management-plane data movement.
func copyExtents(src, dst *hw.Machine, exts []hw.Extent, win hw.Extent) error {
	buf := make([]byte, 64<<10)
	off := uint64(0)
	for _, e := range exts {
		for done := uint64(0); done < e.Size; {
			n := uint64(len(buf))
			if e.Size-done < n {
				n = e.Size - done
			}
			if err := src.Mem.Read(e.Start+done, buf[:n]); err != nil {
				return err
			}
			if err := dst.Mem.Write(win.Start+off, buf[:n]); err != nil {
				return err
			}
			done += n
			off += n
		}
	}
	return nil
}

// NodeStatus is one node's management-plane view, for the fleet verbs.
type NodeStatus struct {
	ID        int
	State     string // up | drained | down
	Version   int
	FreeCores int
	FreeMem   uint64
	Enclaves  []string
}

// Status reports every node's state in id order.
func (c *Cluster) Status() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.Nodes))
	for _, nd := range c.Nodes {
		st := NodeStatus{
			ID: nd.ID, State: "up", Version: nd.version,
			FreeCores: nd.freeCores, FreeMem: nd.freeMem,
		}
		if nd.drained {
			st.State = "drained"
		}
		if nd.down || nd.TB.M.Crashed() {
			st.State = "down"
		}
		for _, be := range nd.TB.Encs {
			st.Enclaves = append(st.Enclaves, be.Guest.Name)
		}
		out = append(out, st)
	}
	return out
}
