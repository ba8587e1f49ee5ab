package cluster

import (
	"fmt"
	"sort"

	"covirt/internal/authority"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// Member declares one enclave of a gang-placed application.
type Member struct {
	Name      string
	Cores     int
	MemBytes  uint64
	Heartbeat bool
}

// App is a multi-enclave application placed as one atomic gang.
type App struct {
	Name    string
	Members []Member
}

// Placed is one member's realized placement.
type Placed struct {
	Member Member
	Node   int
	Enc    *testbed.Enclave
	// Key is the member's placement capability, delegated from the
	// gang's AppKey — revoking the gang key kills every member key.
	Key authority.Cap
}

// Placement is a successfully placed gang.
type Placement struct {
	ID     uint64
	App    App
	AppKey authority.Cap
	// Members is index-aligned with App.Members.
	Members []Placed
}

// Reboot cost model: a member reboot pays fixed kernel init plus
// per-4KiB-frame setup (frame-list assembly and mapping), mirroring the
// host's per-page attach pricing. An idle simulated core's TSC is frozen,
// so boot windows are priced from the declaration, not read back.
const (
	bootBaseCycles    = 2_000_000
	bootPerPageCycles = 150
)

// bootCost prices rebooting m from its declaration.
func bootCost(m Member) uint64 {
	return bootBaseCycles + m.MemBytes/4096*bootPerPageCycles
}

// memberGuest is the testbed declaration a member boots as.
func memberGuest(app App, m Member) testbed.Guest {
	return testbed.Guest{
		Name: app.Name + "/" + m.Name, Kind: testbed.Kitten,
		Cores: m.Cores, Nodes: []int{0}, MemBytes: m.MemBytes, Heartbeat: m.Heartbeat,
	}
}

// Place atomically places app across the fleet: one placement key is
// delegated from the fleet root, each member gets a key delegated from
// it, boots on the least-loaded live node, and is published in the
// federated registry. On any partial failure the booted prefix is
// destroyed, the published records dropped, capacity restored, and the
// placement key revoked — recursively killing every member key — so the
// fleet is left exactly as found.
func (c *Cluster) Place(app App) (*Placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(app.Members) == 0 {
		return nil, fmt.Errorf("cluster: app %s has no members", app.Name)
	}
	id := c.nextApp + 1
	appKey, err := c.Auth.Delegate(c.rootPlace, 0,
		authority.RightMap|authority.RightDelegate, authority.PlaceScope(id), "app-"+app.Name)
	if err != nil {
		return nil, err
	}
	pl := &Placement{ID: id, App: app, AppKey: appKey}
	for _, m := range app.Members {
		nd := c.pickNodeLocked(m)
		if nd == nil {
			c.unwindPlacementLocked(pl)
			return nil, fmt.Errorf("cluster: no node can host %s/%s (%d cores, %d B)",
				app.Name, m.Name, m.Cores, m.MemBytes)
		}
		key, err := c.Auth.Delegate(appKey, FleetConsumer(nd.ID),
			authority.RightMap, authority.PlaceScope(id), app.Name+"/"+m.Name)
		if err != nil {
			c.unwindPlacementLocked(pl)
			return nil, err
		}
		be, err := nd.TB.BootGuest(memberGuest(app, m))
		if err != nil {
			c.unwindPlacementLocked(pl)
			return nil, fmt.Errorf("cluster: boot %s/%s on node %d: %w", app.Name, m.Name, nd.ID, err)
		}
		nd.freeCores -= m.Cores
		nd.freeMem -= m.MemBytes
		pl.Members = append(pl.Members, Placed{Member: m, Node: nd.ID, Enc: be, Key: key})
		rec := Record{Name: be.Guest.Name, Hash: pisces.NameHash(be.Guest.Name),
			Node: nd.ID, Enclave: be.Enc.ID}
		if err := c.Reg.Publish(rec); err != nil {
			c.unwindPlacementLocked(pl)
			return nil, err
		}
	}
	c.nextApp = id
	c.placements[id] = pl
	return pl, nil
}

// unwindPlacementLocked reverses a partially placed gang, newest member
// first, and revokes the gang key — recursively killing every member key.
func (c *Cluster) unwindPlacementLocked(pl *Placement) {
	for i := len(pl.Members) - 1; i >= 0; i-- {
		p := pl.Members[i]
		nd := c.Nodes[p.Node]
		if !nd.TB.M.Crashed() {
			_ = nd.TB.Host.Pisces.Destroy(p.Enc.Enc)
			removeEnc(nd.TB, p.Enc)
		}
		c.Reg.Drop(pisces.NameHash(p.Enc.Guest.Name))
		nd.freeCores += p.Member.Cores
		nd.freeMem += p.Member.MemBytes
	}
	_, _ = c.Auth.Revoke(pl.AppKey)
}

// pickNodeLocked selects m's placement target: the up, undrained node
// with the most free cores (ties: most free memory, then lowest id) that
// fits — a deterministic function of fleet state.
func (c *Cluster) pickNodeLocked(m Member) *Node {
	var best *Node
	for _, nd := range c.Nodes {
		if nd.down || nd.drained || nd.TB.M.Crashed() {
			continue
		}
		if nd.freeCores < m.Cores || nd.freeMem < m.MemBytes {
			continue
		}
		if best == nil || nd.freeCores > best.freeCores ||
			(nd.freeCores == best.freeCores && nd.freeMem > best.freeMem) {
			best = nd
		}
	}
	return best
}

// placementIDsLocked returns the live placement ids in ascending order,
// so every fleet-wide sweep enumerates deterministically.
func (c *Cluster) placementIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(c.placements))
	for id := range c.placements {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Placements snapshots the live placements in id order.
func (c *Cluster) Placements() []*Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Placement, 0, len(c.placements))
	for _, id := range c.placementIDsLocked() {
		out = append(out, c.placements[id])
	}
	return out
}

// removeEnc splices a destroyed enclave out of its testbed's list.
func removeEnc(tb *testbed.Node, be *testbed.Enclave) {
	for i, e := range tb.Encs {
		if e == be {
			tb.Encs = append(tb.Encs[:i], tb.Encs[i+1:]...)
			return
		}
	}
}

// replaceMemberLocked moves placement member i onto a fresh node: the old
// enclave is destroyed when still running (destroyOld) and its testbed
// entry dropped, capacity is restored when restoreCap (false when the
// node died, or when quarantine already withdrew the hardware to the
// host), a new member key is delegated from the gang key, the replacement
// boots on the best surviving node, and the fleet record is republished.
// The old member key is revoked last.
func (c *Cluster) replaceMemberLocked(pl *Placement, i int, destroyOld, restoreCap bool) error {
	old := pl.Members[i]
	oldNode := c.Nodes[old.Node]
	if !oldNode.TB.M.Crashed() {
		if destroyOld {
			if err := oldNode.TB.Host.Pisces.Destroy(old.Enc.Enc); err == nil {
				<-old.Enc.Enc.Reclaimed()
			}
		}
		removeEnc(oldNode.TB, old.Enc)
	}
	if restoreCap {
		oldNode.freeCores += old.Member.Cores
		oldNode.freeMem += old.Member.MemBytes
	}
	nd := c.pickNodeLocked(old.Member)
	name := pl.App.Name + "/" + old.Member.Name
	if nd == nil {
		return fmt.Errorf("cluster: no surviving node can host %s", name)
	}
	key, err := c.Auth.Delegate(pl.AppKey, FleetConsumer(nd.ID),
		authority.RightMap, authority.PlaceScope(pl.ID), name)
	if err != nil {
		return err
	}
	be, err := nd.TB.BootGuest(memberGuest(pl.App, old.Member))
	if err != nil {
		return fmt.Errorf("cluster: re-place %s on node %d: %w", name, nd.ID, err)
	}
	nd.freeCores -= old.Member.Cores
	nd.freeMem -= old.Member.MemBytes
	rec := Record{Name: be.Guest.Name, Hash: pisces.NameHash(be.Guest.Name),
		Node: nd.ID, Enclave: be.Enc.ID}
	if err := c.Reg.Publish(rec); err != nil {
		return err
	}
	if c.Auth.Alive(old.Key) {
		_, _ = c.Auth.Revoke(old.Key)
	}
	pl.Members[i] = Placed{Member: old.Member, Node: nd.ID, Enc: be, Key: key}
	return nil
}

// Drain marks node unschedulable and re-places every member currently on
// it onto the rest of the fleet, returning the number moved. The node's
// capacity is preserved but unused until Undrain.
func (c *Cluster) Drain(node int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= len(c.Nodes) {
		return 0, fmt.Errorf("cluster: no node %d", node)
	}
	c.Nodes[node].drained = true
	moved := 0
	for _, id := range c.placementIDsLocked() {
		pl := c.placements[id]
		for i := range pl.Members {
			if pl.Members[i].Node != node {
				continue
			}
			if err := c.replaceMemberLocked(pl, i, true, true); err != nil {
				return moved, err
			}
			moved++
		}
	}
	return moved, nil
}

// Undrain returns a drained node to the placement pool.
func (c *Cluster) Undrain(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node >= 0 && node < len(c.Nodes) {
		c.Nodes[node].drained = false
	}
}

// ReplaceEnclave re-places the named member off node — the hook a
// node-local supervisor calls (via Options.OnQuarantine) when an enclave
// exhausts its restart budget: node-local quarantine escalates to
// fleet-level re-placement. The quarantined member's hardware stayed with
// its node's Linux host, so no fleet capacity is restored there.
func (c *Cluster) ReplaceEnclave(node int, guestName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.placementIDsLocked() {
		pl := c.placements[id]
		for i := range pl.Members {
			if pl.Members[i].Node == node && pl.Members[i].Enc.Guest.Name == guestName {
				return c.replaceMemberLocked(pl, i, false, false)
			}
		}
	}
	return fmt.Errorf("cluster: no placed member %q on node %d", guestName, node)
}

// UpgradeNode reboots every member enclave on node in place from its spec
// — the rolling co-kernel upgrade primitive — and bumps the node's image
// version. It returns the widest boot window among rebooted members (the
// node's unavailability in cycles).
func (c *Cluster) UpgradeNode(node int) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= len(c.Nodes) {
		return 0, fmt.Errorf("cluster: no node %d", node)
	}
	nd := c.Nodes[node]
	if nd.down || nd.TB.M.Crashed() {
		return 0, fmt.Errorf("cluster: node %d is down", node)
	}
	var maxBoot uint64
	for _, id := range c.placementIDsLocked() {
		pl := c.placements[id]
		for i := range pl.Members {
			m := &pl.Members[i]
			if m.Node != node {
				continue
			}
			be, err := nd.TB.ReplaceGuest(m.Enc)
			if err != nil {
				return maxBoot, err
			}
			m.Enc = be
			rec := Record{Name: be.Guest.Name, Hash: pisces.NameHash(be.Guest.Name),
				Node: nd.ID, Enclave: be.Enc.ID}
			if err := c.Reg.Publish(rec); err != nil {
				return maxBoot, err
			}
			if boot := bootCost(m.Member); boot > maxBoot {
				maxBoot = boot
			}
		}
	}
	nd.version++
	return maxBoot, nil
}

// Version reports a node's co-kernel image version.
func (c *Cluster) Version(node int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= len(c.Nodes) {
		return 0
	}
	return c.Nodes[node].version
}

// RecoverReport summarizes one fleet watchdog scan.
type RecoverReport struct {
	// At is the virtual clock when the scan completed.
	At uint64
	// Failed lists nodes newly observed down this scan.
	Failed []int
	// Displaced counts members that lost their node; Replaced of those
	// were re-placed onto survivors, Stranded found no capacity.
	Displaced, Replaced, Stranded int
	// MTTR holds, per re-placed member, the cycles from scan trigger to
	// the member restored (detection + control round trip + boot).
	MTTR []uint64
}

// Recover runs one fleet watchdog scan on the virtual clock: newly
// crashed machines are marked down, and every member stranded on a dead
// node is re-placed onto the surviving fleet. Repair is coordinated from
// the lowest live node; each re-placement charges a control round trip
// over the fabric plus the replacement guest's boot cycles, so fleet MTTR
// is a pure function of the failure set and the cost model.
func (c *Cluster) Recover() RecoverReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep RecoverReport
	scanStart := c.Clock.Now()
	c.Clock.Advance(ScanInterval)
	for _, nd := range c.Nodes {
		if !nd.down && nd.TB.M.Crashed() {
			nd.down = true
			rep.Failed = append(rep.Failed, nd.ID)
		}
	}
	coord := -1
	for _, nd := range c.Nodes {
		if !nd.down {
			coord = nd.ID
			break
		}
	}
	if coord < 0 {
		rep.At = c.Clock.Now()
		return rep
	}
	for _, id := range c.placementIDsLocked() {
		pl := c.placements[id]
		for i := range pl.Members {
			if !c.Nodes[pl.Members[i].Node].down {
				continue
			}
			rep.Displaced++
			if err := c.replaceMemberLocked(pl, i, false, false); err != nil {
				rep.Stranded++
				continue
			}
			rep.Replaced++
			boot := bootCost(pl.Members[i].Member)
			now := c.Clock.Advance(2*c.Fab.Latency(coord, pl.Members[i].Node) + boot)
			rep.MTTR = append(rep.MTTR, now-scanStart)
		}
	}
	rep.At = c.Clock.Now()
	return rep
}
