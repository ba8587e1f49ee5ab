package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/supervisor"
	"covirt/internal/testbed"
)

func newFleet(t *testing.T, nodes int, opt Options) *Cluster {
	t.Helper()
	opt.Nodes = nodes
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// consumerGuest boots a plain one-core Kitten consumer on node n.
func consumerGuest(t *testing.T, c *Cluster, n int, name string) *testbed.Enclave {
	t.Helper()
	be, err := c.Nodes[n].TB.BootGuest(testbed.Guest{
		Name: name, Kind: testbed.Kitten, Cores: 1, Nodes: []int{0}, MemBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// attachSample runs a guest-side XemGet+XemAttach of name, returning the
// TSC cycles the attach charged and the first/last word of the segment.
func attachSample(t *testing.T, be *testbed.Enclave, name string) (uint64, [2]uint64) {
	t.Helper()
	var delta uint64
	var words [2]uint64
	task, err := be.Kitten.Spawn("attach", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet(name)
		if err != nil {
			return err
		}
		t0 := e.CPU.TSC
		exts, err := e.XemAttach(segid)
		if err != nil {
			return err
		}
		delta = e.CPU.TSC - t0
		if len(exts) != 1 {
			return fmt.Errorf("attach returned %d extents, want 1", len(exts))
		}
		words[0] = e.Read64(exts[0].Start)
		words[1] = e.Read64(exts[0].Start + exts[0].Size - 8)
		return e.XemDetach(segid)
	})
	if err == nil {
		err = task.Wait()
	}
	if err != nil {
		t.Fatalf("attach %s on %s: %v", name, be.Guest.Name, err)
	}
	return delta, words
}

func write64(t *testing.T, m *hw.Machine, addr, val uint64) {
	t.Helper()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	if err := m.Mem.Write(addr, buf[:]); err != nil {
		t.Fatal(err)
	}
}

func TestImportLocalIsFree(t *testing.T) {
	c := newFleet(t, 2, Options{Seed: 1})
	rec, _, err := c.ExportHost(0, "local.seg", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := c.Import(0, "local.seg")
	if err != nil {
		t.Fatal(err)
	}
	if imp.LocalSeg != rec.SegID || imp.PullCycles != 0 || imp.remote {
		t.Fatalf("local import = %+v", imp)
	}
	if err := c.Release(imp); err != nil {
		t.Fatal(err)
	}
}

// TestCrossNodeAttachEquivalence is the tentpole's core contract: a
// consumer on a remote node sees byte-identical segment contents through
// an unchanged XemGet/XemAttach, and pays exactly the fabric pull on top
// of what a local consumer pays — the extra cycles land in the attach
// latency, nowhere else.
func TestCrossNodeAttachEquivalence(t *testing.T) {
	const name = "fleet.shared"
	const size = 2 << 20
	c := newFleet(t, 4, Options{Seed: 11})
	_, ext, err := c.ExportHost(0, name, size)
	if err != nil {
		t.Fatal(err)
	}
	write64(t, c.Nodes[0].TB.M, ext.Start, 0xFEEDFACE)
	write64(t, c.Nodes[0].TB.M, ext.Start+size-8, 0xDEADBEEF)

	imp, err := c.Import(2, name)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Fab.Transfer(0, 2, size); imp.PullCycles != want {
		t.Fatalf("PullCycles = %d, want Fab.Transfer(0,2,%d) = %d", imp.PullCycles, size, want)
	}
	if imp.PullCycles == 0 {
		t.Fatal("remote pull charged nothing")
	}
	// The attach key is delegated by the home node's registry, so it
	// lives in that node's authority table, not the fleet table.
	if !c.Nodes[0].TB.Host.Pisces.Auth.Alive(imp.AttachKey) {
		t.Fatal("fleet attach key not alive in home node's table")
	}

	local := consumerGuest(t, c, 0, "consumer0")
	remote := consumerGuest(t, c, 2, "consumer2")
	dLocal, wLocal := attachSample(t, local, name)
	dRemote, wRemote := attachSample(t, remote, name)

	if wLocal != wRemote {
		t.Errorf("contents differ: local %#x remote %#x", wLocal, wRemote)
	}
	if wLocal != [2]uint64{0xFEEDFACE, 0xDEADBEEF} {
		t.Errorf("local consumer read %#x", wLocal)
	}
	if dRemote-dLocal != imp.PullCycles {
		t.Errorf("remote attach = %d cycles, local = %d; delta %d, want PullCycles %d",
			dRemote, dLocal, dRemote-dLocal, imp.PullCycles)
	}

	// Release tears the mirror down: the name no longer resolves locally
	// and the home node drops the fleet attachment.
	if err := c.Release(imp); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].TB.Host.Pisces.Auth.Alive(imp.AttachKey) {
		t.Error("fleet attach key survived release")
	}
	if _, err := c.Nodes[2].TB.Host.Master.Reg.Get(pisces.NameHash(name)); err == nil {
		t.Error("mirror still resolvable on node 2 after release")
	}
}

func TestGangPlacementRollback(t *testing.T) {
	c := newFleet(t, 2, Options{Seed: 3})
	before := c.Reg.Len()
	// Two members fit (one per node); the third finds no node with two
	// free cores, so the whole gang must unwind.
	app := App{Name: "gang", Members: []Member{
		{Name: "a", Cores: 2, MemBytes: 64 << 20},
		{Name: "b", Cores: 2, MemBytes: 64 << 20},
		{Name: "c", Cores: 2, MemBytes: 64 << 20},
	}}
	if _, err := c.Place(app); err == nil {
		t.Fatal("oversized gang placed")
	}
	if n := c.Reg.Len(); n != before {
		t.Errorf("registry has %d records after rollback, want %d", n, before)
	}
	for _, st := range c.Status() {
		if st.FreeCores != defaultNodeCores || len(st.Enclaves) != 0 {
			t.Errorf("node %d not restored: %+v", st.ID, st)
		}
	}
	if len(c.Placements()) != 0 {
		t.Error("failed placement recorded")
	}

	// The fleet is intact: a gang that fits places cleanly afterwards.
	pl, err := c.Place(App{Name: "ok", Members: []Member{
		{Name: "a", Cores: 1, MemBytes: 32 << 20},
		{Name: "b", Cores: 1, MemBytes: 32 << 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Auth.Alive(pl.AppKey) {
		t.Error("gang key dead after successful placement")
	}
	if pl.Members[0].Node == pl.Members[1].Node {
		t.Errorf("both members on node %d; most-free-first should spread them", pl.Members[0].Node)
	}
	for _, m := range pl.Members {
		if !c.Auth.Alive(m.Key) {
			t.Errorf("member %s key dead", m.Member.Name)
		}
		rec, ok := c.Reg.Resolve(pisces.NameHash("ok/" + m.Member.Name))
		if !ok || rec.Node != m.Node {
			t.Errorf("record for %s = %+v, %v", m.Member.Name, rec, ok)
		}
	}
}

func TestDrainMovesMembers(t *testing.T) {
	c := newFleet(t, 3, Options{Seed: 4})
	if _, err := c.Place(App{Name: "app1", Members: []Member{{Name: "m", Cores: 1, MemBytes: 32 << 20}}}); err != nil {
		t.Fatal(err)
	}
	pl := c.Placements()[0]
	src := pl.Members[0].Node
	oldKey := pl.Members[0].Key

	moved, err := c.Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	pl = c.Placements()[0]
	if pl.Members[0].Node == src {
		t.Fatal("member still on drained node")
	}
	if c.Auth.Alive(oldKey) {
		t.Error("old member key survived the move")
	}
	if !c.Auth.Alive(pl.Members[0].Key) {
		t.Error("new member key dead")
	}
	st := c.Status()[src]
	if st.State != "drained" || len(st.Enclaves) != 0 || st.FreeCores != defaultNodeCores {
		t.Errorf("drained node status %+v", st)
	}
	if rec, _ := c.Reg.Resolve(pisces.NameHash("app1/m")); rec.Node != pl.Members[0].Node {
		t.Errorf("record points at node %d, member on %d", rec.Node, pl.Members[0].Node)
	}

	// A drained node takes no placements until undrained.
	pl2, err := c.Place(App{Name: "app2", Members: []Member{{Name: "m", Cores: 1, MemBytes: 32 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Members[0].Node == src {
		t.Error("placement landed on a drained node")
	}
	c.Undrain(src)
	pl3, err := c.Place(App{Name: "app3", Members: []Member{{Name: "m", Cores: 1, MemBytes: 32 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	if pl3.Members[0].Node != src {
		t.Errorf("undrained node %d (all cores free) not preferred; got %d", src, pl3.Members[0].Node)
	}
}

func TestUpgradeNodeRollsMembers(t *testing.T) {
	c := newFleet(t, 2, Options{Seed: 5})
	if _, err := c.Place(App{Name: "svc", Members: []Member{{Name: "m", Cores: 1, MemBytes: 32 << 20}}}); err != nil {
		t.Fatal(err)
	}
	pl := c.Placements()[0]
	node, oldEnc := pl.Members[0].Node, pl.Members[0].Enc.Enc.ID

	boot, err := c.UpgradeNode(node)
	if err != nil {
		t.Fatal(err)
	}
	if boot == 0 {
		t.Error("upgrade reported a zero-cycle reboot window")
	}
	if v := c.Version(node); v != 2 {
		t.Errorf("version = %d, want 2", v)
	}
	pl = c.Placements()[0]
	if pl.Members[0].Node != node {
		t.Errorf("upgrade moved the member to node %d", pl.Members[0].Node)
	}
	if pl.Members[0].Enc.Enc.ID == oldEnc {
		t.Error("member enclave not rebooted")
	}
	if rec, _ := c.Reg.Resolve(pisces.NameHash("svc/m")); rec.Enclave != pl.Members[0].Enc.Enc.ID {
		t.Errorf("record enclave %d, want %d", rec.Enclave, pl.Members[0].Enc.Enc.ID)
	}
}

func TestRecoverFailsOver(t *testing.T) {
	c := newFleet(t, 4, Options{Seed: 6})
	for i := 0; i < 3; i++ {
		app := App{Name: fmt.Sprintf("app%d", i), Members: []Member{
			{Name: "a", Cores: 1, MemBytes: 32 << 20},
			{Name: "b", Cores: 1, MemBytes: 32 << 20},
		}}
		if _, err := c.Place(app); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a node hosting at least one member and fail it.
	victim := c.Placements()[0].Members[0].Node
	lost := 0
	for _, pl := range c.Placements() {
		for _, m := range pl.Members {
			if m.Node == victim {
				lost++
			}
		}
	}
	c.Nodes[victim].TB.M.Crash("correlated power fault")

	rep := c.Recover()
	if len(rep.Failed) != 1 || rep.Failed[0] != victim {
		t.Fatalf("Failed = %v, want [%d]", rep.Failed, victim)
	}
	if rep.Displaced != lost || rep.Replaced != lost || rep.Stranded != 0 {
		t.Fatalf("displaced/replaced/stranded = %d/%d/%d, want %d/%d/0",
			rep.Displaced, rep.Replaced, rep.Stranded, lost, lost)
	}
	if len(rep.MTTR) != lost {
		t.Fatalf("MTTR samples = %d, want %d", len(rep.MTTR), lost)
	}
	for _, mttr := range rep.MTTR {
		if mttr <= ScanInterval {
			t.Errorf("MTTR %d does not include repair cost beyond the scan interval", mttr)
		}
	}
	if rep.At != c.Clock.Now() {
		t.Errorf("report stamped %d, clock at %d", rep.At, c.Clock.Now())
	}
	for _, pl := range c.Placements() {
		for _, m := range pl.Members {
			if m.Node == victim {
				t.Errorf("%s/%s still on failed node", pl.App.Name, m.Member.Name)
			}
			name := pl.App.Name + "/" + m.Member.Name
			if rec, ok := c.Reg.Resolve(pisces.NameHash(name)); !ok || rec.Node != m.Node {
				t.Errorf("record for %s = %+v, member on %d", name, rec, m.Node)
			}
		}
	}
	if st := c.Status()[victim]; st.State != "down" {
		t.Errorf("victim state %q", st.State)
	}

	// A second scan finds a quiesced fleet.
	rep = c.Recover()
	if len(rep.Failed) != 0 || rep.Displaced != 0 {
		t.Errorf("second scan reported %+v", rep)
	}
}

// covirtNodeSpec is DefaultNodeSpec plus full Covirt protection, so an
// injected double fault is contained to its enclave instead of taking the
// simulated machine down.
func covirtNodeSpec(id int) testbed.Spec {
	s := DefaultNodeSpec(id)
	s.Covirt = true
	s.Features = covirt.FeaturesAll
	return s
}

// TestSupervisorEscalatesToFleet wires a node-local supervisor's
// quarantine escalation into fleet re-placement: when the restart budget
// is exhausted, the member is re-placed on a surviving node while the
// quarantined hardware stays with its host.
func TestSupervisorEscalatesToFleet(t *testing.T) {
	c := newFleet(t, 2, Options{Seed: 7, NodeSpec: covirtNodeSpec})
	pl, err := c.Place(App{Name: "svc", Members: []Member{{Name: "victim", Cores: 1, MemBytes: 32 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	src := pl.Members[0].Node
	be := pl.Members[0].Enc

	sup := supervisor.New(c.Nodes[src].TB, supervisor.Options{
		OnQuarantine: func(name string) {
			if err := c.ReplaceEnclave(src, name); err != nil {
				t.Errorf("escalation: %v", err)
			}
		},
	})
	if err := sup.Watch(be, supervisor.Policy{MaxRestarts: 0}); err != nil {
		t.Fatal(err)
	}

	if _, err := be.Kitten.Spawn("crash", 0, func(e *kitten.Env) error {
		return e.CPU.RaiseDoubleFault("injected")
	}); err != nil {
		t.Fatal(err)
	}
	<-be.Enc.Done()

	quarantined := false
	for i := 0; i < 64 && !quarantined; i++ {
		if err := sup.Scan(); err != nil {
			t.Fatal(err)
		}
		if st, ok := sup.Status("svc/victim"); ok && st.State == supervisor.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("supervisor never quarantined the victim")
	}

	pl = c.Placements()[0]
	if got := pl.Members[0].Node; got == src {
		t.Fatalf("member still on node %d after escalation", src)
	}
	if rec, ok := c.Reg.Resolve(pisces.NameHash("svc/victim")); !ok || rec.Node != pl.Members[0].Node {
		t.Errorf("record = %+v, member on %d", rec, pl.Members[0].Node)
	}
	// Quarantined hardware stayed with node src's host: fleet capacity
	// there must NOT have been restored.
	if st := c.Status()[src]; st.FreeCores != defaultNodeCores-1 {
		t.Errorf("node %d free cores = %d; quarantined core must stay withdrawn", src, st.FreeCores)
	}
}

// TestFleetScale256 is the acceptance-scale run: 256 full node stacks, a
// fleet-wide export resolved from every node through the sharded registry,
// gang placements across the fleet, and a correlated-failure recovery.
func TestFleetScale256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node fleet build")
	}
	const nodes = 256
	c := newFleet(t, nodes, Options{Seed: 9, Shards: nodes})
	if _, _, err := c.ExportHost(3, "scale.seg", 1<<20); err != nil {
		t.Fatal(err)
	}
	home := c.Reg.HomeNode(pisces.NameHash("scale.seg"))
	for n := 0; n < nodes; n++ {
		rec, cycles, err := c.ResolveFrom(n, "scale.seg")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Node != 3 {
			t.Fatalf("node %d resolved %+v", n, rec)
		}
		if want := 2 * c.Fab.Latency(n, home); cycles != want {
			t.Fatalf("resolve from %d charged %d, want %d", n, cycles, want)
		}
	}
	for i := 0; i < 32; i++ {
		app := App{Name: fmt.Sprintf("app%d", i), Members: []Member{
			{Name: "a", Cores: 1, MemBytes: 32 << 20},
			{Name: "b", Cores: 1, MemBytes: 32 << 20},
		}}
		if _, err := c.Place(app); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < nodes; n += 16 {
		c.Nodes[n].TB.M.Crash("rack power loss")
	}
	rep := c.Recover()
	if len(rep.Failed) != nodes/16 {
		t.Fatalf("Failed = %v", rep.Failed)
	}
	if rep.Stranded != 0 || rep.Replaced != rep.Displaced {
		t.Fatalf("replaced %d of %d displaced, %d stranded", rep.Replaced, rep.Displaced, rep.Stranded)
	}
	for _, pl := range c.Placements() {
		for _, m := range pl.Members {
			if m.Node%16 == 0 {
				t.Fatalf("%s/%s left on failed node %d", pl.App.Name, m.Member.Name, m.Node)
			}
		}
	}
}
