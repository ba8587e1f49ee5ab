package harness

import (
	"errors"
	"testing"

	"covirt/internal/authority"
	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/workloads"
	"covirt/internal/xemem"
)

// capNode boots a single-core covirt-mem node for the capability tests.
func capNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewNode(CfgCovirtMem, SingleCore, NodeOptions{EnclaveMem: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestCapabilityConfusedDeputy pins the deputy check on both grant
// crossings: a capability names its holder, so a service presenting a key
// on behalf of the wrong principal is denied even though the key itself is
// live and authentic.
func TestCapabilityConfusedDeputy(t *testing.T) {
	n := capNode(t)

	// I/O crossing: a key minted for a different enclave is refused by the
	// grant ioctl even when the deputy (the host driver issuing the ioctl)
	// is fully trusted.
	stray, err := n.Ctrl.DelegateIO(n.Enc.ID+7, hw.PortSerialCOM1, hw.PortSerialCOM1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = n.Host.Pisces.Ioctl(covirt.IoctlGrantIO,
		covirt.GrantIOArgs{EnclaveID: n.Enc.ID, Port: hw.PortSerialCOM1, Cap: stray})
	if err == nil {
		t.Fatal("grant with another holder's I/O key accepted")
	}
	own, err := n.Ctrl.DelegateIO(n.Enc.ID, hw.PortSerialCOM1, hw.PortSerialCOM1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Host.Pisces.Ioctl(covirt.IoctlGrantIO,
		covirt.GrantIOArgs{EnclaveID: n.Enc.ID, Port: hw.PortSerialCOM1, Cap: own}); err != nil {
		t.Fatalf("grant with the holder's own key: %v", err)
	}

	// XEMEM crossing: a consumer's attach key does not stand in for the
	// owner key — Remove demands the exact owner capability.
	seg, err := n.Host.HostAlloc(0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := n.Host.Master.Reg.Make(pisces.NameHash("deputy.seg"), n.Host.Pisces.RootMem, []hw.Extent{seg})
	if err != nil {
		t.Fatal(err)
	}
	_, attachKey, err := n.Host.Master.Reg.Attach(s.ID, n.Enc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Host.Master.Reg.Remove(s.ID, attachKey); !errors.Is(err, xemem.ErrDenied) {
		t.Fatalf("Remove with an attach key = %v, want ErrDenied", err)
	}
	if err := n.Host.Master.Reg.Remove(s.ID, s.OwnerCap); err != nil {
		t.Fatalf("Remove with the owner key: %v", err)
	}
}

// TestCapabilityDelegationNarrows pins that delegation only ever shrinks
// authority, end to end: a key narrowed to a window cannot export frames
// outside it, and no child can widen scope or regain dropped rights.
func TestCapabilityDelegationNarrows(t *testing.T) {
	n := capNode(t)
	tab := n.Host.Pisces.Auth

	seg, err := n.Host.HostAlloc(0, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := tab.Delegate(n.Host.Pisces.RootMem, 0,
		authority.RightRead|authority.RightWrite|authority.RightMap|authority.RightDelegate,
		authority.MemScope(seg.Start, 2<<20), "narrow-window")
	if err != nil {
		t.Fatal(err)
	}

	inside := hw.Extent{Start: seg.Start, Size: 1 << 20, Node: seg.Node}
	if _, err := n.Host.Master.Reg.Make(pisces.NameHash("narrow.in"), narrow, []hw.Extent{inside}); err != nil {
		t.Fatalf("export inside the narrowed window: %v", err)
	}
	if _, err := n.Host.Master.Reg.Make(pisces.NameHash("narrow.out"), narrow, []hw.Extent{seg}); !errors.Is(err, xemem.ErrDenied) {
		t.Fatalf("export past the narrowed window = %v, want ErrDenied", err)
	}

	// Widening the scope back out is refused at the table.
	if _, err := tab.Delegate(narrow, 0, authority.RightRead,
		authority.MemScope(seg.Start, 4<<20), "widen"); err == nil {
		t.Fatal("delegation widened the scope")
	}
	// So is regaining a right the parent dropped.
	if _, err := tab.Delegate(narrow, 0, authority.RightRemove,
		authority.MemScope(seg.Start, 1<<20), "regain"); err == nil {
		t.Fatal("delegation regained a dropped right")
	}
	// A child minted without RightDelegate is a leaf.
	leaf, err := tab.Delegate(narrow, 0, authority.RightRead,
		authority.MemScope(seg.Start, 1<<20), "leaf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Delegate(leaf, 0, authority.RightRead,
		authority.MemScope(seg.Start, 4096), "from-leaf"); err == nil {
		t.Fatal("delegation from a key without RightDelegate succeeded")
	}
}

// TestRevocationMidWorkloadPrefix pins the fault semantics of revocation
// landing in the middle of a consumer's workload: every write before the
// revoke is durable, the first touch after it is a contained EPT violation
// (the enclave dies, the host does not), and nothing after the faulting
// access executes.
func TestRevocationMidWorkloadPrefix(t *testing.T) {
	n := capNode(t)
	m := n.Host.Master

	seg, err := n.Host.HostAlloc(0, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Reg.Make(pisces.NameHash("mid.seg"), n.Host.Pisces.RootMem, []hw.Extent{seg})
	if err != nil {
		t.Fatal(err)
	}

	const prefix = 8
	val := func(i uint64) uint64 { return 0xC0DE_0000_0000_0000 + i }
	var base uint64
	t1, err := n.K.Spawn("prefix", 0, func(e *kitten.Env) error {
		exts, err := e.XemAttach(s.ID)
		if err != nil {
			return err
		}
		base = exts[0].Start
		for i := uint64(0); i < prefix; i++ {
			e.Write64(base+i*8, val(i))
		}
		return nil
	})
	if err == nil {
		err = t1.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}

	// The storm lands mid-workload: the owner key dies, recursive
	// revocation kills the enclave's attach key, and the revocation event
	// unmaps the frames from the EPT behind the guest's back.
	oc, err := m.Reg.OwnerCapOf(s.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RevokeCap(oc); err != nil {
		t.Fatal(err)
	}

	t2, err := n.K.Spawn("stale", 0, func(e *kitten.Env) error {
		// Kitten's own memory map still carries the mapping; only the
		// protection layer below knows the key is dead.
		for i := uint64(prefix); i < prefix+8; i++ {
			e.Write64(base+i*8, val(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := t2.Wait()
	if werr == nil {
		t.Fatal("write through a revoked mapping succeeded")
	}
	if n.M.Crashed() {
		t.Fatalf("host node crashed: %s", n.M.CrashReason())
	}
	if n.Enc.State() != pisces.StateCrashed {
		t.Fatalf("enclave state = %v, want crashed", n.Enc.State())
	}

	// Exact prefix: everything before the revoke is durable, the fault
	// names the first post-revoke touch, and no later write landed.
	for i := uint64(0); i < prefix; i++ {
		v, err := n.M.Mem.Read64(base + i*8)
		if err != nil {
			t.Fatal(err)
		}
		if v != val(i) {
			t.Fatalf("prefix write %d lost: %#x", i, v)
		}
	}
	faults := n.M.Faults()
	if len(faults) == 0 {
		t.Fatal("no fault recorded")
	}
	first := faults[0]
	if first.Kind != hw.FaultEPTViolation || first.Addr != base+prefix*8 || !first.Write {
		t.Fatalf("first fault = %+v, want EPT write violation at %#x", first, base+prefix*8)
	}
	for i := uint64(prefix); i < prefix+8; i++ {
		v, err := n.M.Mem.Read64(base + i*8)
		if err != nil {
			t.Fatal(err)
		}
		if v == val(i) {
			t.Fatalf("post-revoke write %d landed", i)
		}
	}
}

// TestTwinRunAuthorityEquivalence pins the zero-perturbation property: a
// violation-free workload executes byte-identically with enforcement on
// and off — same simulated cycles, same memory contents, same number of
// table checks — because capability verification charges no simulated
// time and only diverges control flow on a violation.
func TestTwinRunAuthorityEquivalence(t *testing.T) {
	type outcome struct {
		cycles   uint64
		verifies uint64
		denies   uint64
		sum      uint64
	}
	run := func(enforced bool) outcome {
		t.Helper()
		n := capNode(t)
		auth := n.Host.Pisces.Auth
		auth.SetEnforced(enforced)

		seg, err := n.Host.HostAlloc(0, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.Host.Master.Reg.Make(pisces.NameHash("twin.seg"), n.Host.Pisces.RootMem, []hw.Extent{seg})
		if err != nil {
			t.Fatal(err)
		}
		v0, d0 := auth.Verifies.Load(), auth.Denies.Load()
		var o outcome
		task, err := n.K.Spawn("twin", 0, func(e *kitten.Env) error {
			// Drain the spawn doorbell before the window opens, as
			// workloads.runParallel does: whether the idle loop or the
			// task's first poll takes it depends on host scheduling.
			e.Compute(0)
			t0 := e.CPU.TSC
			for round := 0; round < 4; round++ {
				exts, err := e.XemAttach(s.ID)
				if err != nil {
					return err
				}
				for i := uint64(0); i < 16; i++ {
					e.Write64(exts[0].Start+i*8, uint64(round)<<32|i)
				}
				for i := uint64(0); i < 16; i++ {
					o.sum += e.Read64(exts[0].Start + i*8)
				}
				if err := e.XemDetach(s.ID); err != nil {
					return err
				}
			}
			o.cycles = e.CPU.TSC - t0
			return nil
		})
		if err == nil {
			err = task.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		o.verifies = auth.Verifies.Load() - v0
		o.denies = auth.Denies.Load() - d0
		return o
	}

	on := run(true)
	off := run(false)
	if on != off {
		t.Fatalf("twin runs diverge:\nenforced:   %+v\nunenforced: %+v", on, off)
	}
	if on.denies != 0 {
		t.Fatalf("violation-free run counted %d denies", on.denies)
	}
	if on.verifies == 0 {
		t.Fatal("workload crossed no capability checks")
	}
	if sec := workloads.Seconds(on.cycles); sec <= 0 {
		t.Fatalf("cycles = %d", on.cycles)
	}
}
