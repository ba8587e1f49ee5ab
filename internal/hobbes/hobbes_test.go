package hobbes

import (
	"testing"

	"covirt/internal/hw"
	"covirt/internal/pisces"
)

func testFramework(t *testing.T) (*hw.Machine, *pisces.Framework) {
	t.Helper()
	spec := hw.DefaultSpec()
	spec.MemPerNode = 1 << 30
	m, err := hw.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	ledger := pisces.NewLedger()
	for _, n := range m.Topo.Nodes {
		start := hw.AlignUp(n.MemBase, hw.PageSize2M)
		if err := ledger.DonateMemory(hw.Extent{Start: start, Size: 512 << 20, Node: n.ID}); err != nil {
			t.Fatal(err)
		}
		for _, c := range n.Cores[1:] {
			ledger.DonateCore(c)
		}
	}
	return m, pisces.NewFramework(m, ledger)
}

// The master shares the framework's bus, so a handler on m.Bus sees each
// framework event exactly once.
func TestMasterBridgesFrameworkEvents(t *testing.T) {
	_, fw := testFramework(t)
	m := NewMaster(fw)
	var kinds []pisces.EventKind
	m.Bus.Subscribe(func(ev *pisces.Event) error {
		kinds = append(kinds, ev.Kind)
		return nil
	})
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "e", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != pisces.EvEnclaveCreated {
		t.Fatalf("kinds = %v", kinds)
	}
	_ = enc
}

func TestIPIGrantTracking(t *testing.T) {
	_, fw := testFramework(t)
	m := NewMaster(fw)
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "e", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var granted, revoked int
	m.Bus.Subscribe(func(ev *pisces.Event) error {
		switch ev.Kind {
		case pisces.EvIPIGrant:
			granted++
		case pisces.EvIPIRevoke:
			revoked++
		}
		return nil
	})
	if m.IPIGranted(enc.ID, 5, 0x70) {
		t.Error("grant present before GrantIPI")
	}
	if err := m.GrantIPI(enc, 5, 0x70); err != nil {
		t.Fatal(err)
	}
	if !m.IPIGranted(enc.ID, 5, 0x70) {
		t.Error("grant missing")
	}
	if m.IPIGranted(enc.ID, 5, 0x71) || m.IPIGranted(enc.ID, 6, 0x70) {
		t.Error("grant leaked to other vector/core")
	}
	if err := m.RevokeIPI(enc, 5, 0x70); err != nil {
		t.Fatal(err)
	}
	if m.IPIGranted(enc.ID, 5, 0x70) {
		t.Error("grant survived revoke")
	}
	if granted != 1 || revoked != 1 {
		t.Errorf("events: granted=%d revoked=%d", granted, revoked)
	}
}

func TestMasterCleansUpOnDestroy(t *testing.T) {
	_, fw := testFramework(t)
	m := NewMaster(fw)
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "e", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Segment owned by the enclave plus a standing IPI grant.
	ownerMem, ok := enc.CapForAddr(enc.Base())
	if !ok {
		t.Fatal("enclave holds no memory capability for its base")
	}
	if _, err := m.Reg.Make(123, ownerMem, []hw.Extent{{Start: enc.Base(), Size: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if err := m.GrantIPI(enc, 3, 0x66); err != nil {
		t.Fatal(err)
	}
	// The master's cleanup is the bus's first handler: one subscribed
	// after NewMaster already finds the segment and the grant gone.
	var saw bool
	m.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind != pisces.EvEnclaveDestroyed {
			return nil
		}
		saw = true
		if n := m.Reg.Count(); n != 0 {
			t.Errorf("registry holds %d segments when the destroy event arrives", n)
		}
		if m.IPIGranted(enc.ID, 3, 0x66) {
			t.Error("IPI grant still present when the destroy event arrives")
		}
		return nil
	})
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("destroy event never reached the later handler")
	}
	if m.Reg.Count() != 0 {
		t.Error("dead enclave's segments survived")
	}
	if m.IPIGranted(enc.ID, 3, 0x66) {
		t.Error("dead enclave's IPI grants survived")
	}
}
