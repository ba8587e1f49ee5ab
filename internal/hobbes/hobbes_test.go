package hobbes

import (
	"errors"
	"fmt"
	"sync/atomic"
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

func TestBusOrderAndAbort(t *testing.T) {
	var b Bus
	var order []string
	b.Subscribe(func(ev *Event) error { order = append(order, "first"); return nil })
	b.Subscribe(func(ev *Event) error { order = append(order, "second"); return nil })
	if err := b.Emit(&Event{Kind: EvMemAddPre}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}

	sentinel := errors.New("abort")
	b.Subscribe(func(ev *Event) error { return sentinel })
	b.Subscribe(func(ev *Event) error { order = append(order, "never"); return nil })
	order = nil
	if err := b.Emit(&Event{}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	for _, o := range order {
		if o == "never" {
			t.Error("handler after aborting handler ran")
		}
	}
}

func TestEventKindNames(t *testing.T) {
	if EvXememAttachPre.String() != "xemem-attach-pre" {
		t.Errorf("name = %q", EvXememAttachPre)
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestMasterBridgesFrameworkEvents(t *testing.T) {
	_, fw := testFramework(t)
	m := NewMaster(fw)
	var kinds []EventKind
	m.Bus.Subscribe(func(ev *Event) error {
		kinds = append(kinds, ev.Kind)
		return nil
	})
	enc, err := fw.CreateEnclave(pisces.EnclaveSpec{Name: "e", NumCores: 1, Nodes: []int{0}, MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != EvEnclaveCreated {
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
	m.Bus.Subscribe(func(ev *Event) error {
		switch ev.Kind {
		case EvIPIGrant:
			granted++
		case EvIPIRevoke:
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
	if err := fw.Destroy(enc); err != nil {
		t.Fatal(err)
	}
	if m.Reg.Count() != 0 {
		t.Error("dead enclave's segments survived")
	}
	if m.IPIGranted(enc.ID, 3, 0x66) {
		t.Error("dead enclave's IPI grants survived")
	}
}

// TestSubscribeDuringEmitRunsPrefix subscribes handlers on one goroutine
// while another emits. Handler i checks that exactly i handlers ran before
// it on the same event, so every emit runs a prefix of the subscription
// order: at least the handlers whose Subscribe returned before it started,
// at most those whose Subscribe had begun when it ended, and never one out
// of order. Run it under -race.
func TestSubscribeDuringEmitRunsPrefix(t *testing.T) {
	var b Bus
	const n = 200
	var begun, returned atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			lo := returned.Load()
			ev := &Event{Kind: EvMemAddPre}
			if err := b.Emit(ev); err != nil {
				t.Error(err)
				return
			}
			hi := begun.Load()
			if ran := int64(ev.Cost); ran < lo || ran > hi {
				t.Errorf("emit ran %d handlers; want between %d and %d", ran, lo, hi)
				return
			}
			if lo == n {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		want := uint64(i)
		begun.Store(int64(i + 1))
		b.Subscribe(func(ev *Event) error {
			if ev.Cost != want {
				return fmt.Errorf("handler %d ran after %d handlers", want, ev.Cost)
			}
			ev.Cost++
			return nil
		})
		returned.Store(int64(i + 1))
	}
	<-done
}
