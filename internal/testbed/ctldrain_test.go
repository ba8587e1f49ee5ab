package testbed_test

import (
	"testing"
	"time"

	"covirt/internal/kitten"
	"covirt/internal/nautilus"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
)

// vecNest is a runtime vector whose handler rings the control doorbell
// from inside the control drain. It sits below pisces.VectorCtl, so a core
// with both pending takes the doorbell first.
const vecNest uint8 = 0x70

// TestNestedCtlDoorbell is the regression for the control-ring re-entry
// deadlock. The boot core takes a control doorbell; while the drain is
// inside Ring.TryPop (holding the ring lock), the interrupt poll of that
// ring read delivers a second doorbell. The nested drain must not wedge
// the core on the ring lock, and the kernel must still serve commands.
func TestNestedCtlDoorbell(t *testing.T) {
	for _, kind := range []testbed.Kind{testbed.Kitten, testbed.Nautilus} {
		t.Run(kind.String(), func(t *testing.T) {
			started, gate := make(chan struct{}), make(chan struct{})
			polled := make(chan error, 1)
			g := testbed.Guest{Name: "ctl", Kind: kind, Cores: 1, Nodes: []int{0}, MemBytes: 128 << 20}
			if kind == testbed.Nautilus {
				g.Entry = func(e *nautilus.Env, rank int) error {
					close(started)
					<-gate
					polled <- e.Compute(1)
					return nil
				}
			}
			node, err := testbed.Spec{Guests: []testbed.Guest{g}}.Build()
			if err != nil {
				t.Fatal(err)
			}
			be := node.Encs[0]
			boot := be.Enc.Cores[0]
			nest := func() { node.M.RouteIPI(-1, boot, pisces.VectorCtl) }
			switch kind {
			case testbed.Kitten:
				be.Kitten.OnIPI(vecNest, func(*kitten.Env) { nest() })
				if _, err := be.Kitten.Spawn("poll", 0, func(e *kitten.Env) error {
					close(started)
					<-gate
					polled <- e.CPU.Compute(1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			case testbed.Nautilus:
				be.Nautilus.OnIPI(vecNest, func(*nautilus.Env) { nest() })
			}

			// Both vectors are pending before the gated boot thread polls:
			// the doorbell starts the outer drain, and vecNest fires inside
			// its first ring read.
			<-started
			node.M.RouteIPI(-1, boot, vecNest)
			node.M.RouteIPI(-1, boot, pisces.VectorCtl)
			close(gate)
			select {
			case err := <-polled:
				if err != nil {
					t.Fatalf("boot thread: %v", err)
				}
			case <-time.After(10 * time.Second):
				// The wedged core would also block Close's shutdown
				// command, so the node is left behind.
				t.Fatal("boot core wedged: a nested doorbell re-entered the control drain")
			}
			if err := node.Host.Pisces.Ping(be.Enc); err != nil {
				t.Errorf("control ring dead after nested doorbell: %v", err)
			}
			node.Close()
		})
	}
}
