package harness

import (
	"fmt"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
	"covirt/internal/workloads"
)

// NodeOptions configures an assembled evaluation node.
type NodeOptions struct {
	// EnclaveMem is the enclave's memory (the paper uses 14 GiB split
	// across the layout's NUMA zones).
	EnclaveMem uint64
	// Heartbeat enables the guest's supervision heartbeat (fault-injection
	// campaigns that attach a supervisor set this).
	Heartbeat bool
}

// Node is one fully assembled evaluation setup: the simulated machine, the
// host OS stack, an optional Covirt controller, and one booted Kitten
// enclave in the requested layout.
type Node struct {
	Cfg    Config
	Layout Layout

	M    *hw.Machine
	Host *linuxhost.Host
	Ctrl *covirt.Controller
	Enc  *pisces.Enclave
	K    *kitten.Kernel

	tb *testbed.Node
}

// NewNode builds and boots a node for the given configuration and layout
// through the declarative testbed layer.
func NewNode(cfg Config, layout Layout, opt NodeOptions) (*Node, error) {
	encMem := opt.EnclaveMem
	if encMem == 0 {
		encMem = 14 << 30 // the paper's enclave size
	}
	spec := testbed.Spec{
		Covirt:   cfg.Covirt,
		Features: cfg.Features,
		Guests: []testbed.Guest{{
			Name:      "bench-" + cfg.Name,
			Kind:      testbed.Kitten,
			Cores:     layout.Cores,
			Nodes:     layout.Nodes,
			MemBytes:  encMem,
			Heartbeat: opt.Heartbeat,
		}},
	}
	tb, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("harness: layout %s: %w", layout.Name, err)
	}
	return &Node{
		Cfg:    cfg,
		Layout: layout,
		M:      tb.M,
		Host:   tb.Host,
		Ctrl:   tb.Ctrl,
		Enc:    tb.Enc(),
		K:      tb.Kitten(),
		tb:     tb,
	}, nil
}

// Testbed exposes the underlying testbed node (supervision and other
// management-plane extensions attach there).
func (n *Node) Testbed() *testbed.Node { return n.tb }

// Close tears the enclave down.
func (n *Node) Close() {
	if n.tb != nil {
		n.tb.Close()
	}
}

// RunWorkload executes w on a fresh node for each of reps repetitions,
// returning every Result. A fresh node per repetition keeps runs
// independent, like the paper's 10-trial methodology.
func RunWorkload(cfg Config, layout Layout, opt NodeOptions, w workloads.Runner, reps int) ([]*workloads.Result, error) {
	if reps <= 0 {
		reps = 1
	}
	out := make([]*workloads.Result, 0, reps)
	for rep := 0; rep < reps; rep++ {
		n, err := NewNode(cfg, layout, opt)
		if err != nil {
			return nil, fmt.Errorf("%s/%s rep %d/%d: %w", cfg.Name, layout.Name, rep+1, reps, err)
		}
		res, err := w.Run(n.K, layout.Cores)
		n.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/%s rep %d/%d: %w", cfg.Name, layout.Name, rep+1, reps, err)
		}
		out = append(out, res)
	}
	return out, nil
}
