// Command enclavectl is an interactive control shell for the simulated
// co-kernel node: create, boot, inspect, grow/shrink and destroy enclaves,
// toggle Covirt protection features, inject faults, and put enclaves under
// watchdog supervision — the management workflow a Pisces/Hobbes operator
// would drive with the real tools.
//
//	go run ./cmd/enclavectl
//
// Type "help" at the prompt for commands, or pipe a script:
//
//	printf 'create lwk 2 0 1024\nboot 1 mem\nstatus 1\nquit\n' | go run ./cmd/enclavectl
//
// A supervised crash-and-recover session:
//
//	create lwk 1 0 512 hb
//	boot 1 all
//	supervise 1 3
//	inject 1 df
//	scan 3
//	status 2
//
// Fleet operations run against a separate simulated multi-node cluster
// (see internal/cluster): boot one with "fleet", then place gang apps
// and drain nodes through it:
//
//	fleet 8
//	place web 3 1 32
//	nodes
//	drain 2
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"covirt/internal/cluster"
	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/linuxhost"
	"covirt/internal/pisces"
	"covirt/internal/supervisor"
	"covirt/internal/testbed"
	"covirt/internal/trace"
)

// shell holds the live simulation the commands operate on.
type shell struct {
	node    *testbed.Node
	machine *hw.Machine
	host    *linuxhost.Host
	ctrl    *covirt.Controller
	kernels map[int]*kitten.Kernel
	encs    map[int]*testbed.Enclave
	specs   map[int]pisces.EnclaveSpec // create-time specs, the restart recipe

	// sup and buf come up lazily on the first "supervise"; the buffer
	// doubles as the node-wide flight recorder from that point on.
	sup *supervisor.Supervisor
	buf *trace.Buffer

	// fleet is a separate simulated multi-node cluster, booted on demand
	// by the "fleet" verb; nodes/place/drain operate on it.
	fleet *cluster.Cluster
}

func newShell() (*shell, error) {
	// A guest-less testbed: everything except core 0 of each socket plus
	// 24 GiB per node offlined for enclaves the operator creates later.
	probe := hw.DefaultSpec()
	var cores []int
	offMem := make(map[int]uint64)
	for node := 0; node < probe.NumNodes; node++ {
		for c := 1; c < probe.CoresPerNode; c++ {
			cores = append(cores, node*probe.CoresPerNode+c)
		}
		offMem[node] = 24 << 30
	}
	tb, err := testbed.Spec{
		OfflineCores: cores,
		OfflineMem:   offMem,
		Covirt:       true,
		Features:     covirt.FeaturesNone,
	}.Build()
	if err != nil {
		return nil, err
	}
	return &shell{
		node: tb, machine: tb.M, host: tb.Host, ctrl: tb.Ctrl,
		kernels: make(map[int]*kitten.Kernel),
		encs:    make(map[int]*testbed.Enclave),
		specs:   make(map[int]pisces.EnclaveSpec),
	}, nil
}

// featureSet parses a feature spec like "mem", "mem+ipi", "all", "none".
func featureSet(s string) (covirt.Features, error) {
	switch s {
	case "", "none":
		return covirt.FeaturesNone, nil
	case "mem":
		return covirt.FeaturesMem, nil
	case "mem+ipi", "ipi":
		return covirt.FeaturesMemIPIPIV, nil
	case "mem+ipi-vapic", "ipi-vapic":
		return covirt.FeaturesMemIPIVAPIC, nil
	case "all":
		return covirt.FeaturesAll, nil
	}
	return covirt.Features{}, fmt.Errorf("unknown feature set %q (none|mem|mem+ipi|mem+ipi-vapic|all)", s)
}

const helpText = `commands:
  create <name> <cores> <node|0,1> <MB> [hb]  allocate an enclave ("hb" adds a heartbeat page)
  boot <id> [none|mem|mem+ipi|all]        boot Kitten under covirt features
  list                                    list enclaves
  status <id>                             covirt status (exits, EPT, IPIs) + supervision
  qstats <id>                             ingest stats (epochs, flushes) + per-core queue depth
  ping <id>                               control-channel liveness check
  addmem <id> <node> <MB>                 hot-add memory
  addcpu <id> <node>                      hot-add a core
  rmcpu <id> <core>                       hot-remove a core
  run <id>                                run a demo computation task
  console <id>                            dump the enclave's console
  caps [id]                               list live capabilities (all holders, or one enclave)
  revoke <capid>                          revoke a capability (and everything delegated from it)
  inject <id> wild|df|ipi                 inject a fault
  supervise <id> [maxRestarts]            put the enclave under watchdog supervision
  scan [n]                                run n watchdog scans (default 1) and report
  destroy <id>                            tear an enclave down
  fleet <n> [seed]                        boot a simulated n-node fleet (cluster verbs below)
  nodes                                   fleet node table: state, version, free cores/mem
  place <app> <members> <cores> <MB>      gang-place an app across the fleet
  drain <node>                            migrate a fleet node's members away and cordon it
  undrain <node>                          re-admit a drained fleet node
  help                                    this text
  quit                                    exit`

func (sh *shell) enclave(idStr string) (*pisces.Enclave, error) {
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, fmt.Errorf("bad enclave id %q", idStr)
	}
	enc := sh.host.Pisces.Enclave(id)
	if enc == nil {
		return nil, fmt.Errorf("no enclave %d", id)
	}
	return enc, nil
}

func (sh *shell) exec(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Println(helpText)

	case "create":
		if len(args) < 4 {
			return fmt.Errorf("usage: create <name> <cores> <node|0,1> <MB>")
		}
		ncores, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		var nodes []int
		for _, ns := range strings.Split(args[2], ",") {
			n, err := strconv.Atoi(ns)
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
		}
		mb, err := strconv.Atoi(args[3])
		if err != nil {
			return err
		}
		heartbeat := len(args) > 4 && args[4] == "hb"
		spec := pisces.EnclaveSpec{
			Name: args[0], NumCores: ncores, Nodes: nodes, MemBytes: uint64(mb) << 20,
			Heartbeat: heartbeat,
		}
		enc, err := sh.host.Pisces.CreateEnclave(spec)
		if err != nil {
			return err
		}
		sh.specs[enc.ID] = spec
		extra := ""
		if heartbeat {
			extra = ", heartbeat page armed"
		}
		fmt.Printf("enclave %d created: cores %v, %s%s\n", enc.ID, enc.Cores, fmtExtents(enc.Mem()), extra)

	case "boot":
		if len(args) < 1 {
			return fmt.Errorf("usage: boot <id> [features]")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		feat := covirt.FeaturesNone
		if len(args) > 1 {
			if feat, err = featureSet(args[1]); err != nil {
				return err
			}
		}
		// The Guest declaration doubles as the restart recipe: ReplaceGuest
		// reboots from it verbatim, so carry the create-time spec over.
		spec := sh.specs[enc.ID]
		g := testbed.Guest{
			Name: enc.Name, Cores: spec.NumCores, Nodes: spec.Nodes,
			MemBytes: spec.MemBytes, Features: &feat, Heartbeat: spec.Heartbeat,
		}
		be, err := sh.node.BootInto(enc, g)
		if err != nil {
			return err
		}
		sh.kernels[enc.ID] = be.Kitten
		sh.encs[enc.ID] = be
		fmt.Printf("enclave %d booted under covirt %q\n", enc.ID, feat)

	case "list":
		encs := sh.host.Pisces.Enclaves()
		sort.Slice(encs, func(i, j int) bool { return encs[i].ID < encs[j].ID })
		for _, e := range encs {
			fmt.Printf("%3d  %-12s %-8s cores=%v mem=%s covirt=%q\n",
				e.ID, e.Name, e.State(), e.Cores, fmtExtents(e.Mem()), sh.ctrl.FeaturesFor(e.ID))
		}
		if len(encs) == 0 {
			fmt.Println("(no enclaves)")
		}

	case "status":
		if len(args) < 1 {
			return fmt.Errorf("usage: status <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		stAny, err := sh.host.Pisces.Ioctl(covirt.IoctlStatus, enc.ID)
		if err == nil {
			st := stAny.(*covirt.Status)
			fmt.Printf("features: %q\nEPT: %d bytes in %d mappings (4K=%d 2M=%d 1G=%d)\n",
				st.Features, st.EPT.Bytes, st.EPT.Pages(), st.EPT.Mapped4K, st.EPT.Mapped2M, st.EPT.Mapped1G)
			fmt.Printf("exits: %v (cycles %d)\ndropped IPIs: %d, map/unmap/flush: %d/%d/%d\n",
				st.Exits, st.ExitCycles, st.DroppedIPIs, st.MapOps, st.UnmapOps, st.FlushCmds)
		}
		// A quarantined or torn-down enclave has no covirt state left, but
		// its supervision record explains what happened to it.
		supervised := false
		if sh.sup != nil {
			for _, ss := range sh.sup.Statuses() {
				if ss.EnclaveID != enc.ID {
					continue
				}
				supervised = true
				fmt.Printf("supervision: %s, failures=%d restarts=%d lastBeat=%d",
					ss.State, ss.Failures, ss.Restarts, ss.LastBeat)
				if ss.LastReason != "" {
					fmt.Printf(", last failure: %s", ss.LastReason)
				}
				fmt.Println()
			}
		}
		if err != nil && !supervised {
			return err
		}

	case "qstats":
		if len(args) < 1 {
			return fmt.Errorf("usage: qstats <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		qsAny, err := sh.host.Pisces.Ioctl(covirt.IoctlQueueStats, enc.ID)
		if err != nil {
			return err
		}
		qs := qsAny.(*covirt.QueueStats)
		in := qs.Ingest
		fmt.Printf("events=%d epochs=%d (issued %d)\n", in.Events, in.Epochs, qs.EpochIssued)
		fmt.Printf("flush cmds: %d issued, %d coalesced away\n", in.FlushCmds, in.FlushCmdsSaved)
		cores := make([]int, 0, len(qs.Depth))
		for c := range qs.Depth {
			cores = append(cores, c)
		}
		sort.Ints(cores)
		for _, c := range cores {
			fmt.Printf("  core %-3d depth=%-4d epoch applied=%d\n", c, qs.Depth[c], qs.EpochApplied[c])
		}

	case "ping":
		if len(args) < 1 {
			return fmt.Errorf("usage: ping <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		if err := sh.host.Pisces.Ping(enc); err != nil {
			return err
		}
		fmt.Println("pong")

	case "addmem":
		if len(args) < 3 {
			return fmt.Errorf("usage: addmem <id> <node> <MB>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		node, _ := strconv.Atoi(args[1])
		mb, _ := strconv.Atoi(args[2])
		ext, err := sh.host.Pisces.AddMemory(enc, node, uint64(mb)<<20)
		if err != nil {
			return err
		}
		fmt.Printf("added %v\n", ext)

	case "addcpu":
		if len(args) < 2 {
			return fmt.Errorf("usage: addcpu <id> <node>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		node, _ := strconv.Atoi(args[1])
		core, err := sh.host.Pisces.AddCPU(enc, node)
		if err != nil {
			return err
		}
		fmt.Printf("added core %d\n", core)

	case "rmcpu":
		if len(args) < 2 {
			return fmt.Errorf("usage: rmcpu <id> <core>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		core, _ := strconv.Atoi(args[1])
		if err := sh.host.Pisces.RemoveCPU(enc, core); err != nil {
			return err
		}
		fmt.Printf("removed core %d\n", core)

	case "run":
		if len(args) < 1 {
			return fmt.Errorf("usage: run <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		k := sh.kernels[enc.ID]
		if k == nil {
			return fmt.Errorf("enclave %d not booted by this shell", enc.ID)
		}
		task, err := k.Spawn("demo", 0, func(e *kitten.Env) error {
			buf := e.Alloc(e.CPU.Node, 8<<20)
			defer e.Free(buf)
			e.Stream(buf.Start, buf.Size, true)
			e.Compute(1_000_000)
			return e.WriteConsole("demo task done\n")
		})
		if err != nil {
			return err
		}
		if err := task.Wait(); err != nil {
			return err
		}
		fmt.Println("task completed")

	case "console":
		if len(args) < 1 {
			return fmt.Errorf("usage: console <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		fmt.Print(sh.host.Console(enc.ID))

	case "caps":
		auth := sh.host.Pisces.Auth
		holders := auth.Holders()
		if len(args) > 0 {
			id, err := strconv.Atoi(args[0])
			if err != nil {
				return fmt.Errorf("bad holder id %q", args[0])
			}
			holders = []int{id}
		}
		total := 0
		for _, h := range holders {
			infos := auth.CapsOf(h)
			total += len(infos)
			for _, in := range infos {
				parent := "-"
				if in.Parent != 0 {
					parent = strconv.FormatUint(in.Parent, 10)
				}
				fmt.Printf("%4d  holder=%-3d %-6s rights=%-7s parent=%-4s %-24s %s\n",
					in.Cap.ID, in.Cap.Holder, in.Cap.Kind, in.Cap.Rights,
					parent, in.Scope.String(in.Cap.Kind), in.Label)
			}
		}
		if total == 0 {
			fmt.Println("(no live capabilities)")
		}

	case "revoke":
		if len(args) < 1 {
			return fmt.Errorf("usage: revoke <capid>")
		}
		capID, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad capability id %q", args[0])
		}
		c, ok := sh.host.Pisces.Auth.Lookup(capID)
		if !ok {
			return fmt.Errorf("no live capability %d", capID)
		}
		before := len(sh.host.Pisces.Auth.CapsOf(c.Holder))
		if err := sh.host.Master.RevokeCap(c); err != nil {
			return err
		}
		after := len(sh.host.Pisces.Auth.CapsOf(c.Holder))
		fmt.Printf("capability %d revoked (%s held by %d; holder's live keys %d -> %d)\n",
			capID, c.Kind, c.Holder, before, after)

	case "inject":
		if len(args) < 2 {
			return fmt.Errorf("usage: inject <id> wild|df|ipi")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		k := sh.kernels[enc.ID]
		if k == nil {
			return fmt.Errorf("enclave %d not booted by this shell", enc.ID)
		}
		var fn func(e *kitten.Env) error
		switch args[1] {
		case "wild":
			fn = func(e *kitten.Env) error { return e.RawWrite64(0x40, 0xBAD) }
		case "df":
			fn = func(e *kitten.Env) error { return e.CPU.RaiseDoubleFault("injected") }
		case "ipi":
			fn = func(e *kitten.Env) error { return e.SendIPIRaw(0, 0x99) }
		default:
			return fmt.Errorf("unknown fault %q", args[1])
		}
		task, err := k.Spawn("inject", 0, fn)
		if err != nil {
			return err
		}
		werr := task.Wait()
		fmt.Printf("fault result: %v\nenclave: %v, node crashed: %v\n", werr, enc.State(), sh.machine.Crashed())

	case "supervise":
		if len(args) < 1 {
			return fmt.Errorf("usage: supervise <id> [maxRestarts]")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		be := sh.encs[enc.ID]
		if be == nil {
			return fmt.Errorf("enclave %d not booted by this shell", enc.ID)
		}
		maxRestarts := 3
		if len(args) > 1 {
			if maxRestarts, err = strconv.Atoi(args[1]); err != nil {
				return err
			}
		}
		if sh.sup == nil {
			sh.buf = sh.node.EnableTracing(4096)
			sh.sup = supervisor.New(sh.node, supervisor.Options{Seed: 1, Tracer: sh.buf})
		}
		pol := supervisor.Policy{MaxRestarts: maxRestarts, JitterPct: 10}
		if err := sh.sup.Watch(be, pol); err != nil {
			return err
		}
		hbNote := "crash supervision only (no heartbeat page)"
		if be.Guest.Heartbeat {
			hbNote = "crash + hang supervision (heartbeat armed)"
		}
		fmt.Printf("enclave %d supervised: restart budget %d, %s\n", enc.ID, maxRestarts, hbNote)

	case "scan":
		if sh.sup == nil {
			return fmt.Errorf("nothing supervised yet (try supervise <id>)")
		}
		n := 1
		if len(args) > 0 {
			var err error
			if n, err = strconv.Atoi(args[0]); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			if err := sh.sup.Scan(); err != nil {
				return err
			}
		}
		// Restarted enclaves come back under fresh IDs: re-sync the
		// shell's per-ID maps from the node's authoritative list.
		sh.resync()
		for _, st := range sh.sup.Statuses() {
			fmt.Printf("%-12s id=%-3d %-15s failures=%d restarts=%d lastBeat=%d",
				st.Name, st.EnclaveID, st.State, st.Failures, st.Restarts, st.LastBeat)
			if st.LastReason != "" {
				fmt.Printf("  last: %s", st.LastReason)
			}
			fmt.Println()
		}
		if counts := sh.buf.KindCounts("sup:"); len(counts) > 0 {
			kinds := make([]string, 0, len(counts))
			for k := range counts {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			var parts []string
			for _, k := range kinds {
				parts = append(parts, fmt.Sprintf("%s=%d", strings.TrimPrefix(k, "sup:"), counts[k]))
			}
			fmt.Printf("supervision events: %s\n", strings.Join(parts, " "))
		}

	case "destroy":
		if len(args) < 1 {
			return fmt.Errorf("usage: destroy <id>")
		}
		enc, err := sh.enclave(args[0])
		if err != nil {
			return err
		}
		if err := sh.host.Pisces.Destroy(enc); err != nil {
			return err
		}
		delete(sh.kernels, enc.ID)
		delete(sh.encs, enc.ID)
		delete(sh.specs, enc.ID)
		fmt.Printf("enclave %d destroyed, resources reclaimed\n", enc.ID)

	case "fleet":
		if len(args) < 1 {
			return fmt.Errorf("usage: fleet <n> [seed]")
		}
		if sh.fleet != nil {
			return fmt.Errorf("fleet already booted (%d nodes)", len(sh.fleet.Nodes))
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		var seed uint64 = 1
		if len(args) > 1 {
			if seed, err = strconv.ParseUint(args[1], 10, 64); err != nil {
				return err
			}
		}
		fl, err := cluster.New(cluster.Options{Nodes: n, Seed: seed})
		if err != nil {
			return err
		}
		sh.fleet = fl
		fmt.Printf("fleet booted: %d nodes, %d registry shards, fabric seed %d\n",
			len(fl.Nodes), fl.Opt.Shards, seed)

	case "nodes":
		if sh.fleet == nil {
			return fmt.Errorf("no fleet booted yet (try fleet <n>)")
		}
		for _, st := range sh.fleet.Status() {
			encs := "-"
			if len(st.Enclaves) > 0 {
				encs = strings.Join(st.Enclaves, ",")
			}
			fmt.Printf("%4d  %-8s v%-2d cores=%d mem=%dMB  %s\n",
				st.ID, st.State, st.Version, st.FreeCores, st.FreeMem>>20, encs)
		}

	case "place":
		if len(args) < 4 {
			return fmt.Errorf("usage: place <app> <members> <cores> <MB>")
		}
		if sh.fleet == nil {
			return fmt.Errorf("no fleet booted yet (try fleet <n>)")
		}
		members, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		ncores, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		mb, err := strconv.Atoi(args[3])
		if err != nil {
			return err
		}
		app := cluster.App{Name: args[0]}
		for i := 0; i < members; i++ {
			app.Members = append(app.Members, cluster.Member{
				Name: fmt.Sprintf("m%d", i), Cores: ncores, MemBytes: uint64(mb) << 20,
			})
		}
		pl, err := sh.fleet.Place(app)
		if err != nil {
			return err
		}
		fmt.Printf("placed %s (placement %d, app key %d):\n", app.Name, pl.ID, pl.AppKey.ID)
		for _, m := range pl.Members {
			fmt.Printf("  %-20s node=%-3d enclave=%-3d key=%d\n",
				m.Member.Name, m.Node, m.Enc.Enc.ID, m.Key.ID)
		}

	case "drain":
		if len(args) < 1 {
			return fmt.Errorf("usage: drain <node>")
		}
		if sh.fleet == nil {
			return fmt.Errorf("no fleet booted yet (try fleet <n>)")
		}
		node, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		moved, err := sh.fleet.Drain(node)
		if err != nil {
			return err
		}
		fmt.Printf("node %d drained: %d member(s) migrated\n", node, moved)

	case "undrain":
		if len(args) < 1 {
			return fmt.Errorf("usage: undrain <node>")
		}
		if sh.fleet == nil {
			return fmt.Errorf("no fleet booted yet (try fleet <n>)")
		}
		node, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		sh.fleet.Undrain(node)
		fmt.Printf("node %d re-admitted\n", node)

	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// resync rebuilds the shell's per-enclave-ID maps from the node's
// authoritative enclave list. A supervised restart replaces a dead enclave
// with a fresh one under a new ID, so the old keys go stale after a scan.
// Create-time specs stay keyed by the original ID; restarts reboot from
// the Guest declaration, which already carries the spec.
func (sh *shell) resync() {
	sh.kernels = make(map[int]*kitten.Kernel)
	sh.encs = make(map[int]*testbed.Enclave)
	for _, be := range sh.node.Encs {
		sh.encs[be.Enc.ID] = be
		if be.Kitten != nil {
			sh.kernels[be.Enc.ID] = be.Kitten
		}
	}
}

// fmtExtents renders a memory assignment compactly.
func fmtExtents(exts []hw.Extent) string {
	var parts []string
	for _, e := range exts {
		parts = append(parts, fmt.Sprintf("%dMB@n%d", e.Size>>20, e.Node))
	}
	return strings.Join(parts, "+")
}

func main() {
	sh, err := newShell()
	if err != nil {
		fmt.Fprintln(os.Stderr, "enclavectl:", err)
		os.Exit(1)
	}
	fmt.Println("enclavectl — simulated Pisces/Covirt node (type 'help')")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("covirt> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}
