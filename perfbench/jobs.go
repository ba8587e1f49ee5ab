package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"covirt/internal/authority"
	"covirt/internal/covirt"
	"covirt/internal/harness"
	"covirt/internal/hobbes"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/testbed"
	"covirt/internal/vmx"
	"covirt/internal/workloads"
)

// workload is one closed-loop job generator. BENCHMARK.json and README.md
// say why each exists.
type workload struct {
	name string
	run  func(j *jobCtx) (*outcome, error)
	// procs, when non-zero, is the GOMAXPROCS the workload runs at.
	procs int
}

var allWorkloads = []*workload{
	{name: "gups", run: runGUPS},
	// MiniFE's 4 ranks meet at a barrier several times per CG iteration. On
	// two processors every meeting parks and wakes threads, and the CPU the
	// scheduler spends on that grew with the neighbours' load: a job's CPU
	// p50 rose 18 % and its p90 28 % between runs with ~2 s and ~14 s of
	// steal. On one processor a meeting is a goroutine switch, and the CPU
	// per job read the same as on two processors with a quiet machine.
	{name: "minife", run: runMiniFE, procs: 1},
	{name: "xemem-churn", run: runXememChurn},
	// Not in BENCHMARK.json: its pisces calls hang on the control ring's
	// re-entry deadlock at this commit (README.md, Hang guard).
	{name: "ctl-churn", run: runCtlChurn},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Workload sizes; README.md gives the measurements behind each.
const (
	gupsLogTable  = 25      // 2^25-word logical table: 256 MiB, 4x the 2M TLB reach
	gupsUpdates   = 1 << 18 // per job and per leg
	minifeEdge    = 40      // 40^3 box
	minifeIters   = 20
	minifeRanks   = 4
	minifeMaxRes  = 0.2      // MiniFE's own convergence bound
	enclaveMem    = 14 << 30 // the paper's enclave, as the harness builds it
	ctlPairs      = 128      // grant/revoke pairs per ctl-churn job
	ctlMaxBatch   = 32
	ctlXememEvery = 4  // about one XEMEM round per this many storm rounds
	xemSegs       = 48 // XEMEM segments per xemem-churn job
	xemMaxBatch   = 6
)

// deadlines bound each guarded call. A control call normally returns within
// a millisecond; the ring deadlock never returns, so its deadline sets how
// much run time one hang costs.
type deadlines struct {
	phase time.Duration // build, workload run, close, the guest XEMEM task
	call  time.Duration // one pisces / xemem control call
}

var defaultDeadlines = deadlines{phase: 10 * time.Second, call: 250 * time.Millisecond}

// outcome is what a completed job reports.
type outcome struct {
	// replay holds the program results the replay check compares bit for
	// bit: Cycles, PerCore and Metrics.
	replay []*workloads.Result
	// simS is the simulated seconds of the job's measured phase.
	simS float64
	// fig holds the workload's own figures: its exact simulated figures of
	// merit and, for gups, the host-time gap between its two legs.
	fig map[string]float64
}

// jobCtx carries one job: its seed, its deadline guard and, in traced runs,
// the tracer and the per-layer counters it fills in.
type jobCtx struct {
	id       int
	seed     uint64
	g        *guard
	dl       deadlines
	tr       *tracer         // nil in untraced runs
	root     int32           // the job's span
	cur      int32           // the innermost open guarded call's span
	hostS    [numOps]float64 // wall seconds per op, summed over the job
	ctr      counters
	buildCPU float64 // process CPU seconds spent in testbed.Spec.Build
}

func newJob(id int, seed uint64, dl deadlines, tr *tracer) *jobCtx {
	j := &jobCtx{id: id, seed: seed, g: new(guard), dl: dl, tr: tr}
	j.root = tr.open(opJob, id, -1)
	return j
}

func (j *jobCtx) traced() bool { return j.tr != nil }

// call runs fn as the guarded public call o under deadline d.
func (j *jobCtx) call(o op, d time.Duration, fn func() error) error {
	g := j.g
	if g.abandoned.Load() {
		return errAbandoned
	}
	g.attempted.Add(1)
	sp := j.tr.open(o, j.id, j.root)
	j.cur = sp
	start := time.Now()
	g.op.Store(uint32(o))
	g.budget.Store(int64(d))
	g.deadline.Store(start.Add(d).UnixNano())
	err := fn()
	g.deadline.Store(0)
	if g.abandoned.Load() {
		return errAbandoned
	}
	j.hostS[o] += time.Since(start).Seconds()
	j.tr.close(sp)
	if err != nil {
		g.failed.Add(1)
		return &callError{o, err}
	}
	return nil
}

// callError is a guarded call that returned an error.
type callError struct {
	op  op
	err error
}

func (e *callError) Error() string { return fmt.Sprintf("%s: %v", e.op, e.err) }
func (e *callError) Unwrap() error { return e.err }

// nested times fn as call o inside the guarded call now open; the open
// call's deadline covers it.
func (j *jobCtx) nested(o op, fn func() error) error {
	sp := j.tr.open(o, j.id, j.cur)
	start := time.Now()
	err := fn()
	j.hostS[o] += time.Since(start).Seconds()
	j.tr.close(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", o, err)
	}
	return nil
}

// checkError is an output check that failed: the job ran, but its result
// is wrong.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// build builds spec as a guarded call.
func (j *jobCtx) build(spec testbed.Spec) (*testbed.Node, error) {
	var n *testbed.Node
	cpu0 := cpuSeconds()
	err := j.call(opBuild, j.dl.phase, func() error {
		var err error
		n, err = spec.Build()
		return err
	})
	j.buildCPU += cpuSeconds() - cpu0
	return n, err
}

// close closes n as a guarded call, then folds the node's hardware counters
// into the job's (the core goroutines have exited by then).
func (j *jobCtx) close(n *testbed.Node) error {
	enc := n.Enc() // Close forgets the node's enclaves
	if err := j.call(opClose, j.dl.phase, func() error { n.Close(); return nil }); err != nil {
		return err
	}
	if j.traced() {
		j.ctr.addHW(enc.CPUs())
	}
	return nil
}

// runOn builds spec, runs w on its first guest over threads ranks and
// closes the node. A workload error is its own verification failing.
func (j *jobCtx) runOn(spec testbed.Spec, w workloads.Runner, threads int) (*workloads.Result, error) {
	n, err := j.build(spec)
	if err != nil {
		return nil, err
	}
	bus := j.watchBus(n)
	var res *workloads.Result
	var runErr error
	err = j.call(opRun, j.dl.phase, func() error {
		res, runErr = w.Run(n.Kitten(), threads)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.collect(n, bus)
	if err := j.close(n); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, &checkError{runErr.Error()}
	}
	return res, nil
}

func guestSpec(name string, cfg harness.Config, layout harness.Layout) testbed.Spec {
	return testbed.Spec{
		Covirt:   cfg.Covirt,
		Features: cfg.Features,
		Guests: []testbed.Guest{{
			Name: name, Cores: layout.Cores, Nodes: layout.Nodes, MemBytes: enclaveMem,
		}},
	}
}

// runGUPS is one seed's Fig. 5b pair: RandomAccess natively, then under
// covirt-mem+ipi-vapic, on a single core.
func runGUPS(j *jobCtx) (*outcome, error) {
	var res [2]*workloads.Result
	var runS [2]float64
	for i, cfg := range []harness.Config{harness.CfgNative, harness.CfgCovirtVAPIC} {
		before := j.hostS[opRun]
		w := &workloads.RandomAccess{LogTableSize: gupsLogTable, Updates: gupsUpdates, Seed: j.seed}
		r, err := j.runOn(guestSpec("gups-"+cfg.Name, cfg, harness.SingleCore), w, 1)
		if err != nil {
			return nil, err
		}
		if r.Metric("updates") != gupsUpdates || r.Cycles == 0 {
			return nil, checkFailed("gups %s: %v updates in %d cycles", cfg.Name, r.Metric("updates"), r.Cycles)
		}
		res[i], runS[i] = r, j.hostS[opRun]-before
	}
	native, cv := res[0], res[1]
	return &outcome{
		replay: res[:],
		simS:   workloads.Seconds(cv.Cycles),
		fig: map[string]float64{
			"overhead_pct": (float64(cv.Cycles)/float64(native.Cycles) - 1) * 100,
			"native_gap_s": runS[1] - runS[0],
		},
	}, nil
}

// runMiniFE is one MiniFE solve on 4 cores over 2 NUMA nodes under
// covirt-mem.
func runMiniFE(j *jobCtx) (*outcome, error) {
	layout := harness.Layouts[1] // 4c/2n
	w := &workloads.MiniFE{NX: minifeEdge, NY: minifeEdge, NZ: minifeEdge, Iters: minifeIters, Seed: j.seed}
	r, err := j.runOn(guestSpec("minife", harness.CfgCovirtMem, layout), w, minifeRanks)
	if err != nil {
		return nil, err
	}
	res := r.Metric("residual")
	if !(res >= 0 && res < minifeMaxRes) || r.Cycles == 0 || len(r.PerCore) != minifeRanks {
		return nil, checkFailed("minife: residual %g, %d cycles over %d ranks", res, r.Cycles, len(r.PerCore))
	}
	return &outcome{replay: []*workloads.Result{r}, simS: workloads.Seconds(r.Cycles)}, nil
}

// ctlRound is one round of a ctl-churn storm: batch 2 MiB grants, then
// their revocation, per event or as one batch, optionally followed by one
// XEMEM round of a segMB MiB segment.
type ctlRound struct {
	batch    int
	perEvent bool
	xemem    bool
	segMB    uint64
}

// ctlStorm derives a job's storm from its seed: ctlPairs grant/revoke pairs
// in rounds of 1..ctlMaxBatch, each revoked per event or batched.
func ctlStorm(seed uint64) []ctlRound {
	rng := splitmix(seed ^ 0xC7C7C7C7)
	var rounds []ctlRound
	for pairs := 0; pairs < ctlPairs; {
		r := ctlRound{
			batch:    1 + int(rng.next()%ctlMaxBatch),
			perEvent: rng.next()%2 == 0,
			xemem:    rng.next()%ctlXememEvery == 0,
			segMB:    2 << (rng.next() % 3), // 2, 4 or 8 MiB
		}
		if r.batch > ctlPairs-pairs {
			r.batch = ctlPairs - pairs
		}
		pairs += r.batch
		rounds = append(rounds, r)
	}
	return rounds
}

// xememStorm derives a job's XEMEM storm from its seed: xemSegs segments of
// 2, 4 or 8 MiB, exported and attached in rounds of 1..xemMaxBatch.
func xememStorm(seed uint64) [][]uint64 {
	rng := splitmix(seed ^ 0x3E3E3E3E)
	var rounds [][]uint64
	for segs := 0; segs < xemSegs; {
		n := 1 + int(rng.next()%xemMaxBatch)
		if n > xemSegs-segs {
			n = xemSegs - segs
		}
		sizes := make([]uint64, n)
		for i := range sizes {
			sizes[i] = 2 << 20 << (rng.next() % 3)
		}
		segs += n
		rounds = append(rounds, sizes)
	}
	return rounds
}

// stormSpec is ctl-saturation's small node: 5 cores, a 4-core covirt-mem
// enclave with 32 MiB, 256 MiB offlined for grants.
func stormSpec(name string) testbed.Spec {
	return testbed.Spec{
		Machine:      hw.MachineSpec{NumNodes: 1, CoresPerNode: 5, MemPerNode: 1 << 30},
		OfflineCores: []int{1, 2, 3, 4},
		OfflineMem:   map[int]uint64{0: 256 << 20},
		Covirt:       true,
		Features:     covirt.FeaturesMem,
		Guests:       []testbed.Guest{{Name: name, Cores: 4, Nodes: []int{0}, MemBytes: 32 << 20}},
	}
}

// ctlProbe collects the control plane's simulated costs from the Hobbes
// bus, subscribed after the controller so each event's Cost holds the full
// unmap + shootdown charge, exactly as ctl-saturation measures them.
type ctlProbe struct {
	busy   atomic.Uint64 // cycles of every map, unmap and flush event
	events atomic.Uint64 // map + unmap events
	mu     sync.Mutex
	apply  []uint64 // cost of each unmap event (revoke or detach), in order
}

// runCtlChurn drives one seeded grant/revoke storm through the pisces
// control ring, with XEMEM rounds between its rounds. It is not one of
// BENCHMARK.json's workloads: at this commit the ring deadlocks on itself
// (README.md, Hang guard), so its runs count failed calls.
func runCtlChurn(j *jobCtx) (*outcome, error) {
	return j.storm("ctl-churn", func(n *testbed.Node) (uint64, error) {
		enc, fw := n.Enc(), n.Host.Pisces
		var issued uint64 // map + unmap events the storm asks for
		exts := make([]hw.Extent, 0, ctlMaxBatch)
		for ri, r := range ctlStorm(j.seed) {
			exts = exts[:0]
			for i := 0; i < r.batch; i++ {
				var ext hw.Extent
				if err := j.call(opAddMemory, j.dl.call, func() error {
					var err error
					ext, err = fw.AddMemory(enc, 0, hw.PageSize2M)
					return err
				}); err != nil {
					return 0, err
				}
				exts = append(exts, ext)
			}
			if r.perEvent {
				for _, ext := range exts {
					if err := j.call(opRemoveMemory, j.dl.call, func() error { return fw.RemoveMemory(enc, ext) }); err != nil {
						return 0, err
					}
				}
			} else if err := j.call(opRemoveBatch, j.dl.call, func() error { return fw.RemoveMemoryBatch(enc, exts) }); err != nil {
				return 0, err
			}
			issued += 2 * uint64(r.batch)
			if r.xemem {
				if err := j.xememRound(n, fmt.Sprintf("churn.%d", ri), []uint64{r.segMB << 20}); err != nil {
					return 0, err
				}
				issued += 2 // attach map + detach unmap
			}
		}
		return issued, nil
	})
}

// runXememChurn drives one seeded storm of XEMEM rounds (Fig. 4's path):
// the host exports a few segments, a guest task attaches, touches and
// detaches each, and the host removes them. Every attach and detach is a
// map or unmap event through Hobbes to the controller, and every detach an
// EPT unmap with its TLB shootdown; none of it uses the host-to-guest
// control ring.
func runXememChurn(j *jobCtx) (*outcome, error) {
	return j.storm("xemem-churn", func(n *testbed.Node) (uint64, error) {
		var issued uint64
		for ri, sizes := range xememStorm(j.seed) {
			if err := j.xememRound(n, fmt.Sprintf("churn.%d", ri), sizes); err != nil {
				return 0, err
			}
			issued += 2 * uint64(len(sizes))
		}
		return issued, nil
	})
}

// storm builds the control-plane node, runs one storm on it and checks that
// the storm left the node as it found it. The storm returns how many map
// and unmap events it asked for.
func (j *jobCtx) storm(name string, drive func(n *testbed.Node) (uint64, error)) (*outcome, error) {
	n, err := j.build(stormSpec(name))
	if err != nil {
		return nil, err
	}
	bus := j.watchBus(n)
	enc := n.Enc()
	fw := n.Host.Pisces
	reg := n.Host.Master.Reg
	k := n.Kitten()

	probe := new(ctlProbe)
	n.Host.Master.Bus.Subscribe(func(ev *hobbes.Event) error {
		if ev.Enclave != enc {
			return nil
		}
		switch ev.Kind {
		case hobbes.EvMemAddPre, hobbes.EvXememAttachPre:
			probe.events.Add(1)
			probe.busy.Add(ev.Cost)
		case hobbes.EvIngestFlush:
			probe.busy.Add(ev.Cost)
		case hobbes.EvMemRemovePost, hobbes.EvXememDetachPost:
			probe.events.Add(1)
			probe.busy.Add(ev.Cost)
			probe.mu.Lock()
			probe.apply = append(probe.apply, ev.Cost)
			probe.mu.Unlock()
		}
		return nil
	})

	pre := n.Ctrl.StatusFor(enc.ID)
	preQ := n.Ctrl.QueueStatsFor(enc.ID)
	if pre == nil || preQ == nil {
		return nil, checkFailed("%s: enclave %d is not under covirt", name, enc.ID)
	}
	preMem := k.MemMap().Bytes()
	preDenies := fw.Auth.Denies.Load()
	preSegs := reg.Count()

	issued, err := drive(n)
	if err != nil {
		return nil, err
	}

	post := n.Ctrl.StatusFor(enc.ID)
	postQ := n.Ctrl.QueueStatsFor(enc.ID)
	var bad error
	switch {
	case post.EPT != pre.EPT:
		bad = checkFailed("%s: EPT %+v after the storm, %+v before", name, post.EPT, pre.EPT)
	case k.MemMap().Bytes() != preMem:
		bad = checkFailed("%s: memory map holds %d bytes after the storm, %d before", name, k.MemMap().Bytes(), preMem)
	case postQ.Ingest.Events-preQ.Ingest.Events != issued:
		bad = checkFailed("%s: controller ingested %d events, storm issued %d", name, postQ.Ingest.Events-preQ.Ingest.Events, issued)
	case fw.Auth.Denies.Load() != preDenies:
		bad = checkFailed("%s: %d capability denials during the storm", name, fw.Auth.Denies.Load()-preDenies)
	case reg.Count() != preSegs:
		bad = checkFailed("%s: %d XEMEM segments after the storm, %d before", name, reg.Count(), preSegs)
	case probe.events.Load() != issued:
		bad = checkFailed("%s: bus carried %d map/unmap events, storm issued %d", name, probe.events.Load(), issued)
	}
	j.collect(n, bus)
	if err := j.close(n); err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}

	busy := probe.busy.Load()
	events := float64(probe.events.Load())
	apply := probe.apply
	costs := make([]float64, len(apply))
	for i, c := range apply {
		costs[i] = float64(c)
	}
	q := postQ.Ingest
	res := &workloads.Result{
		Name: name, Threads: 1, Cycles: busy,
		PerCore: apply,
		Metrics: map[string]float64{
			"events":       events,
			"flush_cmds":   float64(q.FlushCmds - preQ.Ingest.FlushCmds),
			"flush_saved":  float64(q.FlushCmdsSaved - preQ.Ingest.FlushCmdsSaved),
			"stall_cycles": float64(q.StallCycles - preQ.Ingest.StallCycles),
			"epochs":       float64(q.Epochs - preQ.Ingest.Epochs),
		},
	}
	return &outcome{
		replay: []*workloads.Result{res},
		simS:   workloads.Seconds(busy),
		fig: map[string]float64{
			"apply_p99_us": quantile(costs, 0.99) / workloads.CyclesPerSecond * 1e6,
			"events_per_s": events / workloads.Seconds(busy),
		},
	}, nil
}

// xememRound is Fig. 4's path for one or more segments: the host exports
// each of the given sizes from its own memory, one guest task attaches
// every segment, writes and reads back a word in each extent and detaches
// them in order, and the host removes the segments and frees the memory.
func (j *jobCtx) xememRound(n *testbed.Node, name string, sizes []uint64) error {
	reg := n.Host.Master.Reg
	type export struct {
		mem   hw.Extent
		id    uint64
		owner authority.Cap
	}
	segs := make([]export, len(sizes))
	for i, size := range sizes {
		mem, err := n.Host.HostAlloc(0, size)
		if err != nil {
			return err
		}
		segs[i] = export{mem: mem, owner: n.Host.Pisces.RootMem}
		s := &segs[i]
		if err := j.call(opXemExport, j.dl.call, func() error {
			seg, err := reg.Make(fnv(fmt.Sprintf("%s.%d", name, i)), s.owner, []hw.Extent{mem})
			if err == nil {
				s.id, s.owner = seg.ID, seg.OwnerCap
			}
			return err
		}); err != nil {
			return err
		}
	}
	if err := j.call(opXemTask, j.dl.phase, func() error {
		t, err := n.Kitten().Spawn("xemem", 1, func(e *kitten.Env) error {
			for _, s := range segs {
				var exts []hw.Extent
				if err := j.nested(opXemAttach, func() error {
					var err error
					exts, err = e.XemAttach(s.id)
					return err
				}); err != nil {
					return err
				}
				if len(exts) == 0 {
					return checkFailed("xemem: attach of segment %d mapped nothing", s.id)
				}
				for i, ext := range exts {
					want := s.id<<8 | uint64(i)
					e.Write64(ext.Start, want)
					if v := e.Read64(ext.Start); v != want {
						return checkFailed("xemem: segment %d extent %d read back %#x, want %#x", s.id, i, v, want)
					}
				}
			}
			for _, s := range segs {
				if err := j.nested(opXemDetach, func() error { return e.XemDetach(s.id) }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return t.Wait()
	}); err != nil {
		return err
	}
	for _, s := range segs {
		if err := j.call(opXemRemove, j.dl.call, func() error { return reg.Remove(s.id, s.owner) }); err != nil {
			return err
		}
		n.Host.HostFree(s.mem)
	}
	return nil
}

// fnv is the FNV-1a name hash XEMEM uses on the wire.
func fnv(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// splitmix is the benchmark's own seed stream (SplitMix64): the program
// only ever sees the values drawn from it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// jobSeed is the seed of the k-th job of a run with seed run. It is never
// zero, which would select a workload's legacy fixed stream.
func jobSeed(run uint64, k int) uint64 {
	s := splitmix(run*0x100000001B3 + uint64(k))
	for {
		if v := s.next(); v != 0 {
			return v
		}
	}
}

// counters are one job's per-layer counter deltas, summed over its nodes.
// Every node is fresh, so a counter's final value is its delta.
type counters struct {
	simCycles, tlbHits, tlbMisses    uint64
	irqs, nmis, ticks                uint64
	exits, exitCycles                uint64
	exitReasons                      map[string]uint64 // by metric suffix
	ept                              vmx.EPTStats
	events, epochs, flushCmds        uint64
	flushSaved, stallCycles          uint64
	admissionWaits, mapOps, unmapOps uint64
	busEvents, busCost               uint64
	verifies, denies                 uint64
}

// exitReasons lists the VMX exit reasons, named as Status.Exits keys them;
// vmx names a value past the last reason EXIT(n).
var exitReasons = func() []string {
	var out []string
	for r := vmx.ExitReason(0); r < 64 && !strings.HasPrefix(r.String(), "EXIT("); r++ {
		out = append(out, r.String())
	}
	return out
}()

// busCount counts every Hobbes bus event of a node and the management
// cycles charged to them.
type busCount struct{ events, cost atomic.Uint64 }

// watchBus subscribes a counting handler to n's bus in traced runs.
func (j *jobCtx) watchBus(n *testbed.Node) *busCount {
	if !j.traced() {
		return nil
	}
	b := new(busCount)
	n.Host.Master.Bus.Subscribe(func(ev *hobbes.Event) error {
		b.events.Add(1)
		b.cost.Add(ev.Cost)
		return nil
	})
	return b
}

// collect folds the counters a node exports while it is still up (the
// controller drops an enclave's state at close) into the job's.
func (j *jobCtx) collect(n *testbed.Node, bus *busCount) {
	if !j.traced() {
		return
	}
	c := &j.ctr
	if k := n.Kitten(); k != nil {
		c.ticks += k.Ticks.Load()
	}
	c.verifies += n.Host.Pisces.Auth.Verifies.Load()
	c.denies += n.Host.Pisces.Auth.Denies.Load()
	c.busEvents += bus.events.Load()
	c.busCost += bus.cost.Load()
	if n.Ctrl == nil {
		return
	}
	id := n.Enc().ID
	if st := n.Ctrl.StatusFor(id); st != nil {
		if c.exitReasons == nil {
			c.exitReasons = make(map[string]uint64)
		}
		for reason, v := range st.Exits {
			c.exitReasons[reason] += v
			c.exits += v
		}
		c.exitCycles += st.ExitCycles
		c.ept.Mapped4K += st.EPT.Mapped4K
		c.ept.Mapped2M += st.EPT.Mapped2M
		c.ept.Mapped1G += st.EPT.Mapped1G
		c.mapOps += st.MapOps
		c.unmapOps += st.UnmapOps
	}
	if q := n.Ctrl.QueueStatsFor(id); q != nil {
		c.events += q.Ingest.Events
		c.epochs += q.Ingest.Epochs
		c.flushCmds += q.Ingest.FlushCmds
		c.flushSaved += q.Ingest.FlushCmdsSaved
		c.stallCycles += q.Ingest.StallCycles
		c.admissionWaits += q.Ingest.AdmissionWaits
	}
}

// addHW folds an enclave's cores' hardware counters in. It runs after
// Close, once the cores' goroutines have exited.
func (c *counters) addHW(cpus []*hw.CPU) {
	for _, cpu := range cpus {
		c.simCycles += cpu.TSC
		st := cpu.TLB.Stats()
		c.tlbHits += st.Hits
		c.tlbMisses += st.Misses
		c.irqs += cpu.IRQsTaken
		c.nmis += cpu.APIC.NMICount
	}
}
