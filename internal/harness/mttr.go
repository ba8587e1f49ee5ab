package harness

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"

	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/supervisor"
	"covirt/internal/testbed"
	"covirt/internal/workloads"
)

func init() {
	All = append(All, Experiment{
		ID:    "mttr",
		Title: "Extension: supervised recovery — detection latency and MTTR per restart policy",
		Run:   RunMTTR,
	})
}

// mttrPolicy is one supervision policy under evaluation.
type mttrPolicy struct {
	name string
	pol  supervisor.Policy
}

// mttrPolicies spans the policy space: immediate restart, backed-off and
// jittered restart, and a zero budget that degrades to plain
// teardown-and-quarantine.
var mttrPolicies = []mttrPolicy{
	{"restart-fast", supervisor.Policy{MaxRestarts: 3}},
	{"restart-backoff", supervisor.Policy{MaxRestarts: 3, JitterPct: 25}},
	{"no-restart", supervisor.Policy{MaxRestarts: 0}},
}

// mttrFaults are the injected failure classes: a Covirt-contained double
// fault (hard crash) and an interrupts-disabled lockup on the boot core
// (soft hang, caught only by the heartbeat watchdog).
var mttrFaults = []string{"crash", "hang"}

// RunMTTR runs the fault-injection campaign: for every (policy, fault)
// cell a supervised enclave runs a payload, takes the injected fault, and
// the watchdog drives it back to health (or quarantine). Detection latency
// and MTTR are measured on the supervisor's virtual clock, so the table is
// byte-identical at any engine parallelism.
func RunMTTR(opt Options, w io.Writer) error {
	reps := opt.reps()
	var jobs []*Job
	for _, p := range mttrPolicies {
		for _, fault := range mttrFaults {
			for rep := 0; rep < reps; rep++ {
				p, fault := p, fault
				jobs = append(jobs, &Job{
					Experiment: "mttr/" + p.name + "/" + fault,
					Config:     CfgCovirtAll, Layout: SingleCore, Rep: rep,
					Opt: NodeOptions{EnclaveMem: 1 << 30, Heartbeat: true},
					Run: func(j *Job) (*workloads.Result, error) {
						return runMTTRJob(j, p.pol, fault)
					},
				})
			}
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tfault\tdetect (ms)\tMTTR (ms)\tMTTR min/max (ms)\trestarts\toutcome")
	i := 0
	for _, p := range mttrPolicies {
		for _, fault := range mttrFaults {
			var detect, mttr []float64
			restarts, quarantined := 0, 0
			for rep := 0; rep < reps; rep++ {
				r := results[i].Res
				i++
				detect = append(detect, r.Metric("detect_ms"))
				restarts += int(r.Metric("restarts"))
				if r.Metric("quarantined") != 0 {
					quarantined++
					continue
				}
				mttr = append(mttr, r.Metric("mttr_ms"))
			}
			d, m := Summarize(detect), Summarize(mttr)
			outcome := "recovered"
			if quarantined == reps {
				outcome = "quarantined"
			} else if quarantined > 0 {
				outcome = fmt.Sprintf("mixed (%d/%d quarantined)", quarantined, reps)
			}
			mttrCol, rangeCol := "-", "-"
			if m.N > 0 {
				mttrCol = fmt.Sprintf("%.1f", m.Mean)
				rangeCol = fmt.Sprintf("%.1f/%.1f", m.Min, m.Max)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%s\t%s\t%d\t%s\n",
				p.name, fault, d.Mean, mttrCol, rangeCol, restarts, outcome)
		}
	}
	return tw.Flush()
}

// runMTTRJob executes one fault-injection repetition end to end.
func runMTTRJob(j *Job, pol supervisor.Policy, fault string) (*workloads.Result, error) {
	n, err := NewNode(j.Config, j.Layout, j.Opt)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	tb := n.Testbed()
	buf := tb.EnableTracing(4096)
	sup := supervisor.New(tb, supervisor.Options{Seed: j.Seed(), Tracer: buf})
	// The guest beats once per scan interval (the machine timer period).
	beat := sup.ScanInterval()
	be := tb.Encs[0]
	if err := sup.Watch(be, pol); err != nil {
		return nil, err
	}

	// Baseline payload: proves the guest works and banks >= 1 heartbeat
	// (two full timer periods of charged work on the boot core).
	if err := mttrPayload(n.K, 2*beat); err != nil {
		return nil, err
	}

	switch fault {
	case "crash":
		if _, err := n.K.Spawn("inject-crash", 0, func(e *kitten.Env) error {
			return e.CPU.RaiseDoubleFault("mttr: injected double fault")
		}); err != nil {
			return nil, err
		}
		<-be.Enc.Done() // containment reported; teardown underway
	case "hang":
		if err := waitBeat(tb, be); err != nil {
			return nil, err
		}
		stall := 2 * supervisor.MissedBeats * beat
		if _, err := n.K.Spawn("inject-hang", 0, func(e *kitten.Env) error {
			return e.CPU.StallNoIRQ(stall)
		}); err != nil {
			return nil, err
		}
		waitHung(tb, be, supervisor.MissedBeats*beat)
	default:
		return nil, fmt.Errorf("mttr: unknown fault %q", fault)
	}

	// The fault is now deterministically observable: drive the watchdog to
	// a verdict.
	scans, err := sup.Settle(64)
	if err != nil {
		return nil, err
	}
	st, ok := sup.Status(be.Guest.Name)
	if !ok {
		return nil, fmt.Errorf("mttr: guest %s not supervised", be.Guest.Name)
	}

	res := &workloads.Result{
		Name: "mttr", Threads: 1, Cycles: st.RecoveredAt,
		Metrics: map[string]float64{
			"detect_ms":   float64(st.DetectedAt) / workloads.CyclesPerSecond * 1e3,
			"mttr_ms":     float64(st.RecoveredAt) / workloads.CyclesPerSecond * 1e3,
			"restarts":    float64(st.Restarts),
			"scans":       float64(scans),
			"quarantined": 0,
		},
	}
	if st.State == supervisor.Quarantined {
		if pol.MaxRestarts > 0 {
			return nil, fmt.Errorf("mttr: %s quarantined with budget %d", be.Guest.Name, pol.MaxRestarts)
		}
		res.Metrics["quarantined"] = 1
		res.Cycles = st.DetectedAt
		return res, nil
	}
	if st.State != supervisor.Healthy || st.Restarts == 0 {
		return nil, fmt.Errorf("mttr: %s not recovered: %+v", be.Guest.Name, st)
	}
	// Recovery is only real if the restarted guest does real work: rerun
	// the payload on the replacement kernel.
	if err := mttrPayload(tb.Encs[0].Kitten, 2*beat); err != nil {
		return nil, fmt.Errorf("mttr: post-recovery payload: %w", err)
	}
	return res, nil
}

// mttrPayload runs a charged compute kernel on the guest's boot core.
func mttrPayload(k *kitten.Kernel, cycles uint64) error {
	task, err := k.Spawn("payload", 0, func(e *kitten.Env) error {
		e.Compute(cycles)
		return nil
	})
	if err != nil {
		return err
	}
	return task.Wait()
}

// waitBeat blocks until the guest has published at least one heartbeat.
// The wait is on published simulated state, not wall-clock time: the boot
// core banked two timer periods of work, so a beat is inevitable once its
// idle loop services the pending timer interrupt.
func waitBeat(tb *testbed.Node, be *testbed.Enclave) error {
	io := pisces.NativeMemIO{Mem: tb.M.Mem}
	hb := be.Enc.Base() + pisces.OffHeartbeat
	for {
		n, err := io.Read64(hb + pisces.HbCount)
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
		runtime.Gosched()
	}
}

// waitHung blocks until the injected stall is observable exactly as the
// watchdog will observe it: the boot core's published TSC has outrun the
// last heartbeat stamp by thresh, the watchdog's hang threshold.
// Synchronizing on the watchdog's own predicate pins detection to the
// first scan regardless of host scheduling.
func waitHung(tb *testbed.Node, be *testbed.Enclave, thresh uint64) {
	io := pisces.NativeMemIO{Mem: tb.M.Mem}
	hb := be.Enc.Base() + pisces.OffHeartbeat
	for {
		beatTSC, err := io.Read64(hb + pisces.HbTSC)
		if err != nil {
			return
		}
		tsc := be.Enc.BootCPU().TSCSnapshot()
		if tsc > beatTSC && tsc-beatTSC >= thresh {
			return
		}
		runtime.Gosched()
	}
}
