package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"covirt/internal/authority"
	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/workloads"
)

func init() {
	All = append(All, Experiment{
		ID:    "revocation",
		Title: "Extension: capability verify overhead and revocation-storm blast radius",
		Run:   RunRevocation,
	})
}

// revVerifyRounds is the attach/detach round count of the verify leg: each
// round crosses the grant path (Make already happened; Attach delegates a
// key, the controller verifies it, the co-kernel mirrors the mapping) and
// the revoke path (DetachDone kills the key).
const revVerifyRounds = 32

// revStormSizes spans the storm leg: segments exported and attached before
// the owner keys are revoked in one burst.
var revStormSizes = []int{1, 4, 16, 64}

// RunRevocation measures the two costs of the capability model.
//
// The verify leg runs an attach/detach loop with enforcement on and off:
// every capability check is counted by the table, and since checks charge
// zero simulated cycles, the two modes execute byte-identical workloads —
// the overhead of verification is O(1) table reads per protection event,
// reported as checks per attach and checks per simulated second.
//
// The storm leg exports N segments to a consumer, then revokes every
// owner key through the master's central driver: recursive revocation
// kills each consumer attach key, EvCapRevoked propagates each kill to
// the protection layer (EPT unmap + TLB shootdown), and the blast radius
// (keys killed, consumers detached, memory withdrawn, event cost) is
// reported per storm size. Both legs run on the simulated clock and are
// byte-identical at any engine parallelism.
func RunRevocation(opt Options, w io.Writer) error {
	reps := opt.reps()
	modes := []bool{true, false}

	var jobs []*Job
	for _, enforced := range modes {
		for rep := 0; rep < reps; rep++ {
			enforced := enforced
			jobs = append(jobs, &Job{
				Experiment: fmt.Sprintf("revocation/verify/enforced=%v", enforced),
				Config:     CfgCovirtMem, Layout: SingleCore, Rep: rep,
				Run: func(j *Job) (*workloads.Result, error) { return revVerifyJob(j, enforced) },
			})
		}
	}
	for _, size := range revStormSizes {
		for rep := 0; rep < reps; rep++ {
			size := size
			jobs = append(jobs, &Job{
				Experiment: fmt.Sprintf("revocation/storm/%d", size),
				Config:     CfgCovirtMem, Layout: SingleCore, Rep: rep,
				Run: func(j *Job) (*workloads.Result, error) { return revStormJob(j, size) },
			})
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "verify leg\tchecks\tper attach\tchecks/sec (M)\tdenies\tattach (us)")
	i := 0
	for _, enforced := range modes {
		var checks, perOp, rate, denies, attach []float64
		for rep := 0; rep < reps; rep++ {
			r := results[i].Res
			i++
			checks = append(checks, r.Metric("verifies"))
			perOp = append(perOp, r.Metric("verifies_per_attach"))
			rate = append(rate, r.Metric("verifies_per_sec"))
			denies = append(denies, r.Metric("denies"))
			attach = append(attach, r.Metric("attach_us"))
		}
		mode := "enforced"
		if !enforced {
			mode = "unenforced"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.2f\t%.0f\t%.1f\n",
			mode, Summarize(checks).Mean, Summarize(perOp).Mean,
			Summarize(rate).Mean/1e6, Summarize(denies).Mean, Summarize(attach).Mean)
	}
	fmt.Fprintln(tw, "storm size\tkeys revoked\tconsumers detached\tunmapped (MB)\tstorm cost (us)")
	for _, size := range revStormSizes {
		var keys, detached, mb, cost []float64
		for rep := 0; rep < reps; rep++ {
			r := results[i].Res
			i++
			keys = append(keys, r.Metric("keys_revoked"))
			detached = append(detached, r.Metric("consumers_detached"))
			mb = append(mb, r.Metric("unmapped_mb"))
			cost = append(cost, r.Metric("storm_us"))
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%.1f\n",
			size, Summarize(keys).Mean, Summarize(detached).Mean,
			Summarize(mb).Mean, Summarize(cost).Mean)
	}
	return tw.Flush()
}

// revVerifyJob measures the check count and rate of one attach/detach loop.
func revVerifyJob(j *Job, enforced bool) (*workloads.Result, error) {
	n, err := NewNode(j.Config, j.Layout, j.Opt)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	auth := n.Host.Pisces.Auth
	auth.SetEnforced(enforced)

	seg, err := n.Host.HostAlloc(0, 4<<20)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("rev.verify.%d", j.Rep)
	if _, err := n.Host.Master.Reg.Make(pisces.NameHash(name), n.Host.Pisces.RootMem, []hw.Extent{seg}); err != nil {
		return nil, err
	}

	v0, d0 := auth.Verifies.Load(), auth.Denies.Load()
	var cycles uint64
	task, err := n.K.Spawn("verify-loop", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet(name)
		if err != nil {
			return err
		}
		t0 := e.CPU.TSC
		for i := 0; i < revVerifyRounds; i++ {
			if _, err := e.XemAttach(segid); err != nil {
				return err
			}
			if err := e.XemDetach(segid); err != nil {
				return err
			}
		}
		cycles = e.CPU.TSC - t0
		return nil
	})
	if err == nil {
		err = task.Wait()
	}
	if err != nil {
		return nil, err
	}
	verifies := float64(auth.Verifies.Load() - v0)
	denies := float64(auth.Denies.Load() - d0)
	secs := workloads.Seconds(cycles)
	return &workloads.Result{
		Name: "rev-verify", Threads: 1, Cycles: cycles,
		Metrics: map[string]float64{
			"verifies":            verifies,
			"verifies_per_attach": verifies / revVerifyRounds,
			"verifies_per_sec":    verifies / secs,
			"denies":              denies,
			"attach_us":           workloads.Seconds(cycles) / revVerifyRounds * 1e6,
		},
	}, nil
}

// revStormJob exports size segments, attaches the guest to each, then
// revokes every owner key and accounts the resulting storm.
func revStormJob(j *Job, size int) (*workloads.Result, error) {
	n, err := NewNode(j.Config, j.Layout, j.Opt)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	m := n.Host.Master

	segids := make([]uint64, size)
	for i := 0; i < size; i++ {
		seg, err := n.Host.HostAlloc(0, 1<<20)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("rev.storm.%d.%d", j.Rep, i)
		s, err := m.Reg.Make(pisces.NameHash(name), n.Host.Pisces.RootMem, []hw.Extent{seg})
		if err != nil {
			return nil, err
		}
		segids[i] = s.ID
	}
	task, err := n.K.Spawn("attach-all", 0, func(e *kitten.Env) error {
		for _, segid := range segids {
			if _, err := e.XemAttach(segid); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = task.Wait()
	}
	if err != nil {
		return nil, err
	}

	// Account the storm from the bus: every killed key emits EvCapRevoked,
	// attach-key events carry the frames withdrawn from their consumer.
	var keys, detached int
	var unmapped, cost uint64
	m.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Kind != pisces.EvCapRevoked {
			return nil
		}
		keys++
		cost += ev.Cost
		if ev.Cap.Kind == authority.KindXemem && ev.Cap.Rights&authority.RightRemove == 0 {
			detached++
			for _, x := range ev.Extents {
				unmapped += x.Size
			}
		}
		return nil
	})
	for _, segid := range segids {
		oc, err := m.Reg.OwnerCapOf(segid, 0)
		if err != nil {
			return nil, err
		}
		if err := m.RevokeCap(oc); err != nil {
			return nil, err
		}
	}
	return &workloads.Result{
		Name: "rev-storm", Threads: 1, Cycles: cost,
		Metrics: map[string]float64{
			"keys_revoked":       float64(keys),
			"consumers_detached": float64(detached),
			"unmapped_mb":        float64(unmapped) / (1 << 20),
			"storm_us":           workloads.Seconds(cost) * 1e6,
		},
	}, nil
}
