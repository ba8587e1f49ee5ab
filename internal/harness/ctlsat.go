package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"covirt/internal/covirt"
	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/testbed"
	"covirt/internal/workloads"
)

func init() {
	All = append(All, Experiment{
		ID:    "ctl-saturation",
		Title: "Extension: control-plane saturation — batched ingest + epoch-coalesced shootdowns vs per-event apply",
		Run:   RunCtlSaturation,
	})
}

// ctlSatBatch is the submission batch size of the batched leg: each batch
// becomes one shootdown epoch (one merged flush per core) instead of one
// flush per event per core.
const ctlSatBatch = 32

// ctlSatPairs is the number of add/remove pairs driven per enclave.
const ctlSatPairs = 256

// ctlSatEnclaves returns the enclave count per leg: every enclave is an
// independent node job, so the stock tier stays interactive while the full
// tier drives the tentpole scale (2048 enclaves x 512 events x 2 legs ≈
// 2M control-plane events).
func ctlSatEnclaves(opt Options) int {
	if opt.Full {
		return 2048
	}
	return 16
}

// ctlSatMode is one leg of the saturation comparison.
type ctlSatMode struct {
	name  string
	batch int // events per submission batch (1 = the per-event baseline)
}

// RunCtlSaturation drives resource-assignment storms (memory grant +
// revoke pairs) through the full Hobbes→Covirt control plane and compares
// the per-event baseline against batched ingest. Every metric derives from
// simulated cycles charged on the event path — per-enclave jobs are
// deterministic, so the table is byte-identical at any -parallel. Apply
// latency is the cycle cost a revoke event accumulates across the
// controller's unmap + shootdown path; events/sec is the event count over
// the control plane's busy cycles. Repetitions would reproduce identical
// rows (the path is fully deterministic), so each leg runs once.
func RunCtlSaturation(opt Options, w io.Writer) error {
	modes := []ctlSatMode{{"per-event", 1}, {"batched", ctlSatBatch}}
	enclaves := ctlSatEnclaves(opt)

	var jobs []*Job
	for _, m := range modes {
		for e := 0; e < enclaves; e++ {
			batch := m.batch
			jobs = append(jobs, &Job{
				Experiment: fmt.Sprintf("ctl-saturation/%s", m.name),
				Config:     CfgNative, Layout: SingleCore, Rep: e,
				Run: func(j *Job) (*workloads.Result, error) {
					return runCtlSatJob(batch, ctlSatPairs)
				},
			})
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tenclaves\tevents\tevents/sec\tp50 apply (us)\tp99 apply (us)\tflush cmds\tflush saved")
	eps := make([]float64, len(modes))
	i := 0
	for mi, m := range modes {
		var events, cycles, flushCmds, flushSaved float64
		var p50, p99 float64
		for e := 0; e < enclaves; e++ {
			r := results[i].Res
			i++
			events += r.Metric("events")
			cycles += r.Metric("ctl_cycles")
			flushCmds += r.Metric("flush_cmds")
			flushSaved += r.Metric("flush_saved")
			if v := r.Metric("p50_us"); v > p50 {
				p50 = v
			}
			if v := r.Metric("p99_us"); v > p99 {
				p99 = v
			}
		}
		eps[mi] = events / (cycles / workloads.CyclesPerSecond)
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.3f\t%.3f\t%.0f\t%.0f\n",
			m.name, enclaves, events, eps[mi], p50, p99, flushCmds, flushSaved)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "batched speedup: %.1fx events/sec over per-event\n", eps[1]/eps[0])
	return nil
}

// CtlSatLeg runs one control-plane saturation leg against a single enclave
// and returns its raw result (the bench.sh control-plane tier reports
// events/sec and p99 from it). batch 1 is the per-event baseline; larger
// values submit that many grant/revoke events per batch, one shootdown
// epoch each.
func CtlSatLeg(batch, pairs int) (*workloads.Result, error) {
	return runCtlSatJob(batch, pairs)
}

// runCtlSatJob drives one enclave's event stream: pairs memory grants each
// followed by a revoke, submitted in batches of batch events (1 = the
// per-event baseline path). It returns the control plane's cycle charges
// and queue/ingest counters.
func runCtlSatJob(batch, pairs int) (*workloads.Result, error) {
	spec := testbed.Spec{
		Machine:      hw.MachineSpec{NumNodes: 1, CoresPerNode: 5, MemPerNode: 1 << 30},
		OfflineCores: []int{1, 2, 3, 4},
		OfflineMem:   map[int]uint64{0: 256 << 20},
		Covirt:       true,
		Features:     covirt.FeaturesMem,
		Guests: []testbed.Guest{{
			Name: "ctlsat", Cores: 4, Nodes: []int{0}, MemBytes: 32 << 20,
		}},
	}
	n, err := spec.Build()
	if err != nil {
		return nil, err
	}
	defer n.Close()
	enc := n.Enc()

	// Latency probe: subscribed after the controller, so each event's Cost
	// has accumulated the full unmap + shootdown charge by the time it
	// arrives here. Revoke-side events are the apply-latency population;
	// grant-side and flush-sweep costs still count toward busy cycles.
	var applyCosts []uint64
	var ctlCycles uint64
	n.Host.Master.Bus.Subscribe(func(ev *pisces.Event) error {
		if ev.Enclave != enc {
			return nil
		}
		switch ev.Kind {
		case pisces.EvMemAddPre, pisces.EvIngestFlush:
			ctlCycles += ev.Cost
		case pisces.EvMemRemovePost:
			ctlCycles += ev.Cost
			applyCosts = append(applyCosts, ev.Cost)
		}
		return nil
	})

	fw := n.Host.Pisces
	for done := 0; done < pairs; {
		bn := batch
		if bn > pairs-done {
			bn = pairs - done
		}
		exts := make([]hw.Extent, 0, bn)
		for i := 0; i < bn; i++ {
			ext, err := fw.AddMemory(enc, 0, hw.PageSize2M)
			if err != nil {
				return nil, err
			}
			exts = append(exts, ext)
		}
		if err := fw.RemoveMemoryBatch(enc, exts); err != nil {
			return nil, err
		}
		done += bn
	}

	qs := n.Ctrl.QueueStatsFor(enc.ID)
	if qs == nil {
		return nil, fmt.Errorf("ctl-saturation: no queue stats for enclave %d", enc.ID)
	}
	return &workloads.Result{
		Name: "ctl-saturation", Threads: 1, Cycles: ctlCycles,
		Metrics: map[string]float64{
			"events":      float64(2 * pairs),
			"ctl_cycles":  float64(ctlCycles),
			"p50_us":      pctileCycles(applyCosts, 0.50) / workloads.CyclesPerSecond * 1e6,
			"p99_us":      pctileCycles(applyCosts, 0.99) / workloads.CyclesPerSecond * 1e6,
			"flush_cmds":  float64(qs.Ingest.FlushCmds),
			"flush_saved": float64(qs.Ingest.FlushCmdsSaved),
		},
	}, nil
}

// pctileCycles returns the p-quantile (0 < p <= 1) of xs by the
// nearest-rank method, without mutating xs.
func pctileCycles(xs []uint64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx])
}
