package main

import (
	"errors"
	"strings"
)

// selfShareLayers are the packages whose profile self time is reported as
// <layer>.self_share.
var selfShareLayers = []string{
	"workloads", "kitten", "hw", "vmx", "covirt", "pisces", "hobbes",
	"authority", "xemem", "linuxhost", "runtime",
}

// layerMetrics fills the per-layer metrics of a traced run from its loop p
// (every other job traced), the spans, the CPU profile and the runtime
// counters of the loop. Counter figures are medians per traced job.
func layerMetrics(m map[string]metric, p *phase, tr *tracer, prof []byte, rt runtimeSample) error {
	var ok, plain []*jobRecord
	for _, rec := range p.ok() {
		if rec.job.traced() {
			ok = append(ok, rec)
		} else {
			plain = append(plain, rec)
		}
	}
	perJob := func(f func(c *counters) uint64) float64 {
		xs := make([]float64, len(ok))
		for i, rec := range ok {
			xs[i] = float64(f(&rec.job.ctr))
		}
		return median(xs)
	}
	sum := func(f func(c *counters) uint64) float64 {
		var s float64
		for _, rec := range ok {
			s += float64(f(&rec.job.ctr))
		}
		return s
	}
	hostS := func(o op) float64 {
		xs := make([]float64, len(ok))
		for i, rec := range ok {
			xs[i] = rec.job.hostS[o]
		}
		return median(xs)
	}
	fig := func(name string) float64 {
		return median(simValues(p, func(o *outcome) float64 { return o.fig[name] }))
	}
	spans := func(o op, name string) {
		d := tr.durations(o)
		m[name+"_s_p50"] = metric{quantile(d, 0.5), "s"}
		m[name+"_s_p90"] = metric{quantile(d, 0.9), "s"}
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}

	m["testbed.build_s"] = metric{hostS(opBuild), "s"}
	m["testbed.close_s"] = metric{hostS(opClose), "s"}
	m["workloads.run_s"] = metric{hostS(opRun), "s"}
	m["kitten.ticks"] = metric{perJob(func(c *counters) uint64 { return c.ticks }), "count"}

	var jobHost float64
	for _, rec := range ok {
		jobHost += rec.wallS
	}
	simCycles := sum(func(c *counters) uint64 { return c.simCycles })
	m["hw.sim_cycles"] = metric{perJob(func(c *counters) uint64 { return c.simCycles }), "cycles"}
	m["hw.sim_cycles_per_host_s"] = metric{simCycles / jobHost, "cycles/s"}
	m["hw.tlb_misses"] = metric{perJob(func(c *counters) uint64 { return c.tlbMisses }), "count"}
	m["hw.tlb_hit_ratio"] = metric{ratio(sum(func(c *counters) uint64 { return c.tlbHits }),
		sum(func(c *counters) uint64 { return c.tlbMisses })), "ratio"}
	m["hw.irqs"] = metric{perJob(func(c *counters) uint64 { return c.irqs }), "count"}
	m["hw.nmis"] = metric{perJob(func(c *counters) uint64 { return c.nmis }), "count"}

	m["vmx.exits"] = metric{perJob(func(c *counters) uint64 { return c.exits }), "count"}
	for _, reason := range exitReasons {
		m["vmx.exits."+strings.ToLower(reason)] = metric{perJob(func(c *counters) uint64 { return c.exitReasons[reason] }), "count"}
	}
	m["vmx.exit_cycles"] = metric{perJob(func(c *counters) uint64 { return c.exitCycles }), "cycles"}
	m["vmx.ept_leaves_4k"] = metric{perJob(func(c *counters) uint64 { return c.ept.Mapped4K }), "count"}
	m["vmx.ept_leaves_2m"] = metric{perJob(func(c *counters) uint64 { return c.ept.Mapped2M }), "count"}
	m["vmx.ept_leaves_1g"] = metric{perJob(func(c *counters) uint64 { return c.ept.Mapped1G }), "count"}
	m["workloads.sim_s"] = metric{median(simValues(p, func(o *outcome) float64 { return o.simS })), "s"}
	m["vmx.native_gap_s"] = metric{fig("native_gap_s"), "s"}
	m["vmx.sim_overhead_pct"] = metric{fig("overhead_pct"), "%"}

	m["covirt.events"] = metric{perJob(func(c *counters) uint64 { return c.events }), "count"}
	m["covirt.epochs"] = metric{perJob(func(c *counters) uint64 { return c.epochs }), "count"}
	m["covirt.flush_cmds"] = metric{perJob(func(c *counters) uint64 { return c.flushCmds }), "count"}
	m["covirt.flush_saved_ratio"] = metric{ratio(sum(func(c *counters) uint64 { return c.flushSaved }),
		sum(func(c *counters) uint64 { return c.flushCmds })), "ratio"}
	m["covirt.stall_cycles"] = metric{perJob(func(c *counters) uint64 { return c.stallCycles }), "cycles"}
	m["covirt.admission_waits"] = metric{perJob(func(c *counters) uint64 { return c.admissionWaits }), "count"}
	m["covirt.map_ops"] = metric{perJob(func(c *counters) uint64 { return c.mapOps }), "count"}
	m["covirt.unmap_ops"] = metric{perJob(func(c *counters) uint64 { return c.unmapOps }), "count"}
	m["covirt.sim_apply_p99_us"] = metric{fig("apply_p99_us"), "us"}
	m["covirt.sim_events_per_s"] = metric{fig("events_per_s"), "1/s"}

	spans(opAddMemory, "pisces.add_memory")
	spans(opRemoveMemory, "pisces.remove_memory")
	spans(opRemoveBatch, "pisces.remove_batch")
	var piscesFailed float64
	for _, rec := range p.jobs {
		var he *hangError
		var ce *callError
		failed := numOps
		switch {
		case errors.As(rec.err, &he):
			failed = he.op
		case errors.As(rec.err, &ce):
			failed = ce.op
		}
		if failed == opAddMemory || failed == opRemoveMemory || failed == opRemoveBatch {
			piscesFailed++
		}
	}
	m["pisces.calls_failed"] = metric{piscesFailed, "count"}

	m["hobbes.events"] = metric{perJob(func(c *counters) uint64 { return c.busEvents }), "count"}
	m["hobbes.event_cost_cycles"] = metric{perJob(func(c *counters) uint64 { return c.busCost }), "cycles"}
	m["authority.verifies"] = metric{perJob(func(c *counters) uint64 { return c.verifies }), "count"}
	m["authority.denies"] = metric{perJob(func(c *counters) uint64 { return c.denies }), "count"}
	spans(opXemAttach, "xemem.attach")
	spans(opXemDetach, "xemem.detach")

	jobs := float64(len(p.jobs)) // the runtime counters span the whole loop
	m["runtime.allocs_per_job"] = metric{float64(rt.allocs) / jobs, "count"}
	m["runtime.alloc_bytes_per_job"] = metric{float64(rt.allocBytes) / jobs, "B"}
	m["runtime.gc_cycles_per_job"] = metric{float64(rt.gcCycles) / jobs, "count"}
	m["runtime.gc_pause_s"] = metric{rt.gcPause.Seconds() / jobs, "s"}
	m["runtime.sched_latency_s_p90"] = metric{histQuantile(rt.schedLat, 0.9), "s"}
	m["runtime.mutex_wait_s"] = metric{rt.mutexWait / jobs, "s"}

	self, total, err := selfSamples(prof)
	if err != nil {
		return err
	}
	for _, layer := range selfShareLayers {
		share := 0.0
		if total > 0 {
			share = float64(self[layer]) / float64(total)
		}
		m[layer+".self_share"] = metric{share, "share"}
	}
	m["profile.samples"] = metric{float64(total), "count"}

	// Traced and untraced jobs alternate, so their CPU cost per job gives
	// the tracing overhead under the same machine conditions.
	rate := func(recs []*jobRecord) float64 {
		var cpu float64
		for _, rec := range recs {
			cpu += rec.cpuS * rec.scale
		}
		if cpu == 0 {
			return 0
		}
		return float64(len(recs)) / cpu
	}
	traced, untraced := rate(ok), rate(plain)
	m["trace.jobs_per_cpu_s"] = metric{traced, "1/s"}
	m["trace.untraced_jobs_per_cpu_s"] = metric{untraced, "1/s"}
	overhead := 0.0
	if traced > 0 {
		overhead = (untraced/traced - 1) * 100
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	return nil
}
