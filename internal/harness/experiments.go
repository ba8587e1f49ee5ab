package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"covirt/internal/hw"
	"covirt/internal/kitten"
	"covirt/internal/pisces"
	"covirt/internal/workloads"
)

// Options tunes experiment execution.
type Options struct {
	// Reps is the number of repetitions per data point (the paper ran 10;
	// the default here is 3 for turnaround).
	Reps int
	// Full selects the paper's full problem sizes instead of the scaled
	// simulation defaults.
	Full bool
	// Parallel caps the engine's concurrent jobs (<= 0 selects
	// runtime.GOMAXPROCS(0)). Output is byte-identical at any setting.
	Parallel int
}

func (o Options) reps() int {
	if o.Reps <= 0 {
		return 3
	}
	return o.Reps
}

func (o Options) engine() Engine { return Engine{Workers: o.Parallel} }

// Experiment regenerates one table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(opt Options, w io.Writer) error
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"table1", "Table I: benchmark versions and parameters", RunTable1},
	{"fig3", "Fig. 3: Selfish-Detour noise profile", RunFig3},
	{"fig4", "Fig. 4: XEMEM attach delay vs region size", RunFig4},
	{"fig5a", "Fig. 5a: STREAM bandwidth", RunFig5a},
	{"fig5b", "Fig. 5b: RandomAccess (GUPS)", RunFig5b},
	{"fig6", "Fig. 6: MiniFE scaling over CPU-core/NUMA-zone layouts", RunFig6},
	{"fig7", "Fig. 7: HPCG scaling over CPU-core/NUMA-zone layouts", RunFig7},
	{"fig8", "Fig. 8: LAMMPS loop times", RunFig8},
}

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// workload constructors honouring the Full/scaled switch.

func mkStream(opt Options) *workloads.Stream {
	if opt.Full {
		return &workloads.Stream{N: 10_000_000, Iters: 10}
	}
	return &workloads.Stream{N: 1 << 20, Iters: 3}
}

func mkGUPS(opt Options) *workloads.RandomAccess {
	if opt.Full {
		return &workloads.RandomAccess{LogTableSize: 25, Updates: 1 << 22}
	}
	return &workloads.RandomAccess{LogTableSize: 25, Updates: 1 << 18}
}

func mkMiniFE(opt Options) *workloads.MiniFE {
	if opt.Full {
		return &workloads.MiniFE{NX: 250, NY: 250, NZ: 250, Iters: 50}
	}
	return &workloads.MiniFE{NX: 40, NY: 40, NZ: 40, Iters: 20}
}

func mkHPCG(opt Options) *workloads.HPCG {
	if opt.Full {
		return &workloads.HPCG{NX: 104, NY: 104, NZ: 104, Iters: 50}
	}
	return &workloads.HPCG{NX: 40, NY: 40, NZ: 40, Iters: 15}
}

func mkLammps(opt Options, p workloads.LammpsProblem) *workloads.Lammps {
	if opt.Full {
		return &workloads.Lammps{Problem: p, AtomsPerRank: 4000, Steps: 100}
	}
	return &workloads.Lammps{Problem: p, AtomsPerRank: 1000, Steps: 25}
}

// RunTable1 prints the benchmark inventory (Table I), mapped to this
// reproduction's workload implementations and parameters.
func RunTable1(opt Options, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Benchmark\tPaper version\tPaper parameters\tReproduction (scaled defaults)")
	fmt.Fprintln(tw, "Selfish Detour\t1.0.7\tnone\tworkloads.Selfish, 4e8-cycle detection loop")
	s := mkStream(opt)
	fmt.Fprintf(tw, "STREAM\t5.10\tnone\tworkloads.Stream, N=%d, %d iters\n", s.N, s.Iters)
	g := mkGUPS(opt)
	fmt.Fprintf(tw, "RandomAccess_OMP\t10/28/04\t25\tworkloads.RandomAccess, 2^%d words, %d updates\n", g.LogTableSize, g.Updates)
	h := mkHPCG(opt)
	fmt.Fprintf(tw, "HPCG\trev 3.1\t104 104 104 330\tworkloads.HPCG, %dx%dx%d, %d CG iters\n", h.NX, h.NY, h.NZ, h.Iters)
	m := mkMiniFE(opt)
	fmt.Fprintf(tw, "MiniFE\t2.0\tnx/ny/nz 250\tworkloads.MiniFE, %dx%dx%d, %d CG iters\n", m.NX, m.NY, m.NZ, m.Iters)
	l := mkLammps(opt, workloads.LJ)
	fmt.Fprintf(tw, "LAMMPS\t3 Mar 2020\tdefault run scripts\tworkloads.Lammps lj/eam/chain/chute, %d atoms/rank, %d steps\n", l.AtomsPerRank, l.Steps)
	return tw.Flush()
}

// RunFig3 reproduces the Selfish-Detour noise comparison: the detection
// loop runs under each configuration; matching profiles across
// configurations is the paper's result ("hardware level virtualization
// does not inherently increase system noise").
func RunFig3(opt Options, w io.Writer) error {
	dur := uint64(4e8)
	if opt.Full {
		dur = 4e9
	}
	configs := append(append([]Config{}, StandardConfigs...), CfgCovirtAll)
	jobs := make([]*Job, len(configs))
	for i, cfg := range configs {
		jobs[i] = &Job{Experiment: "fig3", Config: cfg, Layout: SingleCore,
			Workload: &workloads.Selfish{DurationCycles: dur}}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tdetours\tmax detour (us)\tlost time (%)\tseries (ms: us)")
	for i, cfg := range configs {
		sw := jobs[i].Workload.(*workloads.Selfish)
		r := results[i].Res
		// The figure's scatter: detour magnitude (us) at time offset (ms).
		series := ""
		for i, d := range sw.Detours {
			if i == 8 {
				series += " ..."
				break
			}
			series += fmt.Sprintf(" %.0f:%.1f",
				float64(d.AtCycle)/workloads.CyclesPerSecond*1e3,
				float64(d.Magnitude)/workloads.CyclesPerSecond*1e6)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.4f\t%s\n",
			cfg.Name,
			r.Metric("detours"),
			r.Metric("max_detour_cycles")/workloads.CyclesPerSecond*1e6,
			r.Metric("lost_fraction")*100,
			series)
	}
	return tw.Flush()
}

// RunFig4 reproduces the XEMEM attach-delay measurement: a consumer
// enclave attaches host-exported segments of growing size, sampling the
// TSC around each attach, with Covirt enabled and disabled.
func RunFig4(opt Options, w io.Writer) error {
	sizesMB := []uint64{1, 4, 16, 64, 256, 1024}
	configs := []Config{CfgNative, CfgCovirtMem}
	reps := opt.reps()

	var jobs []*Job
	for _, cfg := range configs {
		for _, mb := range sizesMB {
			for rep := 0; rep < reps; rep++ {
				mb := mb
				jobs = append(jobs, &Job{
					Experiment: "fig4", Config: cfg, Layout: SingleCore, Rep: rep,
					Run: func(j *Job) (*workloads.Result, error) { return fig4Attach(j, mb) },
				})
			}
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}

	table := make(map[string]map[uint64]Stats)
	i := 0
	for _, cfg := range configs {
		table[cfg.Name] = make(map[uint64]Stats)
		for _, mb := range sizesMB {
			var samples []float64
			for rep := 0; rep < reps; rep++ {
				samples = append(samples, results[i].Res.Metric("attach_us"))
				i++
			}
			table[cfg.Name][mb] = Summarize(samples)
		}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "region size (MB)")
	for _, cfg := range configs {
		fmt.Fprintf(tw, "\t%s attach (us)", cfg.Name)
	}
	fmt.Fprintln(tw, "\tcovirt overhead (%)")
	for _, mb := range sizesMB {
		fmt.Fprintf(tw, "%d", mb)
		for _, cfg := range configs {
			fmt.Fprintf(tw, "\t%.1f", table[cfg.Name][mb].Mean)
		}
		fmt.Fprintf(tw, "\t%+.2f\n", OverheadPct(table[CfgNative.Name][mb].Mean, table[CfgCovirtMem.Name][mb].Mean))
	}
	return tw.Flush()
}

// fig4Attach is Fig. 4's per-job measurement: the host exports a segment
// of mb MiB and the guest samples the TSC around a full XEMEM attach.
func fig4Attach(j *Job, mb uint64) (*workloads.Result, error) {
	n, err := NewNode(j.Config, j.Layout, j.Opt)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	// Host exports a segment of its own memory.
	seg, err := n.Host.HostAlloc(0, mb<<20)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("fig4.%d.%d", mb, j.Rep)
	if _, err := n.Host.Master.Reg.Make(pisces.NameHash(name), n.Host.Pisces.RootMem, []hw.Extent{seg}); err != nil {
		return nil, err
	}
	var delay uint64
	task, err := n.K.Spawn("attach", 0, func(e *kitten.Env) error {
		segid, err := e.XemGet(name)
		if err != nil {
			return err
		}
		t0 := e.CPU.TSC
		if _, err := e.XemAttach(segid); err != nil {
			return err
		}
		delay = e.CPU.TSC - t0
		return e.XemDetach(segid)
	})
	if err == nil {
		err = task.Wait()
	}
	if err != nil {
		return nil, err
	}
	return &workloads.Result{
		Name: "fig4-attach", Threads: 1, Cycles: delay,
		Metrics: map[string]float64{"attach_us": float64(delay) / workloads.CyclesPerSecond * 1e6},
	}, nil
}

// matrix enumerates reps jobs per (config, layout) cell in row-major
// order: configs outermost, then layouts, then repetitions. mk builds a
// fresh workload instance per job (workloads carry per-run state and must
// never be shared across concurrently executing jobs).
func matrix(exp string, opt Options, configs []Config, layouts []Layout, mk func() workloads.Runner) []*Job {
	reps := opt.reps()
	jobs := make([]*Job, 0, len(configs)*len(layouts)*reps)
	for _, cfg := range configs {
		for _, layout := range layouts {
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, &Job{
					Experiment: exp, Config: cfg, Layout: layout,
					Workload: mk(), Rep: rep,
				})
			}
		}
	}
	return jobs
}

// cellMeans reduces an engine result slice produced from a matrix() job
// list back to one value per (config, layout) cell: metric extracts the
// figure from each repetition, and the per-cell repetitions are averaged.
// The returned slice is cell-major in the same enumeration order.
func cellMeans(results []JobResult, reps int, metric func(*workloads.Result) float64) []float64 {
	means := make([]float64, 0, len(results)/reps)
	for i := 0; i < len(results); i += reps {
		var vals []float64
		for r := 0; r < reps; r++ {
			vals = append(vals, metric(results[i+r].Res))
		}
		means = append(means, Summarize(vals).Mean)
	}
	return means
}

// RunFig5a reproduces the STREAM comparison across configurations.
func RunFig5a(opt Options, w io.Writer) error {
	kernels := []string{"copy_GBs", "scale_GBs", "add_GBs", "triad_GBs"}
	jobs := matrix("fig5a", opt, StandardConfigs, []Layout{SingleCore},
		func() workloads.Runner { return mkStream(opt) })
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tcopy (GB/s)\tscale (GB/s)\tadd (GB/s)\ttriad (GB/s)\ttriad overhead (%)")
	var baseTriad float64
	reps := opt.reps()
	for ci, cfg := range StandardConfigs {
		stats := make(map[string][]float64)
		for rep := 0; rep < reps; rep++ {
			r := results[ci*reps+rep].Res
			for _, kn := range kernels {
				stats[kn] = append(stats[kn], r.Metric(kn))
			}
		}
		triad := Summarize(stats["triad_GBs"]).Mean
		if cfg.Name == CfgNative.Name {
			baseTriad = triad
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%+.2f\n",
			cfg.Name,
			Summarize(stats["copy_GBs"]).Mean,
			Summarize(stats["scale_GBs"]).Mean,
			Summarize(stats["add_GBs"]).Mean,
			triad,
			OverheadPct(triad, baseTriad))
	}
	return tw.Flush()
}

// RunFig5b reproduces the RandomAccess (GUPS) comparison.
func RunFig5b(opt Options, w io.Writer) error {
	jobs := matrix("fig5b", opt, StandardConfigs, []Layout{SingleCore},
		func() workloads.Runner { return mkGUPS(opt) })
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}
	means := cellMeans(results, opt.reps(), func(r *workloads.Result) float64 { return r.Metric("GUPS") })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tGUPS\toverhead (%)")
	var base float64
	for ci, cfg := range StandardConfigs {
		gups := means[ci]
		if cfg.Name == CfgNative.Name {
			base = gups
		}
		fmt.Fprintf(tw, "%s\t%.5f\t%+.2f\n", cfg.Name, gups, OverheadPct(gups, base))
	}
	return tw.Flush()
}

// runScaling shares the Fig. 6/7 structure: one workload over the given
// hardware layouts and all configurations, reporting solve time and
// overhead vs native.
func runScaling(exp string, opt Options, w io.Writer, layouts []Layout, mk func(Options) workloads.Runner) error {
	// Layouts outermost to preserve the historical row order; the engine
	// preserves enumeration order either way.
	var jobs []*Job
	reps := opt.reps()
	for _, layout := range layouts {
		for _, cfg := range StandardConfigs {
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, &Job{
					Experiment: exp, Config: cfg, Layout: layout,
					Workload: mk(opt), Rep: rep,
				})
			}
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}
	means := cellMeans(results, reps, func(r *workloads.Result) float64 { return workloads.Seconds(r.Cycles) })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layout\tconfig\ttime (s)\toverhead vs native (%)")
	cell := 0
	for _, layout := range layouts {
		var base float64
		for _, cfg := range StandardConfigs {
			mean := means[cell]
			cell++
			if cfg.Name == CfgNative.Name {
				base = mean
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%+.2f\n", layout.Name, cfg.Name, mean, OverheadPct(base, mean))
		}
	}
	return tw.Flush()
}

// RunFig6 reproduces the MiniFE scaling comparison.
func RunFig6(opt Options, w io.Writer) error {
	return runScaling("fig6", opt, w, Layouts, func(o Options) workloads.Runner { return mkMiniFE(o) })
}

// RunFig7 reproduces the HPCG scaling comparison.
func RunFig7(opt Options, w io.Writer) error {
	return runScaling("fig7", opt, w, Layouts, func(o Options) workloads.Runner { return mkHPCG(o) })
}

// RunFig8 reproduces the LAMMPS loop-time comparison (8 cores across 2
// NUMA domains, the four stock problems).
func RunFig8(opt Options, w io.Writer) error {
	problems := []workloads.LammpsProblem{workloads.LJ, workloads.EAM, workloads.Chain, workloads.Chute}
	reps := opt.reps()
	var jobs []*Job
	for _, p := range problems {
		for _, cfg := range StandardConfigs {
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, &Job{
					Experiment: "fig8", Config: cfg, Layout: EightCore,
					Workload: mkLammps(opt, p), Rep: rep,
				})
			}
		}
	}
	results := opt.engine().Run(jobs)
	if err := FirstErr(results); err != nil {
		return err
	}
	means := cellMeans(results, reps, func(r *workloads.Result) float64 { return r.Metric("loop_time_s") })
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "problem\tconfig\tloop time (s)\toverhead vs native (%)")
	cell := 0
	for _, p := range problems {
		var base float64
		for _, cfg := range StandardConfigs {
			mean := means[cell]
			cell++
			if cfg.Name == CfgNative.Name {
				base = mean
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%+.2f\n", p, cfg.Name, mean, OverheadPct(base, mean))
		}
	}
	return tw.Flush()
}
