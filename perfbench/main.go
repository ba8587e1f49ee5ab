// Command perfbench is the repository's benchmark. It drives the simulated
// co-kernel stack through one of its closed-loop workloads (gups, minife,
// xemem-churn, and ctl-churn, which BENCHMARK.json leaves out) for a given
// number of host seconds, checks every job's outputs, and prints one JSON
// object as the last line of standard output:
// the end-to-end metrics, or with --trace 1 the per-layer metrics. Run it
// from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload gups --seed 1 --seconds 10 --trace 0
//
// README.md gives the workloads, their sizes and every metric's definition.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// DefaultSeed is the seed of a run that names none. HeldOutSeed was kept
// out of every tuning run; a run on it must pass every output check.
const (
	DefaultSeed = 1
	HeldOutSeed = 20211
)

// simPrefix is how many of a run's first jobs the simulated figures
// (workloads.sim_s, vmx.sim_overhead_pct, covirt.sim_*) summarize. A run
// always completes at least this many, so the figures depend on the seed
// alone, never on how many jobs the host managed in the time.
const simPrefix = 32

// maxTries bounds the attempts at one job seed. A hung job is retried on
// its seed on a fresh node, so the first simPrefix successes are always
// the same seeds.
const maxTries = 3

// hardLimit caps a run's wall time, whatever its jobs do: no job starts
// after it.
const hardLimit = 120 * time.Second

type config struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	out     string
	dl      deadlines
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the benchmark and prints its result; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if cfg.w == nil {
		return runAll(args, stdout, stderr)
	}
	rep, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload, each in a child process of its own so that
// its memory is measured alone, and passes their output through.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range allWorkloads {
		fmt.Fprintf(stdout, "# workload %s\n", w.name)
		// The flag package keeps the last value of a repeated flag.
		cmd := exec.Command(exe, append(args[:len(args):len(args)], "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gups, minife, xemem-churn, ctl-churn, or all (each in its own process)")
	seed := fs.Uint64("seed", DefaultSeed, "run seed; every job's inputs derive from it")
	seconds := fs.Float64("seconds", 10, "host seconds of measurement")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for the run record, spans, profile and hang dumps")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, dl: defaultDeadlines}
	if cfg.w = workloadByName(*name); cfg.w == nil && *name != "all" {
		return config{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if !(cfg.seconds > 0) {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobRecord is one attempted job.
type jobRecord struct {
	k      int // seed index
	job    *jobCtx
	out    *outcome
	err    error
	hang   bool // a guarded call missed its deadline
	checks bool // the job's output checks failed
	end    time.Time
	wallS  float64 // host wall seconds
	cpuS   float64 // host CPU seconds of the process
	scale  float64 // CPU scale around the job (see reference), set after the loop
	rssMiB float64 // the process's peak resident set during the job
}

// phase is one closed loop of jobs.
type phase struct {
	jobs    []*jobRecord
	elapsed float64 // wall seconds
	cpuS    float64 // process CPU seconds
}

func (p *phase) ok() []*jobRecord {
	var out []*jobRecord
	for _, r := range p.jobs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// runner runs one workload's jobs under the watchdog.
type runner struct {
	cfg    config
	wd     *watchdog
	ref    reference
	start  time.Time
	all    []*jobRecord // every attempt, for the failed/attempted counts
	firstH *jobRecord   // the first hang
}

func newRunner(cfg config) *runner {
	return &runner{cfg: cfg, wd: newWatchdog(), start: time.Now()}
}

// expired reports whether the run is past its hard limit.
func (r *runner) expired() error {
	if time.Since(r.start) > hardLimit {
		return fmt.Errorf("%s: run passed its %v limit after %d jobs", r.cfg.w.name, hardLimit, len(r.all))
	}
	return nil
}

// attempt runs the job with seed index k, traced when tr is non-nil.
func (r *runner) attempt(k int, tr *tracer) *jobRecord {
	j := newJob(len(r.all), jobSeed(r.cfg.seed, k), r.cfg.dl, tr)
	resetPeakRSS()
	start, cpu0 := time.Now(), cpuSeconds()
	out, err := r.wd.run(j.g, func() (*outcome, error) { return r.cfg.w.run(j) })
	cpu, end := cpuSeconds()-cpu0, time.Now()
	rec := &jobRecord{k: k, job: j, out: out, err: err,
		end: end, wallS: end.Sub(start).Seconds(), cpuS: cpu, scale: 1, rssMiB: peakRSSMiB()}
	var he *hangError
	var ce *checkError
	switch {
	case errors.As(err, &he):
		rec.hang = true
		if r.firstH == nil {
			r.firstH = rec
		}
	case errors.As(err, &ce):
		rec.checks = true
	case err == nil:
		tr.close(j.root)
	}
	r.all = append(r.all, rec)
	return rec
}

// loop runs jobs back to back, one in flight, for seconds of wall time and
// at least simPrefix successful jobs. With tr set, every other job is
// traced, so traced and untraced jobs share the machine's conditions.
func (r *runner) loop(seconds float64, tr *tracer) (*phase, error) {
	p := &phase{}
	start, cpu0 := time.Now(), cpuSeconds()
	k, tries, okJobs := 0, 0, 0
	for time.Since(start).Seconds() < seconds || okJobs < simPrefix {
		if err := r.expired(); err != nil {
			return nil, err
		}
		var jt *tracer
		if len(p.jobs)%2 == 1 {
			jt = tr
		}
		rec := r.attempt(k, jt)
		p.jobs = append(p.jobs, rec)
		if err := r.ref.maybeTime(); err != nil {
			return nil, err
		}
		tries++
		if rec.err == nil {
			okJobs++
		}
		// A job that hung or whose calls failed is retried on its seed; one
		// whose outputs were wrong is not, since it would be wrong again.
		if rec.err == nil || rec.checks || tries == maxTries {
			k, tries = k+1, 0
		}
	}
	p.elapsed = time.Since(start).Seconds()
	p.cpuS = cpuSeconds() - cpu0 - r.ref.spent()
	for _, rec := range p.jobs {
		rec.scale = r.ref.scaleAt(rec.end)
	}
	return p, nil
}

// memoryProbe runs n jobs and returns each job's peak resident set in MiB.
// Each job starts from a collected heap with its free pages returned to the
// OS, and runs on one processor with the collector off. Its peak is then the
// process's live memory plus everything the job allocates, and it repeats
// from run to run. With the collector on, the peak would depend on when a
// concurrent cycle finished; on two processors, on which processor a
// goroutine returned a sync.Pool table to, since only that processor's
// goroutines get it back. The first probe job still inherits the warm-up's
// pool placement, so the run reports the median.
func (r *runner) memoryProbe(n int) ([]float64, error) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	defer runtime.GOMAXPROCS(procs)
	defer debug.SetGCPercent(gc)
	var out []float64
	for k := 0; k < n; k++ {
		if err := r.expired(); err != nil {
			return nil, err
		}
		debug.FreeOSMemory()
		if rec := r.attempt(k, nil); rec.err == nil {
			out = append(out, rec.rssMiB)
		}
	}
	return out, nil
}

// memProbeJobs is how many jobs the memory probe runs.
const memProbeJobs = 8

// execute runs the benchmark described by cfg.
func execute(cfg config, stderr io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if cfg.w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.w.procs))
	}
	r := newRunner(cfg)
	defer r.wd.stop()
	defer r.ref.close()
	env := startEnv()

	// Warm-up: the first seed, untimed. The timed loop runs the same seed
	// first, which makes the pair the replay check.
	var warm *jobRecord
	for try := 0; try < maxTries; try++ {
		if warm = r.attempt(0, nil); warm.err == nil || warm.checks {
			break
		}
	}
	// The memory probe runs before the loop, before any hung job can have
	// left an abandoned node behind.
	memPeaks, err := r.memoryProbe(memProbeJobs)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	var prof bytes.Buffer
	var rt runtimeSample
	if cfg.trace {
		tr = newTracer()
		rt = sampleRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	p, err := r.loop(cfg.seconds, tr)
	if cfg.trace {
		pprof.StopCPUProfile()
		rt = sampleRuntime().since(rt)
	}
	if err != nil {
		return nil, err
	}
	envEnd := env.end()

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	note := func(format string, args ...any) {
		rep.Correct = false
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	hangs := 0
	for _, rec := range r.all {
		rep.Attempted += rec.job.g.attempted.Load()
		rep.Failed += rec.job.g.failed.Load()
		if rec.hang {
			hangs++
		}
		if rec.checks {
			note("job %d (seed index %d): %v", rec.job.id, rec.k, rec.err)
		}
	}
	if err := replayCheck(warm, p); err != nil {
		note("replay: %v", err)
	}
	if len(memPeaks) == 0 {
		note("memory probe: no job completed")
	}

	if cfg.trace {
		if err := layerMetrics(rep.Metrics, p, tr, prof.Bytes(), rt); err != nil {
			return nil, err
		}
	} else {
		endToEnd(rep.Metrics, p, memPeaks)
	}

	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.w.name, cfg.seed, btoi(cfg.trace)))
	jobs := make([][6]float64, len(p.jobs)) // wall s, CPU s, CPU scale, build CPU s, peak RSS MiB, ok
	scales := make([]float64, len(p.jobs))
	for i, rec := range p.jobs {
		jobs[i] = [6]float64{rec.wallS, rec.cpuS, rec.scale, 0, rec.rssMiB, 0}
		if rec.err == nil { // an abandoned job's fields belong to its goroutine
			jobs[i][3], jobs[i][5] = rec.job.buildCPU, 1
		}
		scales[i] = rec.scale
	}
	passes := make([]float64, len(r.ref.passes))
	for i, ps := range r.ref.passes {
		passes[i] = ps.cpu
	}
	scale := median(scales)
	record := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"env": envEnd, "report": rep, "problems": problems, "hangs": hangs,
		"loop": map[string]any{"wall_s": p.elapsed, "cpu_s": p.cpuS, "jobs": len(p.jobs), "ok_jobs": len(p.ok()),
			"median_cpu_scale": scale},
		"jobs_wall_cpu_scale_buildcpu_rss_ok": jobs,
		"reference_pass_cpu_s":                passes,
		"memory_probe_mib":                    memPeaks,
	}
	if r.firstH != nil {
		dump := base + "-hang.txt"
		if err := os.WriteFile(dump, r.wd.dump, 0o644); err != nil {
			return nil, err
		}
		record["first_hang"] = map[string]any{"job": r.firstH.job.id, "error": r.firstH.err.Error(), "goroutines": dump}
	}
	if cfg.trace {
		if err := writeJSON(base+"-spans.json", tr.snapshot()); err != nil {
			return nil, err
		}
		if err := os.WriteFile(base+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(base+".json", record); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d jobs (%d ok, %d hung) in %.2fs wall, %.2fs CPU, median CPU scale %.3f; %d/%d calls failed; steal %.2fs, %d GCs, GOMAXPROCS %d\n",
		cfg.w.name, cfg.seed, len(p.jobs), len(p.ok()), hangs, p.elapsed, p.cpuS, scale,
		rep.Failed, rep.Attempted, envEnd.StealSeconds, envEnd.GCCycles, envEnd.GOMAXPROCS)
	for _, msg := range problems {
		fmt.Fprintln(stderr, "perfbench: FAILED CHECK:", msg)
	}
	return rep, nil
}

// replayCheck compares the warm-up job with the timed loop's first run of
// the same seed: the simulated results must match bit for bit.
func replayCheck(warm *jobRecord, p *phase) error {
	if warm.err != nil {
		return fmt.Errorf("warm-up job failed: %v", warm.err)
	}
	for _, rec := range p.jobs {
		if rec.k == 0 && rec.err == nil {
			return sameResults(warm.out, rec.out)
		}
	}
	return fmt.Errorf("the first seed never completed in the timed loop")
}

// endToEnd fills the end-to-end metrics from an untraced loop. Host time is
// the process's CPU time times the job's scale (see reference): on a shared
// machine the wall time of a job moves with the neighbours' load far more
// than its CPU time does.
func endToEnd(m map[string]metric, p *phase, memPeaks []float64) {
	var build, cpu []float64
	slowest, spent := 0.0, 0.0 // the costliest attempt, a failed one included
	for _, rec := range p.jobs {
		c := rec.cpuS * rec.scale
		slowest = math.Max(slowest, c)
		spent += c
		if rec.err != nil {
			cpu = append(cpu, math.Inf(1))
			continue
		}
		cpu = append(cpu, c)
		build = append(build, rec.job.buildCPU*rec.scale)
	}
	// A failed job ranks as +Inf; should a percentile land on one, the
	// costliest attempt stands in for it, since JSON has no infinity.
	pct := func(q float64) float64 {
		if v := quantile(cpu, q); !math.IsInf(v, 1) {
			return v
		}
		return slowest
	}
	m["setup_s"] = metric{median(build), "s"}
	m["jobs_per_cpu_s"] = metric{float64(len(build)) / spent, "1/s"}
	m["job_cpu_s_p50"] = metric{pct(0.5), "s"}
	m["job_cpu_s_p90"] = metric{pct(0.9), "s"}
	m["peak_rss_mb"] = metric{median(memPeaks), "MiB"}
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
