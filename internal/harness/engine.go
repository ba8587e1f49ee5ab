package harness

import (
	"fmt"
	"runtime"
	"sync"

	"covirt/internal/hw"
	"covirt/internal/pisces"
	"covirt/internal/workloads"
)

// Job is one cell of a declarative experiment matrix: a single repetition
// of one workload on one configuration and hardware layout. Each job runs
// on a fresh simulated machine, so jobs are independent and can execute in
// any order or concurrently without affecting each other's measurements.
type Job struct {
	// Experiment names the figure/table this job belongs to; it feeds the
	// seed derivation and error messages.
	Experiment string
	Config     Config
	Layout     Layout
	Opt        NodeOptions
	// Workload is this job's private Runner instance (never shared across
	// jobs — workloads carry per-run state). If it implements
	// workloads.Seeder it is seeded with Seed() before running.
	Workload workloads.Runner
	// Rep is the repetition index within the job's matrix cell.
	Rep int
	// Run overrides the default node-build-and-run execution for
	// measurements that need custom host-side setup (e.g. XEMEM exports).
	// The override must build its node from j.Config/j.Layout/j.Opt.
	Run func(j *Job) (*workloads.Result, error)
}

// Seed derives the job's deterministic seed: an FNV-1a hash of the
// experiment/config/layout/repetition coordinates passed through one step
// of the hw.Rand generator (the simulator's only sanctioned randomness
// seam). No ambient state — two processes enumerating the same matrix
// derive identical seeds, which is what keeps engine output byte-identical
// at any worker count.
func (j *Job) Seed() uint64 {
	key := fmt.Sprintf("%s/%s/%s/%d", j.Experiment, j.Config.Name, j.Layout.Name, j.Rep)
	rng := hw.NewRand(pisces.NameHash(key))
	return rng.Next()
}

// exec runs the job to completion.
func (j *Job) exec() (*workloads.Result, error) {
	if j.Run != nil {
		return j.Run(j)
	}
	if s, ok := j.Workload.(workloads.Seeder); ok {
		s.SetSeed(j.Seed())
	}
	n, err := NewNode(j.Config, j.Layout, j.Opt)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	return j.Workload.Run(n.K, j.Layout.Cores)
}

// JobResult pairs a job with its outcome.
type JobResult struct {
	Job *Job
	Res *workloads.Result
	Err error
}

// Engine executes job matrices on a worker pool. Results are returned in
// enumeration order regardless of completion order, and every job owns a
// fresh machine whose cycle counts are pure functions of its seed — so the
// aggregate output is byte-identical whether Workers is 1 or 100.
type Engine struct {
	// Workers caps concurrently executing jobs; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Run executes all jobs and returns one JobResult per job, index-aligned
// with the input slice. Failures do not stop the remaining jobs.
func (e Engine) Run(jobs []*Job) []JobResult {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				j := jobs[i]
				res, err := j.exec()
				if err != nil {
					err = fmt.Errorf("%s: %s/%s rep %d: %w",
						j.Experiment, j.Config.Name, j.Layout.Name, j.Rep+1, err)
				}
				results[i] = JobResult{Job: j, Res: res, Err: err}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// FirstErr returns the first failed job's error in enumeration order, or
// nil when every job succeeded.
func FirstErr(results []JobResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
