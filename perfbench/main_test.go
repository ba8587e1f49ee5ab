package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"covirt/internal/workloads"
)

// shortRun runs the benchmark's CLI briefly and returns the parsed last
// line of its standard output.
func shortRun(t *testing.T, args ...string) map[string]json.RawMessage {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--seconds", "0.2", "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("last line keys = %s", got)
	}
	var correct bool
	if err := json.Unmarshal(last["correct"], &correct); err != nil || !correct {
		t.Fatalf("run %v not correct:\n%s", args, stderr.String())
	}
	return last
}

// TestShortRunsPassChecks runs every workload on the held-out seed: every
// job's output checks and the replay check must pass.
func TestShortRunsPassChecks(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			shortRun(t, "--workload", w.name, "--seed", strconv.Itoa(HeldOutSeed), "--trace", "0")
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-tests read.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkWorkloadsExist checks that every workload BENCHMARK.json
// names is one the benchmark runs.
func TestBenchmarkWorkloadsExist(t *testing.T) {
	for _, w := range readBenchmarkJSON(t).Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not know", w.Name)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	spec := readBenchmarkJSON(t)
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestMetricNamesMatchBenchmarkJSON checks that an untraced run prints
// exactly the end-to-end metrics and a traced run exactly the per-layer
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for trace, want := range map[string]map[string]string{"0": e2e, "1": layer} {
		last := shortRun(t, "--workload", "xemem-churn", "--seed", "1", "--trace", trace)
		var got map[string]metric
		if err := json.Unmarshal(last["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		for name, m := range got {
			if unit, ok := want[name]; !ok {
				t.Errorf("--trace %s printed %s, which BENCHMARK.json does not declare", trace, name)
			} else if unit != m.Unit {
				t.Errorf("--trace %s printed %s in %s, BENCHMARK.json says %s", trace, name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("--trace %s did not print %s", trace, name)
			}
		}
	}
}

// TestReplayCheckFailsOnPerturbedSeed reruns a job on its seed, which must
// reproduce it, and on a perturbed seed, which the replay check must catch.
func TestReplayCheckFailsOnPerturbedSeed(t *testing.T) {
	for _, name := range []string{"gups", "xemem-churn", "ctl-churn"} {
		t.Run(name, func(t *testing.T) {
			job := func(seed uint64) *outcome {
				r := newRunner(config{w: workloadByName(name), seed: seed, dl: defaultDeadlines})
				defer r.wd.stop()
				rec := r.attempt(0, nil)
				for try := 1; rec.hang && try < maxTries; try++ {
					rec = r.attempt(0, nil) // the ring deadlock: retry on a fresh node
				}
				if rec.err != nil {
					t.Fatal(rec.err)
				}
				return rec.out
			}
			first := job(DefaultSeed)
			if err := sameResults(first, job(DefaultSeed)); err != nil {
				t.Fatalf("same seed did not replay: %v", err)
			}
			if err := sameResults(first, job(DefaultSeed+1)); err == nil {
				t.Fatal("replay check passed on a perturbed seed")
			}
		})
	}
}

// TestHangGuardCountsOneFailure blocks one guarded call forever: the
// watchdog must turn it into exactly one failed call within its deadline,
// and the run must carry on with fresh jobs.
func TestHangGuardCountsOneFailure(t *testing.T) {
	block := make(chan struct{})
	defer close(block) // lets the abandoned job's goroutine exit
	var calls atomic.Int32
	w := &workload{name: "blocker", run: func(j *jobCtx) (*outcome, error) {
		first := calls.Add(1) == 1
		err := j.call(opAddMemory, j.dl.call, func() error {
			if first {
				<-block
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		res := &workloads.Result{Name: "blocker", Cycles: j.seed}
		return &outcome{replay: []*workloads.Result{res}, simS: 1}, nil
	}}
	dl := deadlines{phase: time.Second, call: 50 * time.Millisecond}
	r := newRunner(config{w: w, seed: 1, dl: dl})
	defer r.wd.stop()
	defer r.ref.close()
	p, err := r.loop(0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hung []*jobRecord
	var failed int64
	for _, rec := range p.jobs {
		failed += rec.job.g.failed.Load()
		if rec.hang {
			hung = append(hung, rec)
		}
	}
	if len(hung) != 1 || failed != 1 {
		t.Fatalf("%d hung jobs, %d failed calls; want 1 and 1", len(hung), failed)
	}
	var he *hangError
	if !errors.As(hung[0].err, &he) || he.op != opAddMemory {
		t.Fatalf("hang reported as %v", hung[0].err)
	}
	if hung[0].wallS < dl.call.Seconds() || hung[0].wallS > dl.call.Seconds()+0.5 {
		t.Errorf("hang noticed after %.3fs, deadline %v", hung[0].wallS, dl.call)
	}
	if ok := len(p.ok()); ok < simPrefix {
		t.Errorf("run carried on for only %d jobs", ok)
	}
	if p.jobs[1].k != hung[0].k {
		t.Errorf("hung seed index %d retried as %d", hung[0].k, p.jobs[1].k)
	}
	if len(r.wd.dump) == 0 {
		t.Error("no goroutine dump saved at the hang")
	}
}
