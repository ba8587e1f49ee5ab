package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// op names one public call of the program that the benchmark makes. Each
// guarded call is timed as a span and runs under a deadline.
type op uint8

const (
	opJob          op = iota // one whole job: build, workload, close
	opBuild                  // testbed.Spec.Build
	opRun                    // workloads.Runner.Run
	opClose                  // testbed.Node.Close
	opAddMemory              // pisces.Framework.AddMemory
	opRemoveMemory           // pisces.Framework.RemoveMemory
	opRemoveBatch            // pisces.Framework.RemoveMemoryBatch
	opXemExport              // xemem.Registry.Make (host-side export)
	opXemTask                // kitten.Kernel.Spawn + Task.Wait of the guest XEMEM task
	opXemAttach              // kitten.Env.XemAttach, inside the guest task
	opXemDetach              // kitten.Env.XemDetach, inside the guest task
	opXemRemove              // xemem.Registry.Remove
	numOps
)

var opNames = [numOps]string{
	"job", "testbed.build", "workloads.run", "testbed.close",
	"pisces.add_memory", "pisces.remove_memory", "pisces.remove_batch",
	"xemem.export", "xemem.task", "xemem.attach", "xemem.detach", "xemem.remove",
}

func (o op) String() string { return opNames[o] }

// MarshalText writes an op by name in the span file.
func (o op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// errAbandoned is returned inside a job whose watchdog already gave up on
// it: the job goroutine stops at its next guarded call and touches nothing.
var errAbandoned = errors.New("job abandoned after a missed deadline")

// hangError reports a guarded call that missed its deadline.
type hangError struct {
	op       op
	deadline time.Duration
}

func (e *hangError) Error() string {
	return fmt.Sprintf("%s missed its %v deadline", e.op, e.deadline)
}

// guard is one job's deadline cell. The job goroutine arms it around each
// guarded call; the run's watchdog compares it with the clock. A fresh guard
// per job keeps a late disarm by an abandoned job from clearing the next
// job's deadline.
type guard struct {
	deadline  atomic.Int64 // unix nanoseconds; 0 between calls
	op        atomic.Uint32
	budget    atomic.Int64 // the armed call's deadline, for the report
	abandoned atomic.Bool
	attempted atomic.Int64 // guarded calls started
	failed    atomic.Int64 // guarded calls that erred or missed their deadline
}

// watchdog runs jobs on their own goroutines and gives up on any job whose
// armed deadline passes. Its ticker keeps a live timer in the process, so a
// program deadlock shows up here as a missed deadline instead of the Go
// runtime aborting the process with "all goroutines are asleep".
type watchdog struct {
	tick *time.Ticker
	dump []byte // goroutine dump taken at the first hang
}

// watchdogPeriod bounds how late a missed deadline is noticed.
const watchdogPeriod = 2 * time.Millisecond

func newWatchdog() *watchdog { return &watchdog{tick: time.NewTicker(watchdogPeriod)} }

func (w *watchdog) stop() { w.tick.Stop() }

type jobReturn struct {
	out *outcome
	err error
}

// run executes fn on a new goroutine and waits for it or for its guard's
// deadline. On a hang the job is abandoned: its goroutine stays blocked
// inside the program (the node is never closed) and run returns a
// *hangError, counted as one failed call.
func (w *watchdog) run(g *guard, fn func() (*outcome, error)) (*outcome, error) {
	done := make(chan jobReturn, 1) // the abandoned sender must never block
	go func() {
		out, err := fn()
		done <- jobReturn{out, err}
	}()
	for {
		select {
		case r := <-done:
			return r.out, r.err
		case now := <-w.tick.C:
			d := g.deadline.Load()
			if d == 0 || now.UnixNano() <= d {
				continue
			}
			g.abandoned.Store(true)
			g.failed.Add(1)
			if w.dump == nil {
				w.dump = goroutineDump()
			}
			return nil, &hangError{op: op(g.op.Load()), deadline: time.Duration(g.budget.Load())}
		}
	}
}

// goroutineDump returns the stacks of every goroutine.
func goroutineDump() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// span is one timed public call. Times are nanoseconds since the run began.
type span struct {
	Op     op    `json:"op"`
	Job    int   `json:"job"`
	Parent int32 `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer holds the spans of a traced run in memory until the run ends. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index (-1 on a nil tracer).
func (t *tracer) open(o op, job int, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: o, Job: job, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// close ends span i.
func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// durations returns the host seconds of every completed span of op o.
func (t *tracer) durations(o op) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Op == o && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// snapshot copies the spans for writing out.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
