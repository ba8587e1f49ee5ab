package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile is the nearest-rank p-quantile of xs (0 when empty). +Inf
// entries, which stand for failed jobs, sort last.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sameResults reports whether two outcomes of one seed carry bit-identical
// simulated results: Cycles, PerCore and every Metrics value.
func sameResults(a, b *outcome) error {
	if len(a.replay) != len(b.replay) {
		return fmt.Errorf("%d results, then %d", len(a.replay), len(b.replay))
	}
	for i := range a.replay {
		x, y := a.replay[i], b.replay[i]
		if x.Cycles != y.Cycles {
			return fmt.Errorf("%s: %d cycles, then %d", x.Name, x.Cycles, y.Cycles)
		}
		if len(x.PerCore) != len(y.PerCore) {
			return fmt.Errorf("%s: %d per-core counts, then %d", x.Name, len(x.PerCore), len(y.PerCore))
		}
		for c := range x.PerCore {
			if x.PerCore[c] != y.PerCore[c] {
				return fmt.Errorf("%s: PerCore[%d] %d, then %d", x.Name, c, x.PerCore[c], y.PerCore[c])
			}
		}
		if len(x.Metrics) != len(y.Metrics) {
			return fmt.Errorf("%s: %d metrics, then %d", x.Name, len(x.Metrics), len(y.Metrics))
		}
		for k, v := range x.Metrics {
			w, ok := y.Metrics[k]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("%s: metric %s %v, then %v", x.Name, k, v, w)
			}
		}
	}
	return nil
}

// simValues returns fig of the first simPrefix successful jobs.
func simValues(p *phase, fig func(*outcome) float64) []float64 {
	var out []float64
	for _, rec := range p.jobs {
		if rec.err == nil && rec.k < simPrefix {
			out = append(out, fig(rec.out))
		}
	}
	return out
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS resets the process's VmHWM to its current resident set. Where
// the kernel refuses, VmHWM stays the process's running maximum, which only
// makes a job's peak read high; the error is dropped for that reason.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// envRecord is the run's steadiness evidence: with it a disturbed run can
// be told apart from a regression.
type envRecord struct {
	CPUSeconds   float64 `json:"cpu_s"`   // user + system CPU of this process
	StealSeconds float64 `json:"steal_s"` // hypervisor steal on the host, from /proc/stat
	GCCycles     uint64  `json:"gc_cycles"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	WallSeconds  float64 `json:"wall_s"`
}

type envStart struct {
	t     time.Time
	cpu   float64
	steal float64
	gc    uint64
}

func startEnv() envStart {
	return envStart{t: time.Now(), cpu: cpuSeconds(), steal: stealSeconds(), gc: gcCycles()}
}

func (e envStart) end() envRecord {
	return envRecord{
		CPUSeconds:   cpuSeconds() - e.cpu,
		StealSeconds: stealSeconds() - e.steal,
		GCCycles:     gcCycles() - e.gc,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		WallSeconds:  time.Since(e.t).Seconds(),
	}
}

// cpuSeconds is the CPU time of the whole process, every thread included,
// read with nanosecond resolution (CLOCK_PROCESS_CPUTIME_ID).
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// stealSeconds reads the machine-wide steal time from /proc/stat (0 where
// the kernel does not report it).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
	mutexWait                    float64
	gcPause                      time.Duration
	schedLat                     *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	h := s[4].Value.Float64Histogram()
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		mutexWait:  s[3].Value.Float64(),
		gcPause:    gc.PauseTotal,
		schedLat:   &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
	}
}

// since returns the change from the earlier sample a.
func (b runtimeSample) since(a runtimeSample) runtimeSample {
	d := runtimeSample{
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		mutexWait:  b.mutexWait - a.mutexWait,
		gcPause:    b.gcPause - a.gcPause,
		schedLat:   &metrics.Float64Histogram{Buckets: b.schedLat.Buckets, Counts: make([]uint64, len(b.schedLat.Counts))},
	}
	for i := range d.schedLat.Counts {
		d.schedLat.Counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
	}
	return d
}

// histQuantile is the p-quantile of a runtime histogram, taken as the upper
// edge of the bucket it falls in.
func histQuantile(h *metrics.Float64Histogram, p float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(p * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= want {
			if up := h.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return h.Buckets[i]
		}
	}
	return 0
}
