package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark was tuned on is shared, and the speed of a
// core drifts with the neighbours' load: within one 15 s run a MiniFE job's
// CPU time fell from 0.09 s to 0.055 s, and over ten runs the p50 spread by
// 33 %. The loop therefore times a fixed reference kernel of the
// benchmark's own between jobs and scales every host CPU figure by
// refNominal over the kernel's time around the job. The program never
// runs the kernel, so a change to the program moves only the job's side of
// the ratio. The speed also drifts within a run, so each job is scaled by
// the passes nearest to it in time.

// refNominal is the reference kernel's CPU time that scaled figures are
// expressed against: a scaled figure reads as the CPU seconds the job takes
// on a machine where one kernel pass takes refNominal.
const refNominal = 0.004

// refEvery is how often the loop times the kernel: about 300 passes, 7 % of
// a 15 s run.
const refEvery = 50 * time.Millisecond

// refWindow is how many passes nearest in time to a job give its scale:
// the speed drifts within a run, and one pass is a noisy reading of it.
const refWindow = 5

// The kernel's memory: a 16 MiB table, so that its random accesses pay DRAM
// latency as gups's do, and two 1 MiB vectors that stay in the cache
// hierarchy, as MiniFE's CG vectors do.
const (
	refWords = 1 << 21
	refVec   = 1 << 17
)

// reference times the kernel. Its memory lives outside the Go heap, so it
// does not change how often the collector runs for the program.
type reference struct {
	mem    []byte
	table  []uint64
	x, y   []float64
	last   time.Time
	passes []refPass
	sink   uint64
}

// refPass is one timed kernel pass.
type refPass struct {
	at  time.Time
	cpu float64 // CPU seconds
}

// maybeTime times one kernel pass if refEvery has passed since the last.
func (r *reference) maybeTime() error {
	if !r.last.IsZero() && time.Since(r.last) < refEvery {
		return nil
	}
	if r.mem == nil {
		b, err := syscall.Mmap(-1, 0, (refWords+2*refVec)*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return err
		}
		r.mem = b
		r.table = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), refWords)
		r.x = unsafe.Slice((*float64)(unsafe.Pointer(&b[refWords*8])), refVec)
		r.y = unsafe.Slice((*float64)(unsafe.Pointer(&b[(refWords+refVec)*8])), refVec)
		for i := range r.table { // fault every page in before timing
			r.table[i] = uint64(i)
		}
		for i := range r.x {
			r.x[i], r.y[i] = float64(i%7), 0
		}
	}
	c0 := cpuSeconds()
	r.sink += refKernel(r.table, r.x, r.y)
	r.last = time.Now()
	r.passes = append(r.passes, refPass{at: r.last, cpu: cpuSeconds() - c0})
	return nil
}

// spent is the CPU the kernel passes took.
func (r *reference) spent() float64 {
	var s float64
	for _, p := range r.passes {
		s += p.cpu
	}
	return s
}

// scaleAt is the factor that turns a CPU time measured at t into a scaled
// one: refNominal over the median of the refWindow passes nearest to t.
func (r *reference) scaleAt(t time.Time) float64 {
	n := len(r.passes)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return !r.passes[i].at.Before(t) })
	lo := max(0, min(i-refWindow/2, n-refWindow))
	hi := min(n, lo+refWindow)
	cpu := make([]float64, 0, refWindow)
	for _, p := range r.passes[lo:hi] {
		cpu = append(cpu, p.cpu)
	}
	return refNominal / median(cpu)
}

// close unmaps the kernel's memory.
func (r *reference) close() {
	if r.mem != nil {
		_ = syscall.Munmap(r.mem)
		r.mem, r.table, r.x, r.y = nil, nil, nil, nil
	}
}

// refKernel runs three parts of about equal time: dependent integer
// arithmetic, floating-point sweeps over the cached vectors, and random
// read-modify-write updates over the table.
func refKernel(t []uint64, xs, ys []float64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64
	for i := 0; i < 300000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * 2654435761
	}
	var dot float64
	for sweep := 0; sweep < 6; sweep++ {
		for i, v := range xs {
			ys[i] = 0.5*v + ys[i]*0.25
			dot += ys[i] * v
		}
	}
	acc += uint64(dot)
	for i := 0; i < 80000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		t[j] ^= x
		acc += t[(j*7)&(refWords-1)]
	}
	return acc
}
