package workloads

import (
	"fmt"

	"covirt/internal/hw"
	"covirt/internal/kitten"
)

// Stream is the STREAM memory-bandwidth benchmark (v5.10 kernels: Copy,
// Scale, Add, Triad). Vector arithmetic is executed for real; the memory
// traffic is charged as sequential streams on the simulated CPUs.
type Stream struct {
	// N is the per-thread vector length in float64 elements.
	N int
	// Iters repeats each kernel (best-of reporting like the original).
	Iters int

	scalar float64
}

// Name implements Runner.
func (s *Stream) Name() string { return "stream" }

// Run implements Runner.
func (s *Stream) Run(k *kitten.Kernel, threads int) (*Result, error) {
	n := s.N
	if n == 0 {
		n = 1 << 21 // 16 MiB per array per thread
	}
	iters := s.Iters
	if iters == 0 {
		iters = 3
	}
	s.scalar = 3.0

	bytesPer := uint64(n * 8)
	// Padded to a cache line: each rank updates its slot inside the timed
	// kernels, and adjacent ranks must not false-share under -parallel.
	type kernelTime struct {
		copyC, scaleC, addC, triadC uint64
		_                           [32]byte
	}
	times := make([]kernelTime, threads)
	ord := NewRankOrder(threads)

	res, err := runParallel(k, s.Name(), threads, func(e *kitten.Env, rank int) error {
		// Real data, pooled across reps and ranks: a and b are re-filled
		// below and c is fully overwritten by the Copy kernel, so reuse
		// needs no clearing.
		sb := getStreamBufs(n)
		defer putStreamBufs(sb)
		a, b, c := sb.a, sb.b, sb.c
		for i := range a {
			a[i] = 1.0
			b[i] = 2.0
		}
		// Simulated placement: three arrays on the rank's NUMA node,
		// carved in rank order so the layout is scheduling-independent.
		var aX, bX, cX hw.Extent
		ord.Do(e, rank, func() {
			aX = allocSpread(e, bytesPer)
			bX = allocSpread(e, bytesPer)
			cX = allocSpread(e, bytesPer)
		})
		defer e.Free(aX)
		defer e.Free(bX)
		defer e.Free(cX)

		kt := &times[rank]
		best := func(dst *uint64, cycles uint64) {
			if *dst == 0 || cycles < *dst {
				*dst = cycles
			}
		}
		for it := 0; it < iters; it++ {
			// Copy: c = a
			t0 := e.CPU.TSC
			copy(c, a)
			e.Stream(aX.Start, bytesPer, false)
			e.Stream(cX.Start, bytesPer, true)
			best(&kt.copyC, e.CPU.TSC-t0)

			// Scale: b = q*c
			t0 = e.CPU.TSC
			for i := range b {
				b[i] = s.scalar * c[i]
			}
			e.Compute(uint64(n))
			e.Stream(cX.Start, bytesPer, false)
			e.Stream(bX.Start, bytesPer, true)
			best(&kt.scaleC, e.CPU.TSC-t0)

			// Add: c = a+b
			t0 = e.CPU.TSC
			for i := range c {
				c[i] = a[i] + b[i]
			}
			e.Compute(uint64(n))
			e.Stream(aX.Start, bytesPer, false)
			e.Stream(bX.Start, bytesPer, false)
			e.Stream(cX.Start, bytesPer, true)
			best(&kt.addC, e.CPU.TSC-t0)

			// Triad: a = b + q*c
			t0 = e.CPU.TSC
			for i := range a {
				a[i] = b[i] + s.scalar*c[i]
			}
			e.Compute(uint64(2 * n))
			e.Stream(bX.Start, bytesPer, false)
			e.Stream(cX.Start, bytesPer, false)
			e.Stream(aX.Start, bytesPer, true)
			best(&kt.triadC, e.CPU.TSC-t0)
		}
		// Verification (as STREAM does): expected values after iters rounds.
		wantA, wantB, wantC := 1.0, 2.0, 0.0
		for it := 0; it < iters; it++ {
			wantC = wantA
			wantB = s.scalar * wantC
			wantC = wantA + wantB
			wantA = wantB + s.scalar*wantC
		}
		if a[n/2] != wantA || b[n/2] != wantB || c[n/2] != wantC {
			return fmt.Errorf("stream: verification failed: got (%g,%g,%g) want (%g,%g,%g)",
				a[n/2], b[n/2], c[n/2], wantA, wantB, wantC)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate bandwidth: sum of per-thread rates, reported per kernel in
	// GB/s as STREAM does (bytes moved per kernel per thread / best time).
	rate := func(sel func(kernelTime) uint64, moved uint64) float64 {
		total := 0.0
		for _, kt := range times {
			c := sel(kt)
			if c == 0 {
				continue
			}
			total += float64(moved) / Seconds(c) / 1e9
		}
		return total
	}
	res.Metrics["copy_GBs"] = rate(func(k kernelTime) uint64 { return k.copyC }, 2*bytesPer)
	res.Metrics["scale_GBs"] = rate(func(k kernelTime) uint64 { return k.scaleC }, 2*bytesPer)
	res.Metrics["add_GBs"] = rate(func(k kernelTime) uint64 { return k.addC }, 3*bytesPer)
	res.Metrics["triad_GBs"] = rate(func(k kernelTime) uint64 { return k.triadC }, 3*bytesPer)
	return res, nil
}
