package workloads

import (
	"covirt/internal/kitten"
)

// Detour is one interruption detected by the Selfish Detour benchmark: the
// loop observed a timestamp gap larger than the expected iteration time.
type Detour struct {
	// AtCycle is when the detour was observed, relative to loop start.
	AtCycle uint64
	// Magnitude is the stolen time in cycles.
	Magnitude uint64
}

// Selfish is the Selfish Detour noise benchmark (Beckman et al.): a tight
// loop timestamps itself and records every iteration that took notably
// longer than the minimum, exposing OS interference events.
type Selfish struct {
	// DurationCycles is how long the detection loop runs.
	DurationCycles uint64

	// Detours holds the events from the last run.
	Detours []Detour
}

// detourThresholdMult flags iterations slower than detourThresholdMult x
// the calibrated minimum (the benchmark's default factor is ~9x, we use a
// tighter factor because the simulated loop is perfectly regular).
const detourThresholdMult = 3

// Name implements Runner.
func (s *Selfish) Name() string { return "selfish-detour" }

// Run implements Runner; the benchmark is single-core by design.
func (s *Selfish) Run(k *kitten.Kernel, threads int) (*Result, error) {
	dur := s.DurationCycles
	if dur == 0 {
		dur = 400_000_000 // a couple of timer periods at the default tick
	}
	// Reuse the event buffer across runs; the append in the timing loop is
	// the benchmark's own measurement semantics (a detour is rare), but the
	// buffer behind it should not regrow every repetition.
	if s.Detours == nil {
		s.Detours = make([]Detour, 0, 512)
	}
	s.Detours = s.Detours[:0]
	res, err := runParallel(k, s.Name(), 1, func(e *kitten.Env, rank int) error {
		// Calibrate the loop: minimum iteration time over a warmup run
		// (the benchmark's approach — the minimum is the interference-free
		// iteration cost).
		iter := ^uint64(0)
		prev := e.TSC()
		for i := 0; i < 256; i++ {
			e.Compute(1)
			now := e.TSC()
			if d := now - prev; d < iter {
				iter = d
			}
			prev = now
		}
		threshold := iter * detourThresholdMult

		start := prev
		var lost uint64
		for prev-start < dur {
			e.Compute(1)
			now := e.TSC()
			if d := now - prev; d > threshold {
				s.Detours = append(s.Detours, Detour{AtCycle: prev - start, Magnitude: d - iter})
				lost += d - iter
			}
			prev = now
		}
		_ = lost
		return nil
	})
	if err != nil {
		return nil, err
	}
	var lost, max uint64
	for _, d := range s.Detours {
		lost += d.Magnitude
		if d.Magnitude > max {
			max = d.Magnitude
		}
	}
	res.Metrics["detours"] = float64(len(s.Detours))
	res.Metrics["lost_cycles"] = float64(lost)
	res.Metrics["max_detour_cycles"] = float64(max)
	res.Metrics["lost_fraction"] = float64(lost) / float64(dur)
	return res, nil
}
