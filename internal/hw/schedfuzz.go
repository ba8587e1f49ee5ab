//go:build schedfuzz

package hw

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// The schedfuzz build compiles seeded yields into the host hand-off points:
// Handoff.Wait and Broadcast, CPU.poll, and a ringer's delivery. Each point
// draws from one splitmix64 stream seeded by COVIRT_SCHEDFUZZ_SEED, and
// yields the processor on one draw in four. The goroutines share the
// stream, so a seed picks a family of schedules rather than one: any
// simulated output that differs between seeds, or from the default build,
// is a host-timing leak. scripts/check.sh runs the goldens and the
// twin-run tests under several seeds.
var schedState atomic.Uint64

func init() {
	seed, _ := strconv.ParseUint(os.Getenv("COVIRT_SCHEDFUZZ_SEED"), 10, 64)
	schedState.Store(seed)
}

// schedPoint yields on one draw in four.
func schedPoint() {
	z := schedState.Add(0x9E3779B97F4A7C15)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	if (z^z>>31)&3 == 0 {
		runtime.Gosched()
	}
}
