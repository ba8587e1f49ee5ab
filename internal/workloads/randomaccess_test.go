package workloads

import (
	"testing"

	"covirt/internal/hw"
)

// TestVerifyUpdatesCatchesLostUpdate fills a 2^12-word table from a stream
// of updates through fillUpdates and checks verifyUpdates against it: the
// check passes on the whole stream, and fails when the fill skipped one
// update (the first, a middle one or the last) or when the replay draws
// another seed's stream.
func TestVerifyUpdatesCatchesLostUpdate(t *testing.T) {
	const words, logicalWords, n, seed = 1 << 12, 1 << 25, 3 * ompChunk, 0x243F6A8885A308D3
	ext := hw.Extent{Start: 1 << 30, Size: logicalWords * 8}
	// fill applies seed's n updates to a fresh table, skipping the update
	// at index skip (none when skip < 0).
	fill := func(skip int) []uint64 {
		table := make([]uint64, words)
		for i := range table {
			table[i] = uint64(i)
		}
		rng := hw.NewRand(seed)
		buf := make([]uint64, 1)
		for i := range n {
			if i == skip {
				rng.Next()
				continue
			}
			fillUpdates(buf, &rng, table, logicalWords, ext)
		}
		return table
	}

	if err := verifyUpdates(fill(-1), seed, n); err != nil {
		t.Fatalf("whole stream: %v", err)
	}
	for _, skip := range []int{0, n / 2, n - 1} {
		if verifyUpdates(fill(skip), seed, n) == nil {
			t.Errorf("update %d skipped: verification passed", skip)
		}
	}
	if verifyUpdates(fill(-1), seed+1, n) == nil {
		t.Error("replay of another seed's stream: verification passed")
	}
}
