package workloads

import (
	"slices"
	"testing"

	"covirt/internal/hw"
)

// The batched charge paths draw all of a segment's addresses up front and
// hand them to Env.AccessGather in one call. These oracles pin each fill
// helper to the scalar per-element draws it replaced: same addresses, same
// side effects, same RNG position afterwards. hw/gather_test.go and
// kitten/env_gather_test.go pin the other half, that AccessGather charges
// exactly what the per-element Compute and Access calls charge.

// TestFillUpdatesMatchesScalarDraws checks GUPS's fill against the scalar
// update step: draw, derive the logical index, XOR into the capped table,
// charge the logical address.
func TestFillUpdatesMatchesScalarDraws(t *testing.T) {
	const logicalWords, realWords = 1 << 25, 1 << 10
	ext := hw.Extent{Start: 1 << 30, Size: logicalWords * 8}
	got, want := make([]uint64, 1536), make([]uint64, 1536)
	gotTable, wantTable := make([]uint64, realWords), make([]uint64, realWords)
	for i := range gotTable {
		gotTable[i], wantTable[i] = uint64(i), uint64(i)
	}
	gotRNG, wantRNG := hw.NewRand(7), hw.NewRand(7)

	fillUpdates(got, &gotRNG, gotTable, logicalWords, ext)
	for i := range want {
		v := wantRNG.Next()
		idx := v & (logicalWords - 1)
		wantTable[idx&(realWords-1)] ^= v
		want[i] = ext.Start + idx*8
	}
	if !slices.Equal(got, want) {
		t.Error("fillUpdates addresses diverge from the scalar update loop")
	}
	if !slices.Equal(gotTable, wantTable) {
		t.Error("fillUpdates table contents diverge from the scalar update loop")
	}
	if gotRNG.Next() != wantRNG.Next() {
		t.Error("fillUpdates left the RNG at a different position")
	}
}

// TestFillRandomAddrsMatchesScalarDraws checks the LAMMPS rebuild/lookup
// fill against one scalar modulo draw per access, over a word count that
// is not a power of two.
func TestFillRandomAddrsMatchesScalarDraws(t *testing.T) {
	ext := hw.Extent{Start: 1 << 21, Size: 3 * 5 * 7 * 4096}
	got, want := make([]uint64, 777), make([]uint64, 777)
	gotRNG, wantRNG := hw.NewRand(11), hw.NewRand(11)

	fillRandomAddrs(got, &gotRNG, ext)
	for i := range want {
		off := wantRNG.Next() % (ext.Size / 8)
		want[i] = ext.Start + off*8
	}
	if !slices.Equal(got, want) {
		t.Error("fillRandomAddrs addresses diverge from the scalar draw loop")
	}
	if gotRNG.Next() != wantRNG.Next() {
		t.Error("fillRandomAddrs left the RNG at a different position")
	}
}
