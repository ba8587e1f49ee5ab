package harness_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"covirt/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current experiment output")

// TestExperimentGoldens pins every experiment's rendered output at -reps 1
// to testdata/golden/<id>.txt. Simulated numbers are the paper result, so
// any byte of drift fails; a deliberate change regenerates the files with
// `go test ./internal/harness -run TestExperimentGoldens -update` and says
// why. The goldens stand in for the reference paths they were checked
// against when first recorded — translation cache off, span routing off,
// and (for all but ctl-saturation, whose output coalescing changes by
// design) shootdown coalescing off all reproduced them byte for byte; the
// *OutputEquivalence tests below hold the experiments that exercise each
// of those paths to the same files at the worker counts they were
// compared at. fig7 and fig8 cost full HPCG/LAMMPS matrices, so they run
// only in full, uninstrumented suites.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range harness.All {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if fullMatrix(e.ID) && (testing.Short() || raceDetectorEnabled) {
				t.Skip("full problem matrix; runs in the full uninstrumented suite")
			}
			got := runExperiment(t, e.ID, harness.Options{Reps: 1})
			if *update {
				if err := os.WriteFile(goldenPath(e.ID), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			checkGolden(t, e.ID, got)
		})
	}
}

// TestTransCacheOutputEquivalence holds the experiments that lean on the
// VCPU translation cache to the output of the uncached nested walk: the
// fig5a (streaming), mttr (supervised crash/recovery, whose shootdowns
// drop cached translations) and fig7 (TLB-missing gather) goldens were
// byte-identical to runs with the cache disabled. A divergence means a
// cached translation charged different cycles or masked a fault the walk
// would have raised. vmx's TestTransCacheCostEquivalence checks the same
// equivalence per translation.
func TestTransCacheOutputEquivalence(t *testing.T) {
	testGoldensAt(t, []string{"fig5a", "mttr", "fig7"}, []int{4})
}

// TestSpanRoutingOutputEquivalence holds the gather-batched workloads to
// the output of their element-wise Compute/Access loops: the fig5b (GUPS)
// and fig8 (LAMMPS rebuild and lookups) goldens were byte-identical to
// runs with span routing disabled. A divergence means a batch charged
// different cycles, delivered a timer tick at a different element, or
// reordered an RNG stream. workloads' TestSpanRoutingEquivalence checks
// the per-rank cycles of each routed configuration.
func TestSpanRoutingOutputEquivalence(t *testing.T) {
	testGoldensAt(t, []string{"fig5b", "fig8"}, []int{4})
}

// TestIngestTogglesOutputEquivalence holds the workload experiments to the
// output of the uncoalesced control plane at one and eight workers: the
// fig5a and mttr goldens were recorded byte-identical to runs with epoch
// coalescing off, when a switch still allowed that, so a divergence means
// the coalescer merged away an invalidation it owed (a stale TLB entry
// changes a fault path). ctl-saturation is absent because coalescing is
// the effect it measures. covirt's TestEpochCoalescingEquivalence checks
// that a coalesced batch leaves no stale translation on any core.
func TestIngestTogglesOutputEquivalence(t *testing.T) {
	testGoldensAt(t, []string{"fig5a", "mttr"}, []int{1, 8})
}

// testGoldensAt runs each experiment at -reps 1 on each engine width and
// diffs the output against its golden, one parallel subtest per pair.
func testGoldensAt(t *testing.T, ids []string, widths []int) {
	for _, id := range ids {
		for _, par := range widths {
			t.Run(fmt.Sprintf("%s-parallel-%d", id, par), func(t *testing.T) {
				t.Parallel()
				if fullMatrix(id) && (testing.Short() || raceDetectorEnabled) {
					t.Skip("full problem matrix; runs in the full uninstrumented suite")
				}
				checkGolden(t, id, runExperiment(t, id, harness.Options{Reps: 1, Parallel: par}))
			})
		}
	}
}

// fullMatrix reports whether experiment id runs a full HPCG or LAMMPS
// problem matrix, too slow for -short or the race detector.
func fullMatrix(id string) bool { return id == "fig7" || id == "fig8" }

func goldenPath(id string) string { return filepath.Join("testdata", "golden", id+".txt") }

func runExperiment(t *testing.T, id string, opt harness.Options) []byte {
	t.Helper()
	e := harness.ByID(id)
	if e == nil {
		t.Fatalf("no experiment %q", id)
	}
	var out bytes.Buffer
	if err := e.Run(opt, &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func checkGolden(t *testing.T, id string, got []byte) {
	t.Helper()
	path := goldenPath(id)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output diverges from %s:\n--- golden ---\n%s\n--- got ---\n%s", id, path, want, got)
	}
}
