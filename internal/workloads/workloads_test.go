package workloads_test

import (
	"math"
	"testing"

	"covirt/internal/harness"
	"covirt/internal/kitten"
	"covirt/internal/workloads"
)

// node boots a fresh evaluation node for one workload run.
func node(t *testing.T, cfg harness.Config, layout harness.Layout) *harness.Node {
	t.Helper()
	n, err := harness.NewNode(cfg, layout, harness.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func run(t *testing.T, w workloads.Runner, cfg harness.Config, layout harness.Layout) *workloads.Result {
	t.Helper()
	n := node(t, cfg, layout)
	res, err := w.Run(n.K, layout.Cores)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

func TestStreamVerifiesAndReports(t *testing.T) {
	s := &workloads.Stream{N: 1 << 16, Iters: 2}
	res := run(t, s, harness.CfgNative, harness.SingleCore)
	for _, kn := range []string{"copy_GBs", "scale_GBs", "add_GBs", "triad_GBs"} {
		if res.Metric(kn) <= 0 {
			t.Errorf("%s = %g", kn, res.Metric(kn))
		}
	}
	if res.Cycles == 0 || res.Threads != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestStreamMultiThreadAggregates(t *testing.T) {
	s := &workloads.Stream{N: 1 << 16, Iters: 2}
	one := run(t, s, harness.CfgNative, harness.SingleCore)
	four := run(t, &workloads.Stream{N: 1 << 16, Iters: 2}, harness.CfgNative, harness.Layouts[1]) // 4c/2n
	if four.Metric("triad_GBs") < 2*one.Metric("triad_GBs") {
		t.Errorf("4-thread triad %g not scaling over 1-thread %g",
			four.Metric("triad_GBs"), one.Metric("triad_GBs"))
	}
}

func TestRandomAccessVerifies(t *testing.T) {
	g := &workloads.RandomAccess{LogTableSize: 22, Updates: 1 << 14}
	res := run(t, g, harness.CfgNative, harness.SingleCore)
	if res.Metric("GUPS") <= 0 {
		t.Errorf("GUPS = %g", res.Metric("GUPS"))
	}
	if res.Metric("updates") != 1<<14 {
		t.Errorf("updates = %g", res.Metric("updates"))
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	mk := func() *workloads.RandomAccess {
		return &workloads.RandomAccess{LogTableSize: 22, Updates: 1 << 13}
	}
	a := run(t, mk(), harness.CfgNative, harness.SingleCore)
	b := run(t, mk(), harness.CfgNative, harness.SingleCore)
	if a.Cycles != b.Cycles {
		t.Errorf("nondeterministic cycles: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestSelfishDetectsInjectedNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("4e8 simulated cycles; slow under -race")
	}
	// With the default 10 Hz tick, a 4e8-cycle window sees ~2 ticks.
	s := &workloads.Selfish{DurationCycles: 4e8}
	res := run(t, s, harness.CfgNative, harness.SingleCore)
	if res.Metric("detours") < 1 {
		t.Fatalf("no detours detected, want timer ticks; metrics=%v", res.Metrics)
	}
	if res.Metric("max_detour_cycles") <= 0 {
		t.Error("zero max detour")
	}
	if len(s.Detours) != int(res.Metric("detours")) {
		t.Error("detour list inconsistent with metric")
	}
}

func TestHPCGConverges(t *testing.T) {
	h := &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 12}
	res := run(t, h, harness.CfgNative, harness.SingleCore)
	if r := res.Metric("residual"); r <= 0 || r > 0.01 {
		t.Errorf("residual = %g", r)
	}
	if res.Metric("GFLOPs") <= 0 {
		t.Error("no GFLOPs")
	}
}

func TestHPCGParallelMatchesSerialNumerics(t *testing.T) {
	if testing.Short() {
		t.Skip("two 14-iteration HPCG solves; slow under -race")
	}
	// The block-preconditioner differs across thread counts, but both
	// must converge.
	h1 := &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 14}
	h4 := &workloads.HPCG{NX: 24, NY: 24, NZ: 24, Iters: 14}
	r1 := run(t, h1, harness.CfgNative, harness.SingleCore)
	r4 := run(t, h4, harness.CfgNative, harness.Layouts[1])
	if r1.Metric("residual") > 0.01 || r4.Metric("residual") > 0.01 {
		t.Errorf("residuals: serial %g, parallel %g", r1.Metric("residual"), r4.Metric("residual"))
	}
	if r4.Cycles >= r1.Cycles {
		t.Errorf("4 threads (%d cycles) not faster than 1 (%d)", r4.Cycles, r1.Cycles)
	}
}

func TestMiniFEConvergesAndScales(t *testing.T) {
	m1 := &workloads.MiniFE{NX: 24, NY: 24, NZ: 24, Iters: 20}
	r1 := run(t, m1, harness.CfgNative, harness.SingleCore)
	if r1.Metric("residual") > 0.2 {
		t.Errorf("residual = %g", r1.Metric("residual"))
	}
	if r1.Metric("assembly_cycles") <= 0 {
		t.Error("no assembly phase recorded")
	}
	m8 := &workloads.MiniFE{NX: 24, NY: 24, NZ: 24, Iters: 20}
	r8 := run(t, m8, harness.CfgNative, harness.EightCore)
	if r8.Cycles >= r1.Cycles {
		t.Errorf("8 threads (%d) not faster than 1 (%d)", r8.Cycles, r1.Cycles)
	}
}

func TestLammpsEnergyBoundedAllProblems(t *testing.T) {
	for _, p := range []workloads.LammpsProblem{workloads.LJ, workloads.EAM, workloads.Chain, workloads.Chute} {
		l := &workloads.Lammps{Problem: p, AtomsPerRank: 343, Steps: 10}
		res := run(t, l, harness.CfgNative, harness.SingleCore)
		d := res.Metric("energy_drift")
		if math.IsNaN(d) || d > 0.2 {
			t.Errorf("%s: drift = %g", p, d)
		}
		if res.Metric("loop_time_s") <= 0 {
			t.Errorf("%s: no loop time", p)
		}
	}
}

func TestLammpsProblemNames(t *testing.T) {
	want := map[workloads.LammpsProblem]string{
		workloads.LJ: "lj", workloads.EAM: "eam",
		workloads.Chain: "chain", workloads.Chute: "chute",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d -> %q", p, p.String())
		}
		l := &workloads.Lammps{Problem: p}
		if l.Name() != "lammps-"+name {
			t.Errorf("runner name %q", l.Name())
		}
	}
}

func TestWorkloadRejectsTooManyThreads(t *testing.T) {
	n := node(t, harness.CfgNative, harness.SingleCore)
	s := &workloads.Stream{N: 1 << 12, Iters: 1}
	if _, err := s.Run(n.K, 4); err == nil {
		t.Error("4 threads on a 1-core enclave accepted")
	}
}

func TestBarrierAndAllreduce(t *testing.T) {
	n := node(t, harness.CfgNative, harness.Layouts[1]) // 4 cores
	bar := workloads.NewBarrier(4)
	red := workloads.NewAllreduce(4)
	sums := make([]float64, 4)
	err := n.K.RunParallel("reduce", 4, func(e *kitten.Env, rank int) error {
		for round := 0; round < 5; round++ {
			bar.Wait(e)
			sums[rank] = red.Sum(e, rank, float64(rank+1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sums {
		if s != 10 { // 1+2+3+4
			t.Errorf("rank %d sum = %g", r, s)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := workloads.Seconds(uint64(workloads.CyclesPerSecond)); math.Abs(got-1) > 1e-9 {
		t.Errorf("Seconds(1.7e9) = %g", got)
	}
}
