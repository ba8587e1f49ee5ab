#!/bin/sh
# flake-repro.sh — stress repro for host-schedule flakes. Two families of
# suspects run every iteration under antagonist load:
#
#   - the multi-rank cycle jitter (ROADMAP "Known flake"): under a
#     saturated host with the whole -race suite running concurrently,
#     multi-rank cells once shifted by a few hundred cycles between
#     identical runs, in TestWorkloadCyclesStableAcrossRepeats,
#     TestSpanRoutingEquivalence/hpcg and (by one cycle) fig5b's harness
#     output, which TestExperimentGoldens/fig5b now pins;
#   - covirt's cross-goroutine TSC and epoch checks:
#     TestRefusedRemovalClosesNoEpoch once read core 1's published TSC
#     before the core's first halt published its VM-entry charge, and
#     TestCPUHotplug* and TestConcurrentMultiEnclaveIngest race hot-plug,
#     ingest and the per-core drains.
#
# All of them pass reliably on an idle host or package-serially, which is
# exactly what makes such flakes hard to catch in CI — this script
# recreates the scheduler pressure on purpose and loops the suspects
# until one trips or the iteration budget runs out.
#
#   ./scripts/flake-repro.sh [iterations] [load-procs]
#
# iterations  loops of the suspect battery (default 20)
# load-procs  background antagonist processes generating scheduler
#             pressure (default: number of CPUs)
#
# Exit status: 1 as soon as any iteration fails (the repro), 0 if the
# budget runs out without a failure. A clean exit is NOT proof the
# flake is fixed — raise the iteration count and run on a loaded host
# before claiming that. The antagonists are plain spinning go test
# compile/run loops rather than synthetic spinners so the pressure
# profile (GC, goroutine churn, mmap traffic) matches the real CI job
# that surfaced the jitter.
set -eu
cd "$(dirname "$0")/.."

iters="${1:-20}"
nproc_guess=$( (nproc || sysctl -n hw.ncpu || echo 4) 2>/dev/null | head -n1 )
load="${2:-$nproc_guess}"

# Build the test binaries once so every iteration measures the same
# artifact and the loop isn't dominated by recompiles. Each binary runs
# from its package directory, as go test runs it, so tests find their
# testdata (the harness goldens).
bin=$(mktemp -d)
root=$(pwd)
pids=""
cleanup() {
    for p in $pids; do
        kill "$p" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT INT TERM
echo "==> building race-instrumented suspect binaries"
go test -race -c -o "$bin/workloads.test" ./internal/workloads
go test -race -c -o "$bin/harness.test" ./internal/harness
go test -race -c -o "$bin/covirt.test" ./internal/covirt

# suspect PKG ARGS... runs PKG's test binary from the package directory.
suspect() {
    pkg=$1
    shift
    (cd "$root/internal/$pkg" && "$bin/$pkg.test" "$@")
}

# Antagonists: saturate the scheduler with GC-heavy churn for the whole
# run. Killed on exit no matter how we leave.
echo "==> starting $load antagonist processes"
i=0
while [ "$i" -lt "$load" ]; do
    (
        while :; do
            suspect workloads -test.run TestRankOrder -test.count 4 >/dev/null 2>&1 || :
        done
    ) &
    pids="$pids $!"
    i=$((i + 1))
done

fail=0
n=1
while [ "$n" -le "$iters" ]; do
    echo "==> iteration $n/$iters"
    if ! suspect workloads \
        -test.run 'TestWorkloadCyclesStableAcrossRepeats|TestSpanRoutingEquivalence' \
        -test.count 2; then
        fail=1
    fi
    if ! suspect harness \
        -test.run 'TestExperimentGoldens/fig5b' \
        -test.count 1; then
        fail=1
    fi
    # Ten rounds: under this load the TSC-snapshot flake tripped about
    # twice in 100 runs, so one round per iteration rarely caught it.
    if ! suspect covirt \
        -test.run 'TestRefusedRemovalClosesNoEpoch|TestCPUHotplug|TestConcurrentMultiEnclaveIngest' \
        -test.count 10; then
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "flake-repro.sh: REPRODUCED on iteration $n" >&2
        exit 1
    fi
    n=$((n + 1))
done
echo "flake-repro.sh: no failure in $iters iterations (not proof of a fix)"
