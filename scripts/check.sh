#!/bin/sh
# check.sh — the repository's CI gate. Run it locally before pushing:
#
#   ./scripts/check.sh                # full gate (static + smoke + schedfuzz + fuzz + race)
#   ./scripts/check.sh static        # build/gofmt/vet/analyzers + -short smoke (perfbench too) only
#   ./scripts/check.sh schedfuzz     # -short goldens and twin runs under schedule seeds 1-3 only
#   ./scripts/check.sh fuzz          # 30 s of FuzzChargePaths from its committed corpus only
#   ./scripts/check.sh race <group>  # one race shard: harness | workloads | rest
#
# It must pass with zero findings; vetted exceptions are annotated in the
# source with //covirt:allow (see DESIGN.md "Static analysis & invariants").
# Each stage reports its wall-clock seconds so CI regressions are visible
# per gate, not just in the job total.
#
# The race tier is sharded into package groups so its long pole (the
# harness experiment matrix) no longer serializes behind everything else:
# locally the groups run as parallel jobs, and in CI they fan out as a
# matrix. The -short smoke tier always runs first for fast signal.
set -eu
cd "$(dirname "$0")/.."

stage_start=0
begin() {
    echo "==> $1"
    stage_start=$(date +%s)
}
end() {
    echo "    ($(( $(date +%s) - stage_start ))s)"
}

# race_group_pkgs maps a shard name to its package list. The harness
# matrix is the measured long pole and gets a shard to itself; workloads
# carries the solver suites (and the fleet, which exercises them); rest is
# everything else.
race_group_pkgs() {
    case "$1" in
    harness)   echo "covirt/internal/harness" ;;
    workloads) echo "covirt/internal/workloads covirt/internal/cluster" ;;
    rest)      go list ./... | grep -v -E 'internal/(harness|workloads|cluster)$' | tr '\n' ' ' ;;
    *)
        echo "check.sh: unknown race group '$1' (want harness|workloads|rest)" >&2
        exit 2
        ;;
    esac
}

# schedfuzz runs the -short goldens and the twin-run tests in the schedfuzz
# build, which compiles seeded yields into the host hand-off points
# (hw.Handoff.Wait and Broadcast, CPU.poll, a ringer's delivery). They must
# read the same under every schedule seed: a diff is a host-timing leak
# into simulated output.
schedfuzz() {
    begin "schedfuzz: -short goldens and twin runs under seeds 1 2 3"
    for seed in 1 2 3; do
        COVIRT_SCHEDFUZZ_SEED=$seed go test -count=1 -tags schedfuzz -short \
            -run 'TestExperimentGoldens|TwinRun|OutputEquivalence' ./internal/harness
    done
    end
}

# fuzz runs FuzzChargePaths for 30 s, starting from its committed corpus
# (plain go test replays only the corpus): programs of charging operations
# and events on twin CPUs, the batched charge paths on one and their
# per-operation oracles on the other. A failing input lands in
# internal/hw/testdata/fuzz/FuzzChargePaths. Minimizing each new input is
# capped at 100 runs: at the default 60 s, minimizing a new input stopped
# every worker, and a 30 s run made no progress after its first 12 s.
fuzz() {
    begin "fuzz: FuzzChargePaths for 30s"
    go test -run '^$' -fuzz '^FuzzChargePaths$' -fuzztime 30s -fuzzminimizetime 100x ./internal/hw
    end
}

mode="${1:-all}"

if [ "$mode" = schedfuzz ]; then
    schedfuzz
    echo "check.sh: schedfuzz stage passed"
    exit 0
fi

if [ "$mode" = fuzz ]; then
    fuzz
    echo "check.sh: fuzz stage passed"
    exit 0
fi

if [ "$mode" = race ]; then
    group="${2:?usage: check.sh race <harness|workloads|rest>}"
    begin "go test -race (group: $group)"
    # shellcheck disable=SC2046
    go test -race $(race_group_pkgs "$group")
    end
    echo "check.sh: race group $group passed"
    exit 0
fi

begin "go build ./..."
go build ./...
end

# gofmt over every Go file outside dot-directories (build and run outputs
# live there): the stage fails when gofmt would rewrite any file.
begin "gofmt -l"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check.sh: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
end

begin "go vet ./..."
go vet ./...
end

# One covirt-vet run loads the module once and executes every analyzer —
# the interprocedural ones (lock-order, atomic-discipline, transitive-hot),
# the hotalloc zero-alloc gate and the cap-discipline capability gate
# included — with -time reporting each analyzer's cost. The analyzers'
# teeth are checked in the smoke tier below: TestAnalyzersOnFixtures
# asserts every fixture's exact findings.
begin "covirt-vet ./... (-time: per-analyzer cost)"
go run ./cmd/covirt-vet -time ./...
end

begin "go test -short ./... (smoke tier)"
go test -short ./...
end

# perfbench/ is a module of its own, built against internal/ through a
# replace directive, so ./... above never compiles it: an API change that
# breaks the benchmark must fail here.
begin "perfbench: go vet + go test -short"
(cd perfbench && go vet ./... && go test -short ./...)
end

if [ "$mode" = static ]; then
    echo "check.sh: static gates passed"
    exit 0
fi

schedfuzz
fuzz

begin "go test -race (parallel shards: harness | workloads+cluster | rest)"
race_logs=$(mktemp -d)
race_fail=0
for group in harness workloads rest; do
    (
        # shellcheck disable=SC2046
        go test -race $(race_group_pkgs "$group")
    ) > "$race_logs/$group.log" 2>&1 &
    eval "race_pid_$group=$!"
done
for group in harness workloads rest; do
    eval "pid=\$race_pid_$group"
    if wait "$pid"; then
        echo "    race shard $group: ok"
    else
        echo "check.sh: race shard $group failed:" >&2
        cat "$race_logs/$group.log" >&2
        race_fail=1
    fi
done
rm -rf "$race_logs"
[ "$race_fail" -eq 0 ]
end

echo "check.sh: all gates passed"
