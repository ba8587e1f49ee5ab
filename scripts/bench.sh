#!/bin/sh
# bench.sh — run the repository's benchmark suite and snapshot the results
# as a committed JSON artifact:
#
#   ./scripts/bench.sh OUT.json
#   ./scripts/bench.sh --compare OLD.json NEW.json
#
# Three tiers run back to back: the hot-path microbenchmarks (TLB lookup,
# the GUPS- and halo-shaped gathers and MiniFE's four-page one, EPT walks,
# PhysMem accessors, STREAM triad, the stencil SpMV and SymGS kernels), the
# control-plane tier (both ctl-saturation legs: per-event baseline and
# batched ingest with epoch-coalesced shootdowns), and the paper-figure
# benchmarks in the root package (fig3-fig8, IPC, GUPS, EPT ablation, one
# full experiment per pass). All run under -benchmem, so
# the snapshots carry B/op and allocs/op alongside ns/op — the allocation
# columns are the regression teeth on the zero-alloc workload discipline.
#
# One pass of any tier is too noisy to resolve a 20 % change, so every
# tier runs each benchmark five times (-count 5): the micro tier at the
# default benchtime, the other two one iteration per pass. The snapshot
# folds every benchmark's runs into one object: the median of each
# column, "runs", and the fastest and slowest pass as "ns/op_min" and
# "ns/op_max". The figure tier dominates wall clock, so a
# full run takes several minutes on an idle machine; benchmark on an
# otherwise-quiet host or the numbers are meaningless.
#
# --compare prints per-benchmark deltas of the (median) ns/op between two
# snapshots without running anything.
set -eu
cd "$(dirname "$0")/.."

usage="usage: bench.sh OUT.json | bench.sh --compare OLD.json NEW.json"
if [ "${1:-}" = "--compare" ]; then
    [ $# -eq 3 ] || { echo "$usage" >&2; exit 2; }
    old="$2"
    new="$3"
    awk '
    function field(line, key,   s) {
        s = line
        if (match(s, "\"" key "\": [0-9.e+-]+")) {
            s = substr(s, RSTART, RLENGTH)
            sub(/.*: /, "", s)
            return s
        }
        return ""
    }
    /"name":/ {
        name = $0
        sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        if (FILENAME == ARGV[1]) {
            oldns[name] = field($0, "ns/op")
            oldal[name] = field($0, "allocs/op")
        } else if (!(name in newns)) {
            newns[name] = field($0, "ns/op")
            newal[name] = field($0, "allocs/op")
            order[n++] = name
        }
    }
    END {
        printf "%-34s %15s %15s %9s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op"
        for (i = 0; i < n; i++) {
            name = order[i]
            al = newal[name]; if (al == "") al = "-"
            if (oldal[name] != "" && oldal[name] != newal[name]) al = oldal[name] " -> " al
            if (oldns[name] == "") {
                printf "%-34s %15s %15s %9s %16s\n", name, "-", newns[name], "new", al
                continue
            }
            d = (newns[name] - oldns[name]) / oldns[name] * 100
            printf "%-34s %15s %15s %+8.1f%% %16s\n", name, oldns[name], newns[name], d, al
        }
    }
    ' "$old" "$new"
    exit 0
fi

[ $# -eq 1 ] || { echo "$usage" >&2; exit 2; }
out="$1"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "==> microbenchmarks (internal/hw, internal/vmx, internal/workloads, 5 passes each)"
go test -run '^$' -bench 'EPTWalk|PhysMemReadWrite|TLBLookup|AccessGather|StreamTriad|FillGatherAddrs|SpMV|SymGS' -count 5 -benchmem \
    ./internal/hw ./internal/vmx ./internal/workloads | tee -a "$tmp"

echo "==> control-plane tier (ctl-saturation legs: per-event vs batched, 5 passes each)"
go test -run '^$' -bench 'CtlSat' -benchtime 1x -count 5 -benchmem . | tee -a "$tmp"

echo "==> figure benchmarks (root package, 5 passes each)"
go test -run '^$' -bench 'Table1|Fig|IPC|GUPS|EPTAblation' -benchtime 1x -count 5 -benchmem . | tee -a "$tmp"

# Fold the `go test -bench` text into a JSON array with one object per
# benchmark, in first-seen order: its package, the number of runs, and the
# median of every value/unit column (iterations, ns/op, the -benchmem B/op
# and allocs/op, plus any ReportMetric extras), with the fastest and
# slowest ns/op alongside. A median of an odd run count is one of the
# printed values, copied verbatim.
awk '
# median sorts the runs of one column and returns the middle value; it
# leaves the smallest and largest in lo and hi.
function median(name, col,   k, m, v, s, i, j, tv, ts) {
    m = 0
    for (k = 1; k <= runs[name]; k++) {
        if ((name, col, k) in vals) {
            m++
            s[m] = vals[name, col, k]
            v[m] = s[m] + 0
        }
    }
    for (i = 2; i <= m; i++) {
        tv = v[i]; ts = s[i]
        for (j = i - 1; j >= 1 && v[j] > tv; j--) { v[j + 1] = v[j]; s[j + 1] = s[j] }
        v[j + 1] = tv; s[j + 1] = ts
    }
    lo = s[1]; hi = s[m]
    if (m % 2) return s[(m + 1) / 2]
    return sprintf("%.10g", (v[m / 2] + v[m / 2 + 1]) / 2)
}
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    if (!(name in runs)) { order[n++] = name; pkgOf[name] = pkg; ncols[name] = 0 }
    r = ++runs[name]
    vals[name, "iters", r] = $2
    for (i = 3; i < NF; i += 2) {
        col = $(i + 1)
        if (!((name, col) in known)) { known[name, col] = 1; cols[name, ++ncols[name]] = col }
        vals[name, col, r] = $i
    }
}
END {
    print "["
    for (b = 0; b < n; b++) {
        name = order[b]
        printf "  {\"name\": \"%s\", \"pkg\": \"%s\", \"runs\": %d, \"iters\": %s", name, pkgOf[name], runs[name], median(name, "iters")
        for (c = 1; c <= ncols[name]; c++) {
            col = cols[name, c]
            printf ", \"%s\": %s", col, median(name, col)
            if (col == "ns/op") printf ", \"ns/op_min\": %s, \"ns/op_max\": %s", lo, hi
        }
        printf "}%s\n", (b < n - 1 ? "," : "")
    }
    print "]"
}
' "$tmp" > "$out"

echo "bench.sh: wrote $out"
