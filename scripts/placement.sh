#!/bin/sh
# placement.sh — compare where two builds of the perfbench binary place
# the program's code:
#
#   ./scripts/placement.sh OLD NEW
#
# OLD and NEW are perfbench binaries (built from two trees, e.g. with
# `cd perfbench && go build -o /tmp/pb-new .`). The linker places each
# package's functions in source order, each at a 32-byte boundary, so code
# added to or removed from one function moves every function linked after
# it by whole 32-byte steps. A hot loop's offset modulo 64 decides how it
# meets the host's instruction-fetch blocks and cache lines, so a build
# can run faster or slower on code it did not change. When a workload
# that runs none of a change's code reads slower or faster, compare this
# output for the two builds before calling that a cost or a gain of the
# change.
#
# It prints each hot function's offset modulo 64 in OLD and in NEW, then
# how many of the program's functions linked after the first function of
# internal/hw (the covirt packages and perfbench's main, present in both
# binaries, outside internal/hw) changed their offset modulo 64.
set -eu

[ $# -eq 2 ] || { echo "usage: placement.sh OLD NEW" >&2; exit 2; }
old="$1"
new="$2"
for f in "$old" "$new"; do
    [ -f "$f" ] || { echo "placement.sh: $f: no such file" >&2; exit 2; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# Text symbols in address order: "address name".
go tool nm -n "$old" | awk '$2 == "T" || $2 == "t" { print $1, $3 }' > "$tmp/old"
go tool nm -n "$new" | awk '$2 == "T" || $2 == "t" { print $1, $3 }' > "$tmp/new"

awk '
BEGIN {
    split("covirt/internal/workloads.(*RandomAccess).Run.func1 " \
          "covirt/internal/vmx.(*VCPU).TranslateGPA " \
          "covirt/internal/kitten.(*Env).AccessGather " \
          "covirt/internal/hw.(*Handoff).Wait " \
          "covirt/internal/hw.(*Region).load64 " \
          "covirt/internal/hw.(*Region).store64 " \
          "covirt/internal/hw.(*CPU).poll", hot, " ")
}
# mod64 returns a hexadecimal address modulo 64, from its last two digits.
function mod64(hex,   lo, hi) {
    hex = tolower(hex)
    hi = index("0123456789abcdef", substr(hex, length(hex) - 1, 1)) - 1
    lo = index("0123456789abcdef", substr(hex, length(hex), 1)) - 1
    return (hi * 16 + lo) % 64
}
# program reports whether name is one of the program functions counted:
# the covirt packages and perfbench main, outside internal/hw.
function program(name) {
    return (name ~ /^covirt\// || name ~ /^main\./) && name !~ /^covirt\/internal\/hw\./
}
{
    addr = mod64($1)
    side = (FILENAME == ARGV[1]) ? "old" : "new"
    if ($2 ~ /^covirt\/internal\/hw\./) hwSeen[side] = 1
    off[side, $2] = addr
    if ((side in hwSeen) && program($2)) after[side, $2] = 1
}
END {
    printf "%-56s %7s %7s\n", "hot function", "old%64", "new%64"
    for (i = 1; i in hot; i++) {
        o = ((("old", hot[i]) in off) ? off["old", hot[i]] : "-")
        n = ((("new", hot[i]) in off) ? off["new", hot[i]] : "-")
        printf "%-56s %7s %7s\n", hot[i], o, n
    }
    total = 0; moved = 0
    for (k in after) {
        split(k, p, SUBSEP)
        if (p[1] != "new" || !(("old", p[2]) in after)) continue
        total++
        if (off["old", p[2]] != off["new", p[2]]) moved++
    }
    printf "functions linked after internal/hw in both: %d; offset mod 64 changed: %d\n", total, moved
}
' "$tmp/old" "$tmp/new"
