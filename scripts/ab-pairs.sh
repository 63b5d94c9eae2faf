#!/usr/bin/env bash
# A/B pairs of the system benchmark: the parent revision against the working
# tree, on one workload, at BENCHMARK.json's settings (`run_seconds`,
# `--trace 0`).
#
# Usage: scripts/ab-pairs.sh <parent-rev> <workload> [pairs] [seed]
#
#   pairs defaults to 10, seed to 1. Needs jq.
#
# The parent's tlp-sysbench is built from `git archive <parent-rev>` in a
# temporary directory (nothing is added to the repository or its .git) and
# cached per resolved commit as `target/ab-pairs/<sha>/tlp-sysbench`, under
# the ignored `target/` tree; a later call on the same commit reuses that
# binary instead of rebuilding it (delete the directory to force a rebuild).
# The change's is built from the working tree on every call. The two binaries then run in
# alternating pairs, the parent first in odd pairs and the change first in
# even ones, so a drift in machine speed lands on both sides. For every
# end-to-end metric the script prints each side's median and interquartile
# range, the ratio of the medians, the per-pair ratios and how many pairs the
# change won (by the metric's `better` direction). A run that fails an op or
# its oracle stops the script.
#
# Stopgap until the benchmark interleaves parent and change itself (ROADMAP
# item 1(c)); delete it then.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seed]" >&2
    exit 2
fi
parent_rev=$1 workload=$2 pairs=${3:-10} seed=${4:-1}
seconds=$(jq -r .run_seconds BENCHMARK.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

parent_sha=$(git rev-parse --verify "$parent_rev^{commit}")
parent_bin=target/ab-pairs/$parent_sha/tlp-sysbench
if [ -x "$parent_bin" ]; then
    echo "ab-pairs: reusing the parent ($parent_rev = $parent_sha) from $parent_bin" >&2
else
    echo "ab-pairs: building the parent ($parent_rev = $parent_sha)" >&2
    mkdir "$tmp/parent"
    git archive "$parent_sha" | tar -x -C "$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-parent" cargo build --release --offline --quiet \
        --manifest-path "$tmp/parent/tlp-sysbench/Cargo.toml"
    mkdir -p "$(dirname "$parent_bin")"
    # Copied under a temporary name and renamed, so an interrupted copy
    # never leaves a binary the next call would trust.
    cp "$tmp/target-parent/release/tlp-sysbench" "$parent_bin.partial"
    mv "$parent_bin.partial" "$parent_bin"
fi
echo "ab-pairs: building the change" >&2
cargo build --release --offline --quiet --manifest-path tlp-sysbench/Cargo.toml
cp "$parent_bin" "$tmp/parent.bin"
cp "${CARGO_TARGET_DIR:-tlp-sysbench/target}/release/tlp-sysbench" "$tmp/change.bin"

run() {
    local side=$1 pair=$2 result
    result=$("$tmp/$side.bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 | tail -n 1)
    if ! jq -e '.correct and .failed == 0' <<<"$result" >/dev/null; then
        echo "ab-pairs: $side run of pair $pair failed: $(jq -c '{correct, attempted, failed}' <<<"$result")" >&2
        exit 1
    fi
    jq -c --arg side "$side" --argjson pair "$pair" \
        '{side: $side, pair: $pair, metrics: (.metrics | map_values(.value))}' <<<"$result" \
        >>"$tmp/runs.jsonl"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "ab-pairs: pair $pair/$pairs, $side" >&2
        run "$side" "$pair"
    done
done

echo "$workload, seed $seed, $pairs pairs of ${seconds} s runs; parent $parent_rev vs working tree"
jq -r -s --slurpfile bench BENCHMARK.json '
    def quantile($p): sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h
        | ($h | floor) as $lo | ([$lo + 1, $n - 1] | min) as $hi
        | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo]);
    def fmt: if . == null then "n/a"
        elif . == 0 or fabs >= 100 then (. * 10 | round / 10 | tostring)
        else (. * 10000 | round / 10000 | tostring) end;
    def ratio($a; $b): if $b == 0 then null else $a / $b end;
    . as $runs
    | $bench[0].end_to_end[] as $m
    | [$runs[] | select(.side == "parent") | .metrics[$m.name]] as $p
    | [$runs[] | select(.side == "change") | .metrics[$m.name]] as $c
    | [range(0; $p | length) | ratio($c[.]; $p[.])] as $ratios
    | [range(0; $p | length)
        | select(if $m.better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] as $wins
    | "\($m.name) (\($m.unit), \($m.better) is better)\n"
      + "  parent median \($p | quantile(0.5) | fmt), IQR \(($p | quantile(0.75)) - ($p | quantile(0.25)) | fmt)\n"
      + "  change median \($c | quantile(0.5) | fmt), IQR \(($c | quantile(0.75)) - ($c | quantile(0.25)) | fmt)\n"
      + "  change/parent \(ratio($c | quantile(0.5); $p | quantile(0.5)) | fmt)x, change won \($wins | length) of \($p | length) pairs\n"
      + "  per-pair ratios: \($ratios | map(fmt) | join(" "))"
' "$tmp/runs.jsonl"
