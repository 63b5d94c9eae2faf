#!/usr/bin/env bash
# Hard gate on BENCH_search.json (`cargo bench -p tlp-bench --bench
# search_speculative`): draft-then-verify against the `draft_keep: 1.0`
# reference at equal rounds. Nothing in the file comes from a clock, so the
# counts are exact and the latency rule — fixed before the matrix was run —
# either holds or fails the build: pooled geomean ratio <= 1.02 and no
# network's geomean above 1.05, over five networks x >= 10 seeds, with 640
# full-model passes per round in the reference and 224 by default
# ((384 + 5 x 192) / 6 rounds per task). Run by CI on the regenerated file
# and by scripts/check.sh on the committed one.
set -euo pipefail
cd "$(dirname "$0")/.."
file=${1:-BENCH_search.json}

if ! jq -e '
    (.networks | length) == 5
    and all(.networks[];
        .reference_full_per_round == 640 and .default_full_per_round == 224
        and (.rows | length) >= 10 and .latency_ratio_geomean <= 1.05)
    and .pooled_latency_ratio_geomean <= 1.02' "$file" >/dev/null; then
    echo "search-quality-gate: $file violates the counts or the latency rule" >&2
    jq -c '{pooled: .pooled_latency_ratio_geomean,
            networks: [.networks[] | {network, rows: (.rows | length),
                reference_full_per_round, default_full_per_round,
                latency_ratio_geomean}]}' "$file" >&2
    exit 1
fi
echo "search-quality-gate: $file ok (pooled $(jq -r '.pooled_latency_ratio_geomean' "$file"))"
