#!/usr/bin/env bash
# Hard gate on counts the system benchmark's workloads repeat exactly (no
# timing, no float from the hardware simulator, ~5 s each): all-hit traffic
# is answered at admission and never reaches a batcher; all-miss traffic
# never hits the cache and always does; cold scoring and the tuner loop
# keep the micro-batch and search counts a change to the engine's loop or
# the search gate moves first. `search.full_scored == 3840` is 12 rounds of
# draft-then-verify over BERT-tiny's 8 tasks (8 first rounds at 384, 4 later
# ones at 192); it was 7680 = 12 x 640 while every pool was scored whole,
# and tests/speculative_search.rs holds both counts. The result digest is
# compared with an oracle the same binary computes, so it only catches the
# tuner disagreeing with itself across engines; a change that shifts the
# search's RNG stream moves both sides. The absolute outcome of this
# configuration is pinned in tier-1 instead, as a literal in
# tests/speculative_search.rs::the_default_is_the_single_cause_of_the_sysbench_gate_rebaseline.
# The oracle digests of score_cold, serve_warm and serve_miss are literals:
# each oracle comes from the same build (an uncached engine, cross-checked
# against the dense tape forward), so a kernel change that moves the fused
# and the tape path together would agree with itself and pass. They were
# read with `--smoke --trace 1 --seed 1` at commit 4b3ecd2 and equal the
# values recorded when softmax's `exp` moved in-tree; a deliberate
# re-baseline edits them and says why.
# Run by CI and by scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

gate() {
    local workload=$1 counts=$2 result
    result=$(cargo run --release --offline --quiet --manifest-path tlp-sysbench/Cargo.toml -- \
        --workload "$workload" --smoke --trace 1 --seed 1 | tail -n 1)
    if ! jq -e ".correct and .failed == 0 and ($counts)" <<<"$result" >/dev/null; then
        echo "sysbench-gate: $workload violates: correct, failed == 0, $counts" >&2
        jq -c '{correct, attempted, failed,
                batches: .metrics["serve.batches"].value,
                hit_ratio: .metrics["engine.hit_ratio"].value,
                micro_batches: .metrics["engine.micro_batches"].value,
                generated: .metrics["search.generated"].value,
                pruned: .metrics["search.pruned"].value,
                full_scored: .metrics["search.full_scored"].value,
                result_digest: .metrics["tuner.result_digest"].value,
                oracle_digest: .metrics["bench.oracle_digest"].value}' <<<"$result" >&2
        exit 1
    fi
    echo "sysbench-gate: $workload ok ($counts)"
}

gate serve_warm '.metrics["serve.batches"].value == 0 and .metrics["engine.hit_ratio"].value == 1 and .metrics["bench.oracle_digest"].value == 3923745547840521'
gate serve_miss '.metrics["engine.hit_ratio"].value == 0 and .metrics["serve.batches"].value >= 1 and .metrics["bench.oracle_digest"].value == 3633412750386632'
gate score_cold '.metrics["engine.hit_ratio"].value == 0 and .metrics["engine.micro_batches"].value == 32 and .metrics["bench.oracle_digest"].value == 205250087654169'
gate tune_search '.metrics["search.generated"].value == 6168 and .metrics["search.pruned"].value == 0 and .metrics["search.full_scored"].value == 3840 and .metrics["tuner.result_digest"].value == .metrics["bench.oracle_digest"].value'
