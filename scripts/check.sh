#!/usr/bin/env bash
# Repo-wide check gate: formatting, lints, rustdoc links, and the tier-1
# build/test suite.
#
# Usage: scripts/check.sh
#
# Everything runs offline against the vendored dependency stubs. fmt and
# clippy are skipped (with a notice) when the toolchain components are not
# installed, so the script still gates tier-1 on minimal containers.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --all -- --check"
    cargo fmt --all -- --check || status=1
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets (offline, -D warnings)"
    cargo clippy --workspace --all-targets --offline -- -D warnings || status=1
else
    echo "==> cargo clippy not installed; skipping lint check"
fi

echo "==> cargo doc --workspace --no-deps (offline, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline || status=1

echo "==> tier-1: cargo build --release (offline)"
cargo build --release --offline

echo "==> tier-1: cargo test -q (offline)"
cargo test -q --offline

echo "==> workspace release build (covers every crate, incl. tlp-serve)"
cargo build --release --offline --workspace

echo "==> full workspace tests (incl. the chaos, continual and registry-stress suites)"
cargo test -q --offline --workspace

echo "==> system benchmark (own workspace: cargo test --workspace never compiles it; --locked: its Cargo.lock is frozen)"
cargo test --release --offline --locked --manifest-path tlp-sysbench/Cargo.toml

if command -v jq >/dev/null 2>&1; then
    echo "==> system benchmark count gate (exact counts on all four workloads; tune_search 6168 generated / 3840 full-scored)"
    bash scripts/sysbench-gate.sh
    echo "==> search quality gate (committed BENCH_search.json from the search_speculative bench)"
    bash scripts/search-quality-gate.sh
else
    echo "==> jq not installed; skipping the system benchmark count gate and the search quality gate"
fi

if [ "$status" -ne 0 ]; then
    echo "check.sh: fmt/clippy/rustdoc reported problems" >&2
    exit "$status"
fi
echo "check.sh: all checks passed"
