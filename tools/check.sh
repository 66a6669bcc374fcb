#!/usr/bin/env bash
# Full local gate: build + static analysis + tests, warnings fatal.
# This is the tier-1 verify line plus -Dwarnings; CI and pre-push hooks
# should run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== rustfmt =="
cargo fmt --all --check

echo "== build (release, -D warnings) =="
cargo build --release --workspace

# `run_all` runs dynapipe-lint first and fails on any unwaived finding,
# then every figure bin at full size: a bin that panics or cannot write its
# artifact, fig09_cluster's gates and the trace_report round-trip of its
# exported trace fail the check. The bins write only under results/
# (gitignored).
echo "== lint + figure bins =="
cargo run --release --offline -p dynapipe-bench --bin run_all

# Every figure artifact is a function of seed and config, so a second
# sweep must write the same bytes. fig17_planning_time.json and the
# TRACE_cluster*.json exports are left out: their subject is host time
# (planning latency, Host-domain span clocks).
echo "== figure artifacts are deterministic (second run_all, cmp) =="
first_run=target/check-first-run
rm -rf "$first_run"
mkdir -p "$first_run"
cp results/*.json "$first_run"/
cargo run --release --offline --quiet -p dynapipe-bench --bin run_all >/dev/null
for artifact in "$first_run"/*.json; do
    name="$(basename "$artifact")"
    case "$name" in
    fig17_planning_time.json | TRACE_cluster*.json) continue ;;
    esac
    cmp "$artifact" "results/$name"
done
rm -rf "$first_run"

echo "== tests (workspace) =="
cargo test -q --workspace

# The rayon shim's pool hands borrowed work to threads that outlive each
# call; run its race tests optimized as well.
echo "== rayon shim tests (release) =="
cargo test -q --release -p rayon

# perfbench/ is its own workspace, so the builds above never compile it;
# build it here so a change to the crates' public API cannot break the
# benchmark unnoticed. Building re-resolves its lock file, which is kept
# as committed.
echo "== build perfbench (release, offline) =="
lock_backup="$(mktemp)"
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The benchmark's exact gates, on every workload: 2 s traced runs check
# each repetition `behavior_eq` to the serial driver, the layer replay's
# plan equal to `plan_iteration`'s, and the runtime trace through
# `validate` and `reconcile` with no span dropped. A failed gate exits
# nonzero. Host timings are not gated here.
echo "== perfbench gates (--trace 1, 2 s per workload) =="
for workload in fig17-gpt short-store dc32-sharded; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 2 --trace 1 >/dev/null
done

echo "check.sh: all gates passed"
