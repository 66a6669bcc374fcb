#!/usr/bin/env bash
# Full local gate: build + static analysis + tests, warnings fatal.
# This is the tier-1 verify line plus -Dwarnings; CI and pre-push hooks
# should run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# Formatting ratchet: these files are rustfmt-clean and must stay so.
# A change that formats another file adds it here; `cargo fmt --check`
# still reports the rest of the backlog.
echo "== rustfmt (ratchet) =="
rustfmt --check --edition 2021 \
    crates/core/src/runtime.rs \
    crates/cluster/src/runtime.rs \
    crates/core/src/codec.rs \
    crates/core/src/store.rs \
    crates/core/tests/store_stress.rs \
    crates/core/src/driver.rs \
    crates/core/src/compile.rs \
    crates/cluster/src/topology.rs \
    crates/sim/src/engine.rs \
    crates/sim/src/memory.rs \
    crates/sim/src/op.rs \
    crates/bench/src/bin/fig09_cluster.rs \
    crates/bench/src/bin/fig17_planning_time.rs \
    crates/bench/src/bin/run_all.rs \
    crates/bench/src/lib.rs \
    crates/batcher/src/dp.rs \
    crates/batcher/tests/solve_count.rs \
    crates/model/src/config.rs \
    crates/model/src/shapes.rs \
    crates/cost/src/costmodel.rs \
    crates/cost/src/grid.rs \
    crates/cost/src/lib.rs \
    crates/core/src/planner.rs \
    crates/schedule/src/reorder.rs \
    crates/schedule/src/lib.rs \
    crates/bench/benches/dp_partitioner.rs \
    crates/cluster/src/report.rs \
    crates/cluster/tests/common/mod.rs \
    crates/cluster/tests/runtime_equivalence.rs \
    crates/cluster/tests/cluster_equivalence.rs \
    crates/cluster/tests/churn_equivalence.rs \
    crates/cluster/tests/shard_routing.rs \
    crates/cluster/tests/trace_reconciliation.rs \
    tests/serialization.rs \
    src/lib.rs \
    crates/batcher/src/kk.rs \
    crates/comm/src/instruction.rs \
    crates/comm/src/plan.rs \
    crates/cost/src/iteration.rs \
    crates/data/src/dataset.rs \
    crates/data/src/lib.rs \
    crates/data/src/minibatch.rs \
    crates/lint/src/lib.rs \
    crates/lint/src/rules.rs \
    crates/lint/tests/fixtures.rs \
    crates/model/src/hardware.rs \
    crates/model/src/parallel.rs \
    crates/lint/src/model.rs \
    crates/data/src/tasks.rs \
    crates/sim/src/channel.rs \
    crates/sim/src/link.rs \
    crates/sim/src/trace.rs \
    crates/sim/src/lib.rs \
    crates/cluster/src/churn.rs \
    crates/cluster/src/lib.rs \
    crates/core/src/lib.rs

echo "== build (release, -D warnings) =="
cargo build --release --workspace

echo "== dynapipe-lint =="
cargo run --release -p dynapipe-lint

# One capped iteration of every figure bin: fig09_cluster's gates and the
# trace_report round-trip of its exported trace fail the check. The bins
# write only under results/ (gitignored).
echo "== figure bins (smoke) =="
cargo run --release --offline -p dynapipe-bench --bin run_all -- --smoke

echo "== tests (workspace) =="
cargo test -q --workspace

# The workspace build above compiles no bench target; build them so a
# change to the crates' API cannot break a bench unnoticed.
echo "== build benches (no run) =="
cargo bench --offline --no-run -p dynapipe-bench

# perfbench/ is its own workspace, so the builds above never compile it;
# build it here so a change to the crates' public API cannot break the
# benchmark unnoticed. Building re-resolves its lock file, which is kept
# as committed.
echo "== build perfbench (release, offline) =="
lock_backup="$(mktemp)"
cp perfbench/Cargo.lock "$lock_backup"
trap 'cp "$lock_backup" perfbench/Cargo.lock; rm -f "$lock_backup"' EXIT
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "check.sh: all gates passed"
