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
    crates/core/tests/store_stress.rs

echo "== build (release, -D warnings) =="
cargo build --release --workspace

echo "== dynapipe-lint =="
cargo run --release -p dynapipe-lint

echo "== tests (workspace) =="
cargo test -q --workspace

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
