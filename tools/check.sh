#!/usr/bin/env bash
# Full local gate: build + static analysis + tests, warnings fatal.
# This is the tier-1 verify line plus -Dwarnings; CI and pre-push hooks
# should run exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

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
