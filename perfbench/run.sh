#!/usr/bin/env bash
# Runs the benchmark from the repository root, building it first when the
# binary is missing or any Rust source or manifest is newer than it:
#
#   bash perfbench/run.sh --workload equiv-hier --seed 1 --seconds 25 --trace 0
#
# `cargo run` would do the same, but outside a git checkout the root
# crate's build script watches a missing `.git/HEAD`, so cargo rebuilds
# the library on every invocation (about 9 s of a 2-vCPU machine).
set -euo pipefail

target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/gfab-perfbench"
if [[ ! -x "$bin" ]] || [[ -n "$(find . \
        \( -path ./.git -o -path ./target -o -path ./perfbench/target \
           -o -path ./.bench_build -o -path ./perfbench-out \) -prune \
        -o \( -name '*.rs' -o -name Cargo.toml -o -name Cargo.lock \) \
        -newer "$bin" -print -quit)" ]]; then
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
fi
exec "$bin" "$@"
