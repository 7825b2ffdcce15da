#!/usr/bin/env bash
# Writes the pinned benchmark span traces into $BENCH_DIR (default: the
# repo root, where the committed copies are the perf-gate baselines —
# running it there is how they are re-pinned):
#
#   BENCH_table1.jsonl … BENCH_table4.jsonl   the paper-table binaries'
#       --trace-json output at fixed small k subsets, single-threaded
#   BENCH_fuzz.jsonl                          a fixed seeded fuzz campaign
#
# Each subset keeps every row's verdict and work units deterministic: no
# engine runs anywhere near its wall budget. A table binary that gets a
# wrong answer, or a campaign with a finding, exits 1, and so does this
# script.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_DIR:-.}"
BIN=target/release

cargo build --release --offline -p gfab -p gfab-bench

# table3 runs four engines per k, and the SAT and full-GB baselines near
# their wall budgets already at k=8; k=4 keeps every engine orders of
# magnitude inside its budget. table4's first two ablations pin their
# own sweeps; its k applies to the constant-blocks ablation.
"$BIN/table1" --threads 1 16 32 64 --trace-json "$OUT/BENCH_table1.jsonl"
"$BIN/table2" --threads 1 16 32 --trace-json "$OUT/BENCH_table2.jsonl"
"$BIN/table3" --threads 1 4 --trace-json "$OUT/BENCH_table3.jsonl"
"$BIN/table4" --threads 1 16 --trace-json "$OUT/BENCH_table4.jsonl"
"$BIN/gfab" fuzz --seed 2024 --cases 24 --k-min 6 --k-max 8 --fault-rate 50 \
    --threads 2 --trace-json "$OUT/BENCH_fuzz.jsonl"
