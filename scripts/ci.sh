#!/usr/bin/env bash
# CI gate for the gfab workspace: formatting, lints, then the tier-1
# build-and-test pass. Run from anywhere; works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail here, so a deleted function
# cannot linger in the documentation that names it.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1: build (release) =="
cargo build --release --offline

echo "== tier-1: test (every workspace package) =="
cargo test -q --offline --workspace

echo "== perfbench: builds against the library and passes its self-tests =="
# The benchmark is its own workspace and drives the public library API;
# an internal API change that stops it compiling, or breaks its
# self-tests, fails here rather than at the next benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== kernel smoke: coefficient kernels vs reference oracle =="
# Differential self-check of the zero-allocation GF(2^k) coefficient
# kernels (windowed comb multiply, spread-table squaring, precomputed
# modular reduction, batch inversion) against the bit-serial reference
# module, over every NIST field plus small dense moduli. Exits 1 on any
# mismatch. (The bench bins are not part of the root package's build.)
cargo build --release --offline -p gfab-bench
target/release/kernels --smoke

echo "== bench binaries: k=1 is a usage error =="
# No irreducible polynomial of degree 1 exists: every table binary and
# kernels must exit 2 naming k before doing any work.
for bin in table1 table2 table3 table4 kernels; do
    rc=0
    err=$(target/release/$bin 1 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -ne 2 ] || [[ "$err" != *"k = 1"* ]]; then
        echo "$bin 1: exit $rc ($err), want 2 naming k = 1" >&2
        exit 1
    fi
done

echo "== telemetry smoke: --trace-json emits a schema-valid trace =="
# Generate a small Mastrovito/Montgomery pair, run an equivalence check
# with JSONL tracing, and validate the trace with the binary's own strict
# parser (every line must parse and carry exactly the documented fields).
# The root span must name the rung that decided: word-level matching.
GFAB=target/release/gfab
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
"$GFAB" gen mastrovito --k 16 -o "$TRACE_DIR/spec.nl"
"$GFAB" gen montgomery --k 16 -o "$TRACE_DIR/impl.nl"
"$GFAB" equiv "$TRACE_DIR/spec.nl" "$TRACE_DIR/impl.nl" --k 16 \
    --trace-json "$TRACE_DIR/trace.jsonl" > /dev/null
"$GFAB" trace-check "$TRACE_DIR/trace.jsonl"
grep '"parent":null' "$TRACE_DIR/trace.jsonl" | grep -q '"rung":"word"'

echo "== examples: build (release) and run all five =="
# Each takes milliseconds and must exit 0. quickstart lists the model of
# Example 4.2, the one place the program prints a model's net names: the
# ring names only the words, so the listing looks the nets up in the
# netlist, and must read exactly as below.
cargo build --release --offline --examples
for ex in quickstart verify_multiplier hierarchical_montgomery bug_hunting reverse_engineer; do
    target/release/examples/$ex > "$TRACE_DIR/example_$ex.txt"
done
sed -n '/^polynomial model under RATO/,+10p' "$TRACE_DIR/example_quickstart.txt" \
    | diff -u - /dev/fd/3 3<<'MODEL' || { echo "quickstart: model listing changed" >&2; exit 1; }
polynomial model under RATO (f_1 ... f_10):
  s0 + a0*b0
  s1 + a0*b1
  s2 + a1*b0
  s3 + a1*b1
  r0 + s1 + s2
  z0 + s0 + s3
  z1 + s3 + r0
  z0 + α*z1 + Z
  a0 + α*a1 + A
  b0 + α*b1 + B
MODEL

echo "== trace-diff smoke: self-comparison has zero deltas =="
# A trace diffed against itself must gate clean at threshold 0 and show
# no field deltas at all; and the same workload at a different thread
# count must show zero *work-unit* delta per phase (work units are
# deterministic — the property the CI perf gate is built on).
"$GFAB" trace-diff "$TRACE_DIR/trace.jsonl" "$TRACE_DIR/trace.jsonl" \
    --threshold 0 > "$TRACE_DIR/selfdiff.txt"
if grep -q ' -> ' "$TRACE_DIR/selfdiff.txt"; then
    echo "trace-diff self-comparison shows deltas:" >&2
    cat "$TRACE_DIR/selfdiff.txt" >&2
    exit 1
fi
"$GFAB" equiv "$TRACE_DIR/spec.nl" "$TRACE_DIR/impl.nl" --k 16 --threads 2 \
    --trace-json "$TRACE_DIR/trace2.jsonl" > /dev/null
"$GFAB" trace-diff "$TRACE_DIR/trace.jsonl" "$TRACE_DIR/trace2.jsonl" --threshold 0

echo "== batch smoke: manifest run, per-query verdicts, warm cache =="
# A small manifest with a duplicate query and shared Montgomery
# sub-blocks: the batch must exit 0, answer duplicates from the artifact
# cache (nonzero hits), and a second in-process pass (--repeat 2) must
# compute zero new work units.
cat > "$TRACE_DIR/batch.json" <<'MANIFEST'
{
  "field": {"k": 8},
  "queries": [
    {"name": "mont-eq",   "op": "equiv",
     "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
    {"name": "mont-dup",  "op": "equiv",
     "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
    {"name": "squarer",   "op": "extract", "circuit": {"gen": "squarer"}},
    {"name": "from-file", "op": "extract", "circuit": "spec.nl", "field": {"k": 16}}
  ]
}
MANIFEST
"$GFAB" batch "$TRACE_DIR/batch.json" --threads 2 --repeat 2 > "$TRACE_DIR/batch.out"
grep -q '"query":"mont-dup".*"verdict":"equivalent"' "$TRACE_DIR/batch.out"
hits=$(grep -o '"hits":[0-9]*' "$TRACE_DIR/batch.out" | head -1 | tr -dc 0-9)
if [ "${hits:-0}" -eq 0 ]; then
    echo "batch smoke: expected nonzero artifact-cache hits" >&2
    cat "$TRACE_DIR/batch.out" >&2
    exit 1
fi
warm=$(grep '"pass":1' "$TRACE_DIR/batch.out" | grep -o '"work_units":[0-9]*' | tr -dc 0-9)
if [ "${warm:-1}" -ne 0 ]; then
    echo "batch smoke: warm pass computed $warm work units, expected 0" >&2
    exit 1
fi

echo "== differential + mutation-kill battery (release, wall-budgeted) =="
# Three independent engines (word-level Verifier, SAT miter, exhaustive
# simulation) must agree on every seeded circuit, and every injected bug
# must be killed. Release mode keeps the battery fast; `timeout` bounds
# the whole step so a pathological regression fails CI instead of
# wedging it.
timeout 600 cargo test -q --offline --release \
    --test differential_engines --test mutation_kill --test budgeted_verification

echo "== fuzz smoke: seeded differential campaign, ~30s =="
# Two seeded campaigns through the real binary. The clean sweep
# (--fault-rate 0) runs every architecture, including the structurally
# random pool, and must produce zero catches and zero cross-engine
# findings; the faulted sweep must catch at least one injected fault
# (still with zero findings — a finding means two engines disagree,
# which is a bug in an engine, not in the specimen). One shrunk corpus
# case is then replayed from its JSON file and must still reproduce.
"$GFAB" fuzz --seed 1001 --cases 30 --k-min 4 --k-max 8 --fault-rate 0 \
    --threads 2 > "$TRACE_DIR/fuzz_clean.json"
grep -q '"caught":0,"benign":0,"clean":30,"findings":0' "$TRACE_DIR/fuzz_clean.json" || {
    echo "fuzz smoke: clean campaign not clean:" >&2
    cat "$TRACE_DIR/fuzz_clean.json" >&2
    exit 1
}
"$GFAB" fuzz --seed 1002 --cases 24 --k-min 6 --k-max 8 --fault-rate 100 \
    --threads 2 --corpus "$TRACE_DIR/fuzz_corpus" > "$TRACE_DIR/fuzz_bad.json"
caught=$(grep -o '"caught":[0-9]*' "$TRACE_DIR/fuzz_bad.json" | head -1 | tr -dc 0-9)
findings=$(grep -o '"findings":[0-9]*' "$TRACE_DIR/fuzz_bad.json" | head -1 | tr -dc 0-9)
if [ "${caught:-0}" -eq 0 ] || [ "${findings:-1}" -ne 0 ]; then
    echo "fuzz smoke: faulted campaign caught=$caught findings=$findings (want >0 / 0)" >&2
    exit 1
fi
first_case=$(ls "$TRACE_DIR"/fuzz_corpus/case-*.json | head -1)
"$GFAB" fuzz --replay "$first_case" > /dev/null

echo "== cross-run observability smoke: trace-agg, flame, ledger =="
# A batch run and a small clean fuzz sweep, both writing merged traces
# and appending to one shared ledger of root span lines; then the three
# cross-run views must all work: trace-agg emits a v5 agg document that
# trace-check accepts, flame reports a critical path (and exports folded
# stacks), trace-check accepts the ledger, and report renders the
# accumulated ledger dashboard.
"$GFAB" batch "$TRACE_DIR/batch.json" --threads 2 \
    --trace-json "$TRACE_DIR/batch_trace.jsonl" \
    --ledger "$TRACE_DIR/ledger.jsonl" > /dev/null
"$GFAB" fuzz --seed 1003 --cases 6 --k-min 4 --k-max 6 --fault-rate 0 \
    --threads 2 --trace-json "$TRACE_DIR/fuzz_trace.jsonl" \
    --ledger "$TRACE_DIR/ledger.jsonl" > /dev/null
"$GFAB" trace-agg "$TRACE_DIR/batch_trace.jsonl" "$TRACE_DIR/fuzz_trace.jsonl" \
    --group-by k --json "$TRACE_DIR/agg.jsonl" > /dev/null
"$GFAB" trace-check "$TRACE_DIR/agg.jsonl"
"$GFAB" flame "$TRACE_DIR/batch_trace.jsonl" --critical-path \
    | grep -q 'critical path:'
"$GFAB" flame "$TRACE_DIR/batch_trace.jsonl" --out folded \
    | grep -q '[a-z] [0-9]'
"$GFAB" trace-check "$TRACE_DIR/ledger.jsonl" | grep -q '^valid ledger: '
"$GFAB" report "$TRACE_DIR/ledger.jsonl" > "$TRACE_DIR/report.txt"
# The verdict mix must show both producers: batch's equivalence verdicts
# and the fuzz campaign's clean-sweep row.
grep -q 'row(s) across' "$TRACE_DIR/report.txt"
grep -q 'equivalent' "$TRACE_DIR/report.txt"
grep -q 'clean' "$TRACE_DIR/report.txt"

echo "== live events smoke: --events stream, piped --progress, report --follow =="
# A batch run with both live sinks on, stdout/stderr piped (so the
# binary sees no terminal): the event stream must validate as a strict
# v5 NDJSON document, and nothing written anywhere may contain an ANSI
# escape byte. Then `report --follow --iterations 1` renders the ledger
# once and exits.
"$GFAB" batch "$TRACE_DIR/batch.json" --threads 2 --progress \
    --events "$TRACE_DIR/events.jsonl" --ledger "$TRACE_DIR/watch_ledger.jsonl" \
    > "$TRACE_DIR/live_out.txt" 2> "$TRACE_DIR/live_err.txt"
"$GFAB" trace-check "$TRACE_DIR/events.jsonl" | grep -q 'valid events'
if grep -q $'\x1b' "$TRACE_DIR/live_out.txt" "$TRACE_DIR/live_err.txt"; then
    echo "live smoke: piped --progress leaked an ANSI escape" >&2
    exit 1
fi
grep -q '^progress:' "$TRACE_DIR/live_err.txt"
"$GFAB" report "$TRACE_DIR/watch_ledger.jsonl" --follow --iterations 1 \
    | grep -q 'row(s) across'

echo "== perf gate: pinned span traces vs committed baselines =="
# Exact work units via trace-diff in both directions; wall time and
# memory never gate, so this step is stable on any CI machine.
scripts/perf_gate.sh

echo "CI OK"
