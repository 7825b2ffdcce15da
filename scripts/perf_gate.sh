#!/usr/bin/env bash
# CI perf-regression gate: re-runs the pinned workloads (scripts/bench.sh)
# into a temp directory and compares each span trace with its committed
# baseline (BENCH_*.jsonl in the repo root) by `gfab trace-diff
# --threshold 0` in both directions. BASE -> CUR fails on a phase path
# whose work units grew or appeared; CUR -> BASE on one that shrank or
# vanished, such as a missing row. Every pin is therefore exact.
#
# Only work units gate: deterministic effort counters, bit-identical
# across machines and thread counts. Wall time and memory never fail the
# gate, so it is safe on any CI machine. Verdicts are checked where they
# are produced: a wrong table answer or a fuzz finding fails bench.sh.
#
# After a change that moves work on purpose, re-pin with scripts/bench.sh
# and commit the new baselines with it. Exit 1 on regression.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== run pinned workloads =="
BENCH_DIR="$TMP" scripts/bench.sh >/dev/null

GFAB=target/release/gfab
status=0
for name in BENCH_table1.jsonl BENCH_table2.jsonl BENCH_table3.jsonl \
    BENCH_table4.jsonl BENCH_fuzz.jsonl; do
    echo "== trace-diff $name, both directions =="
    for pair in "$name $TMP/$name" "$TMP/$name $name"; do
        read -r a b <<<"$pair"
        out=$("$GFAB" trace-diff "$a" "$b" --threshold 0 2>&1) && rc=0 || rc=$?
        if [ "$rc" -eq 0 ]; then
            echo "$a -> $b: identical work units"
        else
            echo "$out"
            [ "$rc" -gt "$status" ] && status=$rc
        fi
    done
done

echo "== live events gate: --events must not perturb work units or verdicts =="
# The same equivalence query traced with and without the live event
# stream (and an in-flight --progress board) must produce identical
# per-phase work units in both directions and the same verdict line.
# Publishing rides a bounded non-blocking channel, so any drift here
# means an event tap leaked into the deterministic computation.
"$GFAB" gen mastrovito --k 16 -o "$TMP/gate_spec.nl"
"$GFAB" gen montgomery --k 16 -o "$TMP/gate_impl.nl"
"$GFAB" equiv "$TMP/gate_spec.nl" "$TMP/gate_impl.nl" --k 16 --threads 2 \
    --trace-json "$TMP/gate_off.jsonl" | grep '^EQUIVALENT' > "$TMP/gate_off.verdict"
"$GFAB" equiv "$TMP/gate_spec.nl" "$TMP/gate_impl.nl" --k 16 --threads 2 \
    --trace-json "$TMP/gate_on.jsonl" --progress \
    --events "$TMP/gate_events.jsonl" 2>/dev/null \
    | grep '^EQUIVALENT' > "$TMP/gate_on.verdict"
"$GFAB" trace-check "$TMP/gate_events.jsonl" | grep -q 'valid events'
if ! cmp -s "$TMP/gate_off.verdict" "$TMP/gate_on.verdict"; then
    echo "perf-gate: --events changed the verdict line" >&2
    diff "$TMP/gate_off.verdict" "$TMP/gate_on.verdict" >&2 || true
    exit 1
fi
"$GFAB" trace-diff "$TMP/gate_off.jsonl" "$TMP/gate_on.jsonl" --threshold 0 >/dev/null
"$GFAB" trace-diff "$TMP/gate_on.jsonl" "$TMP/gate_off.jsonl" --threshold 0 >/dev/null
echo "live events gate OK (work units identical with events on/off)"

if [ "$status" -ne 0 ]; then
    echo "perf-gate: REGRESSION (see trace-diff output above)" >&2
    exit "$status"
fi
echo "perf-gate OK"
