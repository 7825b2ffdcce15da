//! Integration tests for the cross-run observability tools: trace
//! aggregation (`gfab trace-agg`), flamegraph export and critical-path
//! analysis (`gfab flame`), and the invariants that make them
//! trustworthy —
//!
//! * histogram merging is associative and commutative, so aggregating
//!   trace shards in any grouping or order gives identical results;
//! * aggregating shards separately is *byte-identical* to aggregating
//!   the merged whole, checked both in-process and through the binary;
//! * folded flamegraph output round-trips through its strict parser;
//! * the critical path of a hand-built concurrent span tree matches the
//!   known answer, and on a real `--threads 8` batch trace it is
//!   bounded by the wall clock below and the longest span above.

use gfab::telemetry::{
    critical_path, folded, parse_folded, Counter, GroupBy, HistData, Phase, SpanRecord, Trace,
    TraceAgg,
};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gfab"))
        .args(args)
        .output()
        .expect("gfab binary spawns")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("gfab exits normally")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfab-trace-agg-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A small span tree with concurrent extraction shards, as one
/// equivalence check produces: root on thread 0, two overlapping
/// children on worker threads, a serial simulation tail.
fn sample_trace(salt: u64) -> Trace {
    let mk = |id, parent, phase, thread, start_us: u64, dur_us: u64| SpanRecord {
        id,
        parent,
        phase,
        label: None,
        thread,
        start: Duration::from_micros(start_us),
        duration: Duration::from_micros(dur_us),
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
        attrs: Vec::new(),
    };
    let mut root = mk(1, None, Phase::Check, 0, 0, 1000 + salt);
    root.label = Some(format!("mastrovito_{}", 8 + salt));
    let mut ea = mk(2, Some(1), Phase::Extract, 1, 0, 600);
    ea.counters = vec![(Counter::ReductionSteps, 40 + salt)];
    let mut eb = mk(3, Some(1), Phase::Extract, 2, 0, 400 + salt);
    eb.counters = vec![(Counter::ReductionSteps, 25)];
    let mut sim = mk(4, Some(1), Phase::Simulation, 1, 650, 200);
    sim.counters = vec![(Counter::SimVectors, 64)];
    Trace::from_spans(vec![root, ea, eb, sim])
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    let hist = |values: &[u64]| {
        let mut h = HistData::new();
        for &v in values {
            h.record(v);
        }
        h
    };
    let (a, b, c) = (
        hist(&[1, 7, 130, 5000]),
        hist(&[2, 2, 90000]),
        hist(&[1_000_000]),
    );
    // (a ∪ b) ∪ c == a ∪ (b ∪ c)
    let mut left = a;
    left.merge(&b);
    left.merge(&c);
    let mut bc = b;
    bc.merge(&c);
    let mut right = a;
    right.merge(&bc);
    assert_eq!(left, right, "merge must be associative");
    // a ∪ b == b ∪ a
    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    assert_eq!(ab, ba, "merge must be commutative");
    // Merged percentiles equal whole-population percentiles.
    let whole = hist(&[1, 7, 130, 5000, 2, 2, 90000]);
    for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
        assert_eq!(ab.percentile(p), whole.percentile(p), "p{p}");
    }
}

#[test]
fn aggregating_shards_equals_aggregating_the_whole() {
    let (s1, s2) = (sample_trace(0), sample_trace(3));
    // The "whole" is both shards in one trace, second shifted in time
    // (shifts must not matter: aggregation sees only durations).
    let whole = Trace::merged([(&s1, Duration::ZERO), (&s2, Duration::from_micros(1500))]);
    for group_by in [GroupBy::Phase, GroupBy::K, GroupBy::Arch] {
        let mut sharded = TraceAgg::new(group_by);
        sharded.add_trace(&s1).unwrap();
        sharded.add_trace(&s2).unwrap();
        let mut unsharded = TraceAgg::new(group_by);
        unsharded.add_trace(&whole).unwrap();
        assert_eq!(
            sharded.to_jsonl(),
            unsharded.to_jsonl(),
            "byte-identical aggregation for {group_by:?}"
        );
    }
}

#[test]
fn binary_trace_agg_is_shard_order_invariant_and_checkable() {
    let dir = temp_dir();
    let (s1, s2) = (sample_trace(0), sample_trace(3));
    let whole = Trace::merged([(&s1, Duration::ZERO), (&s2, Duration::from_micros(1500))]);
    let p1 = dir.join("shard1.jsonl");
    let p2 = dir.join("shard2.jsonl");
    let pw = dir.join("whole.jsonl");
    std::fs::write(&p1, s1.to_jsonl()).unwrap();
    std::fs::write(&p2, s2.to_jsonl()).unwrap();
    std::fs::write(&pw, whole.to_jsonl()).unwrap();

    let agg = |inputs: &[&PathBuf], out: &PathBuf| {
        let mut args = vec!["trace-agg"];
        args.extend(inputs.iter().map(|p| p.to_str().unwrap()));
        args.extend(["--json", out.to_str().unwrap()]);
        let o = run(&args);
        assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
        std::fs::read(out).unwrap()
    };
    let out_a = dir.join("agg-shards.jsonl");
    let out_b = dir.join("agg-shards-rev.jsonl");
    let out_w = dir.join("agg-whole.jsonl");
    let shards = agg(&[&p1, &p2], &out_a);
    let shards_rev = agg(&[&p2, &p1], &out_b);
    let unsharded = agg(&[&pw], &out_w);
    assert_eq!(shards, shards_rev, "shard order must not matter");
    assert_eq!(shards, unsharded, "shards vs whole must be byte-identical");

    // trace-check recognizes and validates the agg document.
    let o = run(&["trace-check", out_a.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    assert!(stdout(&o).contains("valid agg"), "stdout: {}", stdout(&o));

    // A tampered work-unit total must be rejected (exit 2).
    let text = String::from_utf8(shards).unwrap();
    let tampered = text.replacen("\"work_units\":", "\"work_units\":9", 1);
    assert_ne!(text, tampered, "tamper must change the document");
    std::fs::write(&out_a, tampered).unwrap();
    let o = run(&["trace-check", out_a.to_str().unwrap()]);
    assert_eq!(code(&o), 2, "stdout: {}", stdout(&o));

    // Sums over records never wrap: two extraction spans of 2^63 gates
    // each exit 2 naming the group and counter, and write no document.
    let mut spans = sample_trace(0).spans().to_vec();
    for s in &mut spans[1..3] {
        s.counters = vec![(Counter::Gates, 1 << 63)];
    }
    let huge = dir.join("huge.jsonl");
    std::fs::write(&huge, Trace::from_spans(spans).to_jsonl()).unwrap();
    let out_h = dir.join("agg-huge.jsonl");
    let o = run(&[
        "trace-agg",
        huge.to_str().unwrap(),
        "--json",
        out_h.to_str().unwrap(),
    ]);
    assert_eq!(code(&o), 2, "stdout: {}", stdout(&o));
    let err = stderr(&o);
    assert!(
        err.contains("group check/extract") && err.contains("gates"),
        "{err}"
    );
    assert!(!out_h.exists(), "no agg document for an overflowing sum");
}

#[test]
fn folded_stacks_round_trip_and_preserve_total_time() {
    let t = sample_trace(0);
    let text = folded(&t);
    let rows = parse_folded(&text).expect("folded output parses strictly");
    // Folded weights are exactly the spans' self times (concurrent
    // children can exceed their parent, so the parent's self time
    // saturates at zero rather than going negative).
    let total: u64 = rows.iter().map(|(_, w)| w).sum();
    let self_total: u64 = t
        .spans()
        .iter()
        .map(|s| t.self_time(s).as_micros() as u64)
        .sum();
    assert!(total > 0);
    assert_eq!(total, self_total, "folded weights are the self times");
    // Every stack's leaf frame is a known phase slug (possibly labeled).
    for (frames, _) in &rows {
        let leaf = frames.last().unwrap();
        let slug = leaf.split('[').next().unwrap();
        assert!(
            gfab::telemetry::Phase::from_slug(slug).is_some(),
            "unknown frame slug {leaf:?}"
        );
    }
}

#[test]
fn critical_path_of_known_concurrent_tree() {
    // Two concurrent 600/400µs extractions under a 1000µs root, then a
    // 200µs simulation starting at 650µs. Ignoring the root (the longest
    // single span at 1000µs), the best chain is 600µs extract → 200µs
    // sim = 800µs; with the root present the root itself wins.
    let t = sample_trace(0);
    let cp = critical_path(&t);
    assert_eq!(cp.wall_us, 1000);
    assert_eq!(cp.path_us, 1000, "the root span is itself a chain");
    assert_eq!(cp.span_ids, vec![1]);

    let children: Vec<SpanRecord> = t
        .spans()
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| {
            let mut s = s.clone();
            s.parent = None;
            s
        })
        .collect();
    let cp = critical_path(&Trace::from_spans(children));
    assert_eq!(cp.path_us, 800, "600us extract then 200us simulation");
    assert_eq!(cp.span_ids, vec![2, 4]);
    let longest = 600;
    assert!(cp.path_us >= longest && cp.path_us <= cp.wall_us);
}

#[test]
fn ledger_accumulates_runs_and_reports_drift() {
    let dir = temp_dir();
    let nl = dir.join("sq4.nl");
    let o = run(&["gen", "squarer", "--k", "4", "-o", nl.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    let ledger = dir.join("ledger.jsonl");
    let _ = std::fs::remove_file(&ledger);
    // The same command twice: two rows, one run each, same fingerprint.
    for _ in 0..2 {
        let o = run(&[
            "extract",
            nl.to_str().unwrap(),
            "--k",
            "4",
            "--ledger",
            ledger.to_str().unwrap(),
        ]);
        assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    }
    let text = std::fs::read_to_string(&ledger).unwrap();
    assert_eq!(text.lines().count(), 2, "one row per run: {text}");
    assert!(text.contains("\"cmd\":\"extract\""), "{text}");
    assert!(text.contains("\"verdict\":\"extracted\""), "{text}");
    assert!(text.contains("\"k\":4"), "{text}");

    let o = run(&["report", ledger.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    let report = stdout(&o);
    assert!(report.contains("2 row(s) across 2 run(s)"), "{report}");
    assert!(report.contains("extracted"), "{report}");
    assert!(report.contains("k4"), "{report}");
    // Identical deterministic work on both runs: drift is +0.
    assert!(
        report.contains("Work-unit drift") && report.contains("+0"),
        "{report}"
    );
    // Markdown mode renders pipe tables.
    let o = run(&["report", ledger.to_str().unwrap(), "--md"]);
    assert_eq!(code(&o), 0);
    assert!(stdout(&o).contains("| verdict | rows |"), "{}", stdout(&o));

    // A torn final line (crash mid-append) is tolerated and reported.
    std::fs::write(&ledger, format!("{text}{{\"type\":\"run\",\"trunc")).unwrap();
    let o = run(&["report", ledger.to_str().unwrap()]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    assert!(
        stdout(&o).contains("torn final line ignored"),
        "{}",
        stdout(&o)
    );
}

#[test]
fn batch_trace_critical_path_is_bounded() {
    // The ISSUE acceptance check: on a --threads 8 batch trace the
    // reported critical path is <= the total wall clock and >= the
    // longest single span.
    let dir = temp_dir();
    let manifest = dir.join("cp_batch.json");
    std::fs::write(
        &manifest,
        r#"{
            "field": {"k": 8},
            "queries": [
                {"name": "m1", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
                {"name": "sq", "op": "extract", "circuit": {"gen": "squarer"}},
                {"name": "ad", "op": "extract", "circuit": {"gen": "adder"}},
                {"name": "mv", "op": "extract", "circuit": {"gen": "mastrovito"}}
            ]
        }"#,
    )
    .unwrap();
    let trace_path = dir.join("cp_batch_trace.jsonl");
    let o = run(&[
        "batch",
        manifest.to_str().unwrap(),
        "--threads",
        "8",
        "--trace-json",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = Trace::from_jsonl(&text).expect("batch trace parses strictly");
    let longest_span_us = trace
        .spans()
        .iter()
        .map(|s| s.duration.as_micros() as u64)
        .max()
        .expect("batch trace has spans");

    let o = run(&["flame", trace_path.to_str().unwrap(), "--critical-path"]);
    assert_eq!(code(&o), 0, "stderr: {}", stderr(&o));
    let report = stdout(&o);
    // "critical path: <path>us of <wall>us wall (..%), n of m span(s)"
    let nums: Vec<u64> = report
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    let (path_us, wall_us) = (nums[0], nums[1]);
    assert!(path_us <= wall_us, "critical path exceeds wall: {report:?}");
    assert!(
        path_us >= longest_span_us,
        "critical path {path_us}us below longest span {longest_span_us}us: {report:?}"
    );

    // Both flamegraph exports succeed on the same trace.
    let o = run(&["flame", trace_path.to_str().unwrap()]);
    assert_eq!(code(&o), 0);
    parse_folded(&stdout(&o)).expect("folded export parses");
    let o = run(&["flame", trace_path.to_str().unwrap(), "--out", "speedscope"]);
    assert_eq!(code(&o), 0);
    assert!(stdout(&o).contains("speedscope.app/file-format-schema.json"));
}
