//! Integration tests for the trace comparison tooling:
//!
//! * `gfab trace-diff` — alignment by phase path, deterministic
//!   work-unit gating across thread counts, rejection of pre-v5 files,
//!   mutation-style regression detection in both directions (the perf
//!   gate's exact check), and overflow-proof sums;
//! * `gfab trace-check` — line number *and* field path on corrupted
//!   traces, ledgers and event streams, and torn final lines.
//!
//! The binary is spawned for real (via `CARGO_BIN_EXE_gfab`), traces are
//! produced by its own `equiv --trace-json`, and both the exit status and
//! the shape of stdout/stderr are asserted.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gfab"))
        .args(args)
        .output()
        .expect("gfab binary spawns")
}

fn code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("gfab exits normally, not by signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfab-trace-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fixture(arch: &str, k: usize) -> PathBuf {
    let path = temp_dir().join(format!("{arch}{k}.nl"));
    if !path.exists() {
        let out = run(&[
            "gen",
            arch,
            "--k",
            &k.to_string(),
            "-o",
            path.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "gen {arch} k={k} failed: {}", stderr(&out));
    }
    path
}

/// Runs `equiv` on the k=16 Mastrovito/Montgomery pair with the given
/// thread count, writing (and returning) a JSONL trace.
fn equiv_trace(threads: usize, name: &str) -> PathBuf {
    let spec = fixture("mastrovito", 16);
    let impl_ = fixture("montgomery", 16);
    let trace = temp_dir().join(name);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--k",
        "16",
        "--threads",
        &threads.to_string(),
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "equiv failed: {}", stderr(&out));
    trace
}

#[test]
fn trace_diff_is_work_identical_across_thread_counts() {
    // The ISSUE's acceptance criterion: the same workload at --threads 1
    // and --threads 2 must show zero work-unit delta in every phase, so a
    // CI gate on work units is stable on any runner.
    let a = equiv_trace(1, "threads1.jsonl");
    let b = equiv_trace(2, "threads2.jsonl");
    let out = run(&[
        "trace-diff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--threshold",
        "0",
    ]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("guided-reduction"), "stdout: {text}");
    assert!(text.contains("OK"), "stdout: {text}");
    // Every work delta is zero.
    for line in text.lines().filter(|l| l.contains("check/")) {
        assert!(line.contains("+0"), "nonzero work delta: {line}");
    }
}

#[test]
fn trace_diff_self_comparison_reports_zero_deltas() {
    let a = equiv_trace(1, "self.jsonl");
    let out = run(&["trace-diff", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    // Without --threshold the diff is informational; a self-diff must not
    // show a single nonzero work delta or counter line.
    for line in text.lines().skip(1) {
        assert!(
            !line.contains("->"),
            "self-diff shows a field delta: {line}"
        );
    }
}

#[test]
fn inflated_counter_trips_the_gate_and_names_the_phase() {
    // Mutation-style test: inflate the reduction-steps counter of the
    // baseline's guided-reduction span and assert the gate fails naming
    // exactly that phase.
    let base = equiv_trace(1, "mutation-base.jsonl");
    let text = std::fs::read_to_string(&base).expect("trace readable");
    let line = text
        .lines()
        .find(|l| l.contains("guided-reduction") && l.contains("\"reduction-steps\":"))
        .expect("trace has a guided-reduction span with steps");
    let steps: u64 = {
        let tail = &line[line.find("\"reduction-steps\":").unwrap() + 18..];
        tail[..tail.find(|c: char| !c.is_ascii_digit()).unwrap()]
            .parse()
            .expect("numeric steps")
    };
    let mutated = text.replace(
        &format!("\"reduction-steps\":{steps}"),
        &format!("\"reduction-steps\":{}", steps * 2),
    );
    let cur = temp_dir().join("mutation-inflated.jsonl");
    std::fs::write(&cur, mutated).expect("write mutated trace");

    let out = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--threshold",
        "10",
    ]);
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("REGRESSION") && text.contains("guided-reduction"),
        "stdout: {text}"
    );
    // Only the mutated phase regresses.
    assert_eq!(
        text.lines().filter(|l| l.starts_with("REGRESSION")).count(),
        1,
        "stdout: {text}"
    );
    // The same pair under a generous threshold passes.
    let out = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--threshold",
        "200",
    ]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));

    // A counter lowered by one passes A -> B and fails B -> A: why the
    // perf gate runs `--threshold 0` in both directions.
    let lowered = temp_dir().join("mutation-lowered.jsonl");
    let trace = std::fs::read_to_string(&base).expect("trace readable");
    std::fs::write(
        &lowered,
        trace.replace(
            &format!("\"reduction-steps\":{steps}"),
            &format!("\"reduction-steps\":{}", steps - 1),
        ),
    )
    .expect("write lowered trace");
    let diff = |a: &PathBuf, b: &PathBuf| {
        run(&[
            "trace-diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--threshold",
            "0",
        ])
    };
    let out = diff(&base, &lowered);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    let out = diff(&lowered, &base);
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("REGRESSION check/extract/guided-reduction"),
        "stdout: {}",
        stdout(&out)
    );

    // Sums over file records never wrap: two model-build spans of 2^63
    // gates each would sum to 0 and hide the regression; instead the
    // diff is an error naming the side, phase path and counter.
    let huge = temp_dir().join("mutation-overflow.jsonl");
    std::fs::write(&huge, twin_trace(1 << 63, 1)).expect("write overflow trace");
    let out = run(&["trace-check", huge.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "each record is valid: {}", stderr(&out));
    let out = diff(&base, &huge);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains("current trace")
            && err.contains("extract/model-build")
            && err.contains("gates"),
        "{err}"
    );
    // Histograms saturate instead: 2^63 + 2^63 samples read as u64::MAX,
    // not as an empty distribution.
    let (small, big) = (
        temp_dir().join("hist-small.jsonl"),
        temp_dir().join("hist-big.jsonl"),
    );
    std::fs::write(&small, twin_trace(1, 1)).expect("write histogram trace");
    std::fs::write(&big, twin_trace(1, 1 << 63)).expect("write histogram trace");
    let out = diff(&small, &big);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("n 2 -> 18446744073709551615"),
        "stdout: {}",
        stdout(&out)
    );
}

/// A three-span trace: an `extract` root over two `model-build` spans,
/// each carrying `gates` gates and a `division-chain-len` histogram of
/// `samples` samples of 1.
fn twin_trace(gates: u64, samples: u64) -> String {
    let child = |id: u64| {
        format!(
            "{{\"type\":\"span\",\"id\":{id},\"parent\":1,\"phase\":\"model-build\",\
             \"label\":null,\"thread\":0,\"start_us\":0,\"dur_us\":5,\
             \"counters\":{{\"gates\":{gates}}},\"gauges\":{{}},\
             \"hists\":{{\"division-chain-len\":{{\"count\":{samples},\"sum\":{samples},\
             \"min\":1,\"max\":1,\"buckets\":[{samples},0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}}}}\n"
        )
    };
    format!(
        "{{\"type\":\"trace\",\"version\":5,\"spans\":3}}\n\
         {{\"type\":\"span\",\"id\":1,\"parent\":null,\"phase\":\"extract\",\
         \"label\":\"mastrovito_16\",\"thread\":0,\"start_us\":0,\"dur_us\":10,\
         \"counters\":{{}},\"gauges\":{{}},\"hists\":{{}}}}\n{}{}",
        child(2),
        child(3)
    )
}

/// A hand-written v5 trace: two spans shaped like an `extract` run.
const V5_TRACE: &str = concat!(
    "{\"type\":\"trace\",\"version\":5,\"spans\":2}\n",
    "{\"type\":\"span\",\"id\":1,\"parent\":null,\"phase\":\"extract\",\"label\":\"old\",",
    "\"thread\":0,\"start_us\":0,\"dur_us\":1000,\"counters\":{\"gates\":12},",
    "\"gauges\":{},\"hists\":{}}\n",
    "{\"type\":\"span\",\"id\":2,\"parent\":1,\"phase\":\"guided-reduction\",\"label\":null,",
    "\"thread\":0,\"start_us\":10,\"dur_us\":900,\"counters\":{\"reduction-steps\":500},",
    "\"gauges\":{\"mem-peak-bytes\":4096},\"hists\":{}}\n",
);

#[test]
fn trace_diff_rejects_pre_v4_traces_and_aligns_renamed_blocks() {
    let base = temp_dir().join("v5-base.jsonl");
    std::fs::write(&base, V5_TRACE).expect("write v5 trace");
    // The current run renamed the labelled block: alignment is by phase
    // path, so this must not split the rows.
    let cur = temp_dir().join("v5-renamed.jsonl");
    std::fs::write(
        &cur,
        V5_TRACE.replace("\"label\":\"old\"", "\"label\":\"renamed\""),
    )
    .expect("write renamed trace");
    let out = run(&[
        "trace-diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--threshold",
        "0",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("OK"), "stdout: {text}");
    assert_eq!(text.lines().filter(|l| l.starts_with("extract")).count(), 2);

    // Only version 5 is read: a v1 to v4 header fails naming the line
    // and `version`, on either side of the diff.
    for version in 1..=4 {
        let old = temp_dir().join(format!("v{version}-base.jsonl"));
        std::fs::write(
            &old,
            V5_TRACE.replace("\"version\":5", &format!("\"version\":{version}")),
        )
        .expect("write old trace");
        for (a, b) in [(&old, &cur), (&cur, &old)] {
            let out = run(&["trace-diff", a.to_str().unwrap(), b.to_str().unwrap()]);
            assert_eq!(code(&out), 2, "v{version}: stdout: {}", stdout(&out));
            let err = stderr(&out);
            assert!(err.contains("line 1, field version"), "v{version}: {err}");
        }
    }
}

#[test]
fn trace_check_names_line_and_field_path() {
    // Corrupt a real trace: drop one bucket from a histogram array so the
    // error must name both the JSONL line and the field path into the
    // nested histogram object.
    let good = equiv_trace(1, "check-good.jsonl");
    let text = std::fs::read_to_string(&good).expect("trace readable");
    assert!(text.contains("\"hists\":{"), "v2 traces carry hists");
    let line_no = text
        .lines()
        .position(|l| l.contains("\"buckets\":["))
        .expect("some span has a histogram")
        + 1;
    let corrupted = text.replacen("\"buckets\":[", "\"buckets\":[1,", 1);
    let bad = temp_dir().join("check-corrupt.jsonl");
    std::fs::write(&bad, corrupted).expect("write corrupted trace");
    let out = run(&["trace-check", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains(&format!("line {line_no}")), "stderr: {err}");
    assert!(err.contains("buckets"), "stderr: {err}");
    // The pristine file still validates.
    let out = run(&["trace-check", good.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).starts_with("valid trace:"), "{}", stdout(&out));

    // A ledger goes through the same reader: a bad field mid-file fails
    // naming its line and field, and a torn final line is tolerated and
    // reported.
    let spec = fixture("mastrovito", 16);
    let ledger = temp_dir().join("check-ledger.jsonl");
    let _ = std::fs::remove_file(&ledger);
    for _ in 0..2 {
        let out = run(&[
            "extract",
            spec.to_str().unwrap(),
            "--k",
            "16",
            "--ledger",
            ledger.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    }
    let rows = std::fs::read_to_string(&ledger).expect("ledger readable");
    let out = run(&["trace-check", ledger.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("valid ledger: 2 row(s) across 2 run(s)"),
        "{}",
        stdout(&out)
    );
    let lines: Vec<&str> = rows.lines().collect();
    let bad_row = lines[1].replace("\"k\":16", "\"k\":\"sixteen\"");
    let bad = temp_dir().join("check-ledger-bad.jsonl");
    std::fs::write(&bad, format!("{}\n{bad_row}\n{}\n", lines[0], lines[0])).expect("write");
    let out = run(&["trace-check", bad.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("line 2, field attrs.k"),
        "{}",
        stderr(&out)
    );
    let torn = temp_dir().join("check-ledger-torn.jsonl");
    std::fs::write(&torn, format!("{rows}{{\"type\":\"run\",\"vers")).expect("write");
    let out = run(&["trace-check", torn.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("valid ledger: 2 row(s)"), "{text}");
    assert!(text.contains("torn final line 3 ignored"), "{text}");

    // An --events stream read mid-run can end part-way through a line:
    // it validates as in flight.
    let events = temp_dir().join("check-events.jsonl");
    let out = run(&[
        "extract",
        spec.to_str().unwrap(),
        "--k",
        "16",
        "--events",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let stream = std::fs::read_to_string(&events).expect("events readable");
    let last_event = stream.rfind("{\"type\":\"event\"").expect("an event line");
    let cut = temp_dir().join("check-events-cut.jsonl");
    std::fs::write(&cut, &stream[..last_event + 20]).expect("write");
    let out = run(&["trace-check", cut.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("valid events") && text.contains("in-flight"),
        "{text}"
    );
    assert!(text.contains("torn final line"), "{text}");
}

#[test]
fn diff_usage_errors_exit_two() {
    let out = run(&["trace-diff", "only-one.jsonl"]);
    assert_eq!(code(&out), 2);
    let out = run(&["trace-diff", "a.jsonl", "b.jsonl", "--threshold", "lots"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("bad threshold"),
        "stderr: {}",
        stderr(&out)
    );
    // A threshold that is not a finite percentage would let every
    // regression pass the gate.
    for value in ["nan", "inf", "NaN%"] {
        let out = run(&["trace-diff", "a.jsonl", "b.jsonl", "--threshold", value]);
        assert_eq!(code(&out), 2, "trace-diff --threshold {value}");
        let err = stderr(&out);
        assert!(err.contains("--threshold") && err.contains(value), "{err}");
    }
}
