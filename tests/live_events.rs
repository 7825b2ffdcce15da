//! Integration tests for the live event-streaming layer: the
//! `--progress` board must never leak ANSI escapes into a pipe, the
//! `--events` NDJSON stream must validate and must not perturb the
//! deterministic computation, and `gfab report` (with and without
//! `--follow`) must survive a concurrently appending writer.

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

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfab-live-tests-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Generates a netlist fixture via the binary's own `gen` subcommand.
fn fixture(dir: &std::path::Path, arch: &str, k: usize) -> PathBuf {
    let path = dir.join(format!("{arch}{k}.nl"));
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

#[test]
fn progress_piped_emits_plain_text_and_no_ansi_escapes() {
    // `Command::output` wires stdout/stderr to pipes, so the binary sees
    // a non-terminal and must degrade to plain periodic lines.
    let dir = scratch("ansi");
    let spec = fixture(&dir, "mastrovito", 8);
    let impl_ = fixture(&dir, "montgomery", 8);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--k",
        "8",
        "--progress",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        !out.stdout.contains(&0x1b) && !out.stderr.contains(&0x1b),
        "piped --progress output must carry no ESC byte\nstdout: {:?}\nstderr: {:?}",
        stdout(&out),
        stderr(&out)
    );
    let err = stderr(&out);
    // At least one in-flight update plus the closing summary line.
    let progress_lines = err.lines().filter(|l| l.starts_with("progress:")).count();
    assert!(progress_lines >= 2, "stderr: {err}");
    assert!(err.contains("done in"), "stderr: {err}");
}

/// One batch run's verdict lines (timing fields stripped) and its
/// deterministic work-unit total from the merged trace.
fn batch_fingerprint(manifest: &str, threads: &str, events: Option<&str>) -> (Vec<String>, u64) {
    let trace_path = format!(
        "{manifest}.trace-{threads}-{}.jsonl",
        if events.is_some() { "on" } else { "off" }
    );
    let mut args = vec![
        "batch",
        manifest,
        "--threads",
        threads,
        "--trace-json",
        &trace_path,
    ];
    if let Some(ev) = events {
        args.extend_from_slice(&["--events", ev]);
    }
    let out = run(&args);
    // The manifest includes one refuted pair, so the deterministic
    // overall exit is 1 — with or without the event stream.
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let verdicts: Vec<String> = stdout(&out)
        .lines()
        .filter(|l| l.starts_with("{\"query\":"))
        .map(|l| {
            // Everything before the queue/wall timing fields is
            // deterministic: query name, op, verdict, exit.
            l.split(",\"queue_us\":").next().unwrap().to_string()
        })
        .collect();
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    let trace = gfab::telemetry::Trace::from_jsonl(&text).expect("valid trace");
    (verdicts, trace.work_units())
}

#[test]
fn events_stream_never_perturbs_verdicts_or_work_units() {
    let dir = scratch("determinism");
    let manifest = dir.join("batch.json");
    std::fs::write(
        &manifest,
        r#"{
            "field": {"k": 8},
            "queries": [
                {"name": "mast-mont", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
                {"name": "mast-add", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "adder"}},
                {"name": "sq", "op": "extract", "circuit": {"gen": "squarer"}}
            ]
        }"#,
    )
    .expect("write manifest");
    let manifest = manifest.to_str().unwrap();
    let events_path = dir.join("events.jsonl");
    for threads in ["1", "8"] {
        let (off_verdicts, off_work) = batch_fingerprint(manifest, threads, None);
        let (on_verdicts, on_work) =
            batch_fingerprint(manifest, threads, Some(events_path.to_str().unwrap()));
        assert_eq!(
            off_verdicts, on_verdicts,
            "verdict lines must be byte-identical with --events on (threads {threads})"
        );
        assert_eq!(
            off_work, on_work,
            "work units must be identical with --events on (threads {threads})"
        );
        assert!(!off_verdicts.is_empty(), "batch produced no result lines");
    }
}

#[test]
fn events_file_validates_under_trace_check_even_without_footer() {
    let dir = scratch("stream");
    let nl = fixture(&dir, "mastrovito", 16);
    let events = dir.join("extract-events.jsonl");
    let out = run(&[
        "extract",
        nl.to_str().unwrap(),
        "--k",
        "16",
        "--events",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    let out = run(&["trace-check", events.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("valid events"), "stdout: {text}");
    assert!(text.contains("complete"), "stdout: {text}");

    // A mid-run tail has no footer yet: still a valid (in-flight) stream.
    let full = std::fs::read_to_string(&events).expect("events file");
    assert!(full.lines().last().unwrap().contains("\"events-end\""));
    let headless: String = full
        .lines()
        .take(full.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    let partial = dir.join("partial-events.jsonl");
    std::fs::write(&partial, headless).expect("write partial");
    let out = run(&["trace-check", partial.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("in-flight"),
        "stdout: {}",
        stdout(&out)
    );

    // An events-only stream opens the same spans as a traced run: the
    // `(phase, label)` sequence of `phase-enter` events is identical with
    // and without a trace collector attached.
    let spec = fixture(&dir, "mastrovito", 8);
    let impl_ = fixture(&dir, "montgomery", 8);
    let enters = |traced: bool| {
        let events = dir.join(format!("equiv-events-{traced}.jsonl"));
        let trace = dir.join("equiv-trace.jsonl");
        let mut args = vec![
            "equiv",
            spec.to_str().unwrap(),
            impl_.to_str().unwrap(),
            "--k",
            "8",
            "--threads",
            "1",
            "--events",
            events.to_str().unwrap(),
        ];
        if traced {
            args.extend(["--trace-json", trace.to_str().unwrap()]);
        }
        let out = run(&args);
        assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
        let text = std::fs::read_to_string(&events).expect("events file");
        let stream = gfab::telemetry::EventStream::from_jsonl(&text).expect("valid stream");
        stream
            .events
            .into_iter()
            .filter_map(|e| match e.kind {
                gfab::telemetry::EventKind::PhaseEnter { phase, label } => Some((phase, label)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let (plain, traced) = (enters(false), enters(true));
    assert!(
        plain.contains(&(gfab::telemetry::Phase::Extract, Some("impl".into()))),
        "{plain:?}"
    );
    assert_eq!(plain, traced);
}

#[test]
fn tiny_events_cap_reports_drops_consistently() {
    // --events-cap 1 starves the queue; whatever the race drops, the
    // stream must stay valid and the footer/stderr must agree.
    let dir = scratch("cap");
    let manifest = dir.join("batch.json");
    std::fs::write(
        &manifest,
        r#"{
            "field": {"k": 12},
            "queries": [
                {"name": "a", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
                {"name": "b", "op": "extract", "circuit": {"gen": "squarer"}}
            ]
        }"#,
    )
    .expect("write manifest");
    let events = dir.join("events.jsonl");
    let out = run(&[
        "batch",
        manifest.to_str().unwrap(),
        "--events",
        events.to_str().unwrap(),
        "--events-cap",
        "1",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&events).expect("events file");
    let stream = gfab::telemetry::EventStream::from_jsonl(&text).expect("valid stream");
    assert!(stream.complete, "finished run must write a footer");
    let dropped = stream.dropped.expect("footer carries the drop counter");
    if dropped > 0 {
        assert!(
            stderr(&out).contains("dropped under backpressure"),
            "stderr must surface {dropped} dropped event(s): {}",
            stderr(&out)
        );
    } else {
        assert!(!stderr(&out).contains("dropped under backpressure"));
    }
}

#[test]
fn report_follow_renders_and_skips_garbage_lines() {
    let dir = scratch("follow");
    let ledger = dir.join("ledger.jsonl");
    let nl = fixture(&dir, "squarer", 8);
    for _ in 0..2 {
        let out = run(&[
            "extract",
            nl.to_str().unwrap(),
            "--k",
            "8",
            "--ledger",
            ledger.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    }
    // Corruption from a hypothetical crashed writer: garbage in the
    // middle, a torn row at the end.
    let mut text = std::fs::read_to_string(&ledger).expect("ledger");
    let rows: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(rows.len(), 2);
    text = format!(
        "{}\nnot json at all\n{}\n{{\"type\":\"run\",\"tor",
        rows[0], rows[1]
    );
    std::fs::write(&ledger, text).expect("rewrite ledger");

    // The followed report, and a one-shot report, skip and count the
    // garbage line and set the torn row aside.
    for follow in [&["--follow", "--iterations", "1"][..], &[]] {
        let out = run(&[&["report", ledger.to_str().unwrap()][..], follow].concat());
        assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
        let report = stdout(&out);
        assert!(
            report.starts_with(
                "ledger: 2 row(s) across 2 run(s), 1 unparsable line(s) skipped \
                 (torn final line ignored)"
            ),
            "stdout: {report}"
        );
        let verdicts: Vec<&str> = report
            .lines()
            .skip_while(|l| *l != "Verdicts:")
            .nth(2)
            .map(|l| l.split_whitespace().collect())
            .unwrap_or_default();
        assert_eq!(verdicts, ["extracted", "2"], "stdout: {report}");
        assert!(report.contains("Latest rows:"), "stdout: {report}");
    }

    // A well-formed line of another kind of file is not a torn line:
    // report fails naming the line and what it found there.
    let trace = dir.join("trace.jsonl");
    let out = run(&[
        "extract",
        nl.to_str().unwrap(),
        "--k",
        "8",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let out = run(&["report", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains("line 1, field type") && err.contains("found a \"trace\" header"),
        "stderr: {err}"
    );
    std::fs::write(
        &ledger,
        format!("{}\n{}", rows[0], std::fs::read_to_string(&trace).unwrap()),
    )
    .expect("rewrite ledger");
    let out = run(&[
        "report",
        ledger.to_str().unwrap(),
        "--follow",
        "--iterations",
        "1",
    ]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("line 2, field type"),
        "stderr: {}",
        stderr(&out)
    );

    // Drift sums never wrap: two rows of one run at 2^63 work units each,
    // then a later run at 1, exit 2 naming the run and the counter.
    let with_work = |row: &str, work: u64| {
        let at = row.find("\"work_units\":").expect("row has work_units") + 13;
        let end = at + row[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        format!("{}{work}{}", &row[..at], &row[end..])
    };
    let big = with_work(&rows[0], 1 << 63);
    std::fs::write(
        &ledger,
        format!("{big}\n{big}\n{}\n", with_work(&rows[1], 1)),
    )
    .expect("rewrite ledger");
    let out = run(&["report", ledger.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    let run_id = {
        let at = rows[0].find("\"run\":\"").unwrap() + 7;
        &rows[0][at..at + rows[0][at..].find('"').unwrap()]
    };
    let err = stderr(&out);
    assert!(
        err.contains(&format!("run {run_id}")) && err.contains("work_units"),
        "stderr: {err}"
    );
}

#[test]
fn lenient_reader_races_a_concurrently_appending_writer() {
    use gfab::telemetry::{Ledger, LedgerRow};
    let dir = scratch("race");
    let path = dir.join("ledger.jsonl");
    let writer_path = path.clone();
    const ROWS: u64 = 300;
    let writer = std::thread::spawn(move || {
        for i in 0..ROWS {
            let row = LedgerRow {
                ts_ms: i,
                run: "race-run".into(),
                producer: "test".into(),
                cmd: "extract".into(),
                fp: "fp".into(),
                query: format!("q{i}"),
                k: 8,
                verdict: "extracted".into(),
                exit: 0,
                work_units: i,
                wall_us: 10,
                mem_peak_bytes: None,
            };
            row.append(&writer_path).expect("append row");
        }
    });
    // Hammer the reader mid-append: every snapshot must parse without
    // an error, and complete rows must only ever accumulate.
    let mut last_rows = 0usize;
    while !writer.is_finished() {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let ledger = Ledger::from_jsonl(&text, true).expect("a growing ledger reads");
        assert_eq!(
            ledger.skipped, 0,
            "line-atomic appends never produce garbage"
        );
        assert!(
            ledger.rows.len() >= last_rows,
            "parsed rows went backwards: {} -> {}",
            last_rows,
            ledger.rows.len()
        );
        last_rows = ledger.rows.len();
    }
    writer.join().expect("writer thread");
    let text = std::fs::read_to_string(&path).expect("ledger");
    let ledger = Ledger::from_jsonl(&text, false).expect("finished ledger reads strictly");
    assert_eq!(ledger.rows.len() as u64, ROWS);
    assert_eq!(ledger.torn, None);

    // And the CLI follower survives the same file while still growing.
    let out = run(&[
        "report",
        path.to_str().unwrap(),
        "--follow",
        "--iterations",
        "2",
        "--interval",
        "10ms",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("300 row(s)"), "{}", stdout(&out));
}
