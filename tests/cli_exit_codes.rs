//! Integration tests for the `gfab` binary's exit-code contract:
//!
//! * 0 — equivalent / success,
//! * 1 — inequivalent (a counterexample was found),
//! * 2 — usage error or malformed input,
//! * 3 — verdict unknown (resource budget exhausted before a decision).
//!
//! The binary is spawned for real (via `CARGO_BIN_EXE_gfab`), netlist
//! fixtures are generated with its own `gen` subcommand, and both the exit
//! status and the shape of stdout/stderr are asserted.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

/// Generates a netlist fixture into a per-process temp directory.
fn fixture(arch: &str, k: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfab-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
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
fn equivalent_pair_exits_zero() {
    let spec = fixture("mastrovito", 4);
    let impl_ = fixture("montgomery", 4);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--k",
        "4",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("EQUIVALENT"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn inequivalent_pair_exits_one() {
    // Adder and multiplier share the (A, B) -> Z signature but differ.
    let spec = fixture("mastrovito", 4);
    let impl_ = fixture("adder", 4);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--k",
        "4",
    ]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("INEQUIVALENT"), "stdout: {text}");
    assert!(text.contains("counterexample"), "stdout: {text}");
}

#[test]
fn usage_errors_exit_two() {
    // Missing arguments.
    let out = run(&["equiv", "only-one-path.nl", "--k", "4"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("error:"), "stderr: {}", stderr(&out));
    // Unknown command.
    let out = run(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    // Bad timeout value.
    let spec = fixture("mastrovito", 4);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        spec.to_str().unwrap(),
        "--k",
        "4",
        "--timeout",
        "soon",
    ]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("--timeout") && stderr(&out).contains("soon"),
        "stderr: {}",
        stderr(&out)
    );
    // A timeout whose milliseconds overflow u64 (2^59 minutes) is
    // rejected, never wrapped to a zero deadline.
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        spec.to_str().unwrap(),
        "--k",
        "4",
        "--timeout",
        "576460752303423488m",
    ]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("--timeout") && stderr(&out).contains("576460752303423488m"),
        "stderr: {}",
        stderr(&out)
    );
    // Strict argv: per subcommand, its positionals and one flag it takes
    // (with a valid value when the flag takes one). An unknown flag,
    // another command's flag, a surplus positional, a missing value and
    // a repeated flag each exit 2 naming the token and the subcommand.
    // No case gets past parsing, so the paths need not exist.
    let rows: [(&str, &[&str], &[&str]); 13] = [
        ("extract", &["a.nl"], &["--k", "8"]),
        ("verify-spec", &["a.nl"], &["--spec", "A*B"]),
        ("equiv", &["s.nl", "i.nl"], &["--timeout", "1s"]),
        ("sat-equiv", &["s.nl", "i.nl"], &["--conflicts", "1"]),
        ("batch", &["m.json"], &["--repeat", "2"]),
        ("gen", &["adder"], &["-o", "out.nl"]),
        ("info", &["a.nl"], &[]),
        ("trace-check", &["t.jsonl"], &[]),
        ("trace-diff", &["a.jsonl", "b.jsonl"], &["--wall"]),
        ("trace-agg", &["a.jsonl"], &["--group-by", "k"]),
        ("flame", &["t.jsonl"], &["--out", "folded"]),
        ("report", &["l.jsonl"], &["--interval", "1s"]),
        ("fuzz", &[], &["--seed", "1"]),
    ];
    let mut cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["equiv", "s.nl", "i.nl", "--k", "8", "--timout", "1ms"],
            "--timout",
        ),
        (vec!["extract", "a.nl", "b.nl", "--k", "8"], "b.nl"),
        (vec!["info", "a.nl", "--k", "8"], "--k"),
        (vec!["extract", "a.nl", "--k", "4", "--k", "8"], "--k"),
        (
            vec!["sat-equiv", "s.nl", "i.nl", "--conflicts"],
            "--conflicts",
        ),
        (vec!["fuzz", "--mem-stats"], "--mem-stats"),
        // The follow loop's knobs mean nothing without --follow, and it
        // runs at least once.
        (vec!["report", "l.jsonl", "--interval", "1s"], "--interval"),
        (
            vec!["report", "l.jsonl", "--iterations", "2"],
            "--iterations",
        ),
        (
            vec!["report", "l.jsonl", "--follow", "--iterations", "0"],
            "--iterations",
        ),
        (
            vec!["report", "l.jsonl", "--follow", "--interval", "soon"],
            "--interval",
        ),
    ];
    for (cmd, pos, flag) in rows {
        let base: Vec<&str> = std::iter::once(cmd).chain(pos.iter().copied()).collect();
        let foreign = if cmd == "fuzz" { "--spec" } else { "--replay" };
        cases.push(([&base[..], &["--frobnicate"]].concat(), "--frobnicate"));
        cases.push(([&base[..], &[foreign, "x"]].concat(), foreign));
        if cmd != "trace-agg" {
            cases.push(([&base[..], &["surplus.nl"]].concat(), "surplus.nl"));
        }
        if let Some(&name) = flag.first() {
            cases.push(([&base[..], flag, flag].concat(), name));
        }
        if flag.len() == 2 {
            cases.push(([&base[..], &flag[..1]].concat(), flag[0]));
        }
    }
    for (argv, token) in cases {
        let out = run(&argv);
        let err = stderr(&out);
        assert_eq!(code(&out), 2, "gfab {argv:?}\nstderr: {err}");
        assert!(
            err.contains(token) && err.contains(argv[0]),
            "gfab {argv:?}: stderr must name `{token}` and `{}`: {err}",
            argv[0]
        );
    }
}

#[test]
fn exhausted_timeout_exits_three() {
    // A 1 ms deadline on a k=32 query: the word-level pipeline trips its
    // budget polls, the SAT fallback inherits an already-dead clock, and
    // the verdict degrades to UNKNOWN — exit 3, never a panic or a hang.
    let spec = fixture("mastrovito", 32);
    let impl_ = fixture("montgomery", 32);
    let out = run(&[
        "equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--k",
        "32",
        "--timeout",
        "1ms",
    ]);
    assert_eq!(
        code(&out),
        3,
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("UNKNOWN"), "stdout: {text}");
    // The reason must name an exhausted resource, not be an empty shrug.
    assert!(
        text.contains("budget") || text.contains("deadline") || text.contains("exhausted"),
        "stdout: {text}"
    );
}

#[test]
fn sat_equiv_conflict_budget_exits_three() {
    let spec = fixture("mastrovito", 8);
    let impl_ = fixture("montgomery", 8);
    let out = run(&[
        "sat-equiv",
        spec.to_str().unwrap(),
        impl_.to_str().unwrap(),
        "--conflicts",
        "1",
    ]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("UNKNOWN"), "stdout: {text}");
    assert!(text.contains("conflict budget"), "stdout: {text}");
}

#[test]
fn version_prints_cargo_package_version() {
    // The version string leads with the Cargo package version and may
    // carry a `+<git-describe>` build suffix (see src/version.rs).
    for flag in ["--version", "-V", "version"] {
        let out = run(&[flag]);
        assert_eq!(code(&out), 0);
        let text = stdout(&out);
        let text = text.trim();
        let prefix = format!("gfab {}", env!("CARGO_PKG_VERSION"));
        assert!(
            text == prefix || text.starts_with(&format!("{prefix}+")),
            "unexpected version line: {text}"
        );
    }
}

#[test]
fn help_exits_zero_and_names_every_subcommand() {
    // The usage text is the discovery surface for the whole CLI: every
    // dispatched subcommand must appear in it, and each `gfab <cmd>
    // --help` must list every flag the subcommand accepts. (Help goes to
    // stderr so stdout stays clean for piped output.)
    const QUERY: &[&str] = &[
        "--k",
        "--modulus",
        "--threads",
        "--timeout",
        "--trace",
        "--stats",
        "--mem-stats",
        "--trace-json",
        "--ledger",
        "--progress",
        "--events",
        "--events-cap",
    ];
    const SUBCOMMANDS: [(&str, &[&str]); 13] = [
        ("extract", QUERY),
        ("verify-spec", &["--spec", "--k", "--modulus"]),
        ("equiv", QUERY),
        ("sat-equiv", &["--conflicts", "--timeout"]),
        (
            "batch",
            &[
                "--threads",
                "--timeout",
                "--cache-cap",
                "--repeat",
                "--stats",
                "--trace-json",
                "--ledger",
                "--progress",
                "--events",
                "--events-cap",
            ],
        ),
        ("gen", &["--k", "--modulus", "-o"]),
        ("info", &[]),
        ("trace-check", &[]),
        ("trace-diff", &["--threshold", "--wall"]),
        ("trace-agg", &["--group-by", "--json"]),
        ("flame", &["--out", "--critical-path"]),
        (
            "report",
            &["--md", "--follow", "--interval", "--iterations"],
        ),
        (
            "fuzz",
            &[
                "--seed",
                "--cases",
                "--threads",
                "--k-min",
                "--k-max",
                "--fault-rate",
                "--faults",
                "--corpus",
                "--timeout",
                "--sat-conflicts",
                "--shrink-budget",
                "--word-work-cap",
                "--replay",
                "--trace",
                "--stats",
                "--trace-json",
                "--ledger",
                "--progress",
                "--events",
                "--events-cap",
            ],
        ),
    ];
    for (cmd, flags) in SUBCOMMANDS {
        let out = run(&[cmd, "--help"]);
        assert_eq!(code(&out), 0, "`gfab {cmd} --help` must exit 0");
        let text = stderr(&out);
        assert!(text.contains(&format!("gfab {cmd}")), "{text}");
        for flag in flags {
            assert!(
                text.contains(&format!("[{flag}]")) || text.contains(&format!("[{flag} ")),
                "`gfab {cmd} --help` does not list `{flag}`:\n{text}"
            );
        }
    }
    // `watch` became `report --follow`; `bench-diff` went with the row
    // JSON it compared (the perf gate is `trace-diff` over span traces).
    for (gone, operands) in [
        ("watch", &["l.jsonl"][..]),
        ("bench-diff", &["a.json", "b.json"]),
    ] {
        let out = run(&[&[gone][..], operands].concat());
        assert_eq!(code(&out), 2);
        assert!(
            stderr(&out).contains(&format!("unknown command `{gone}`")),
            "{}",
            stderr(&out)
        );
    }
    for flag in ["--help", "-h", "help"] {
        let out = run(&[flag]);
        assert_eq!(code(&out), 0, "`gfab {flag}` must exit 0");
        let text = stderr(&out);
        for (cmd, _) in SUBCOMMANDS {
            assert!(
                text.contains(cmd),
                "`gfab {flag}` does not mention `{cmd}`:\n{text}"
            );
        }
        // The live-output flags are part of the discovery surface too.
        for flag_name in ["--progress", "--events", "--events-cap"] {
            assert!(
                text.contains(flag_name),
                "`gfab {flag}` does not mention `{flag_name}`:\n{text}"
            );
        }
    }
}

/// Writes a batch manifest into the per-process temp dir.
fn manifest_fixture(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gfab-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write manifest");
    path
}

#[test]
fn batch_reports_per_query_verdicts_and_caches_duplicates() {
    // Two identical equiv queries plus one refuted one: overall exit 1,
    // one JSONL line per query, and the duplicate must hit the cache.
    let path = manifest_fixture(
        "batch_mixed.json",
        r#"{
            "field": {"k": 4},
            "queries": [
                {"name": "good", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
                {"name": "good-again", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "montgomery"}},
                {"name": "bad", "op": "equiv",
                 "spec": {"gen": "mastrovito"}, "impl": {"gen": "adder"}}
            ]
        }"#,
    );
    let out = run(&["batch", path.to_str().unwrap(), "--threads", "2"]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "3 queries + 1 summary: {text}");
    assert!(lines[0].contains("\"query\":\"good\"") && lines[0].contains("\"exit\":0"));
    assert!(lines[1].contains("\"query\":\"good-again\"") && lines[1].contains("\"exit\":0"));
    assert!(lines[2].contains("\"verdict\":\"inequivalent\"") && lines[2].contains("\"exit\":1"));
    let summary = lines[3];
    assert!(summary.contains("\"batch-summary\""), "{summary}");
    let hits: u64 = summary
        .split("\"hits\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("summary carries cache hits");
    assert!(hits > 0, "duplicate queries must hit the cache: {summary}");
}

#[test]
fn batch_budget_exhaustion_exits_three() {
    // A 1 ms budget on a k=64 extraction dies in model construction,
    // before any verdict-bearing report exists. That is a timeout
    // (exit 3) under the uniform contract — not a usage error (exit 2)
    // — and the spent result must never be cached.
    let path = manifest_fixture(
        "batch_deadline.json",
        r#"{
            "field": {"k": 64},
            "queries": [{"name": "slow", "op": "extract",
                         "circuit": {"gen": "mastrovito"}}]
        }"#,
    );
    let out = run(&["batch", path.to_str().unwrap(), "--timeout", "1ms"]);
    assert_eq!(
        code(&out),
        3,
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains(r#""op":"timeout""#) && text.contains("budget"),
        "stdout: {text}"
    );
    assert!(text.contains(r#""entries":0"#), "stdout: {text}");
}

#[test]
fn batch_usage_errors_exit_two() {
    let out = run(&["batch"]);
    assert_eq!(code(&out), 2);
    let out = run(&["batch", "/definitely/not/a/manifest.json"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("error:"), "stderr: {}", stderr(&out));
    let path = manifest_fixture(
        "batch_bad_key.json",
        r#"{"field": {"k": 4}, "queries": [{"op": "extract", "circut": {"gen": "adder"}}]}"#,
    );
    let out = run(&["batch", path.to_str().unwrap()]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("circut"), "stderr: {}", stderr(&out));
}

#[test]
fn batch_warm_repeat_does_no_new_work() {
    let path = manifest_fixture(
        "batch_repeat.json",
        r#"{
            "field": {"k": 4},
            "queries": [
                {"name": "sq", "op": "extract", "circuit": {"gen": "squarer"}},
                {"name": "mont", "op": "extract", "circuit": {"gen": "montgomery"}}
            ]
        }"#,
    );
    let out = run(&["batch", path.to_str().unwrap(), "--repeat", "2"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let work: Vec<u64> = text
        .lines()
        .filter(|l| l.contains("\"batch-summary\""))
        .map(|l| {
            l.split("\"work_units\":")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .expect("summary carries work_units")
        })
        .collect();
    assert_eq!(work.len(), 2, "one summary per pass: {text}");
    assert!(work[0] > 0, "cold pass computes: {text}");
    assert_eq!(work[1], 0, "warm pass recomputes nothing: {text}");
}

#[test]
fn extract_succeeds_and_times_out() {
    let nl = fixture("mastrovito", 4);
    let out = run(&["extract", nl.to_str().unwrap(), "--k", "4"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("Z = A*B"), "stdout: {}", stdout(&out));

    let big = fixture("mastrovito", 32);
    let out = run(&[
        "extract",
        big.to_str().unwrap(),
        "--k",
        "32",
        "--timeout",
        "1ms",
    ]);
    assert_eq!(code(&out), 3, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("TIMED OUT"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn closed_stdout_keeps_the_exit_code() {
    // `gfab gen ... | head -1` and `gfab equiv ... | head -1`: when the
    // reader goes away, output stops and the command still ends with
    // the exit code of its result — never a broken-pipe panic (101).
    let spec = fixture("mastrovito", 4);
    let adder = fixture("adder", 4);
    let cases: [(&[&str], i32); 2] = [
        (&["gen", "mastrovito", "--k", "64"], 0),
        (
            &[
                "equiv",
                spec.to_str().unwrap(),
                adder.to_str().unwrap(),
                "--k",
                "4",
            ],
            1,
        ),
    ];
    for (args, want) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gfab"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("gfab binary spawns");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("gfab runs");
        assert_eq!(code(&out), want, "gfab {args:?}: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("panicked"),
            "gfab {args:?}: {}",
            stderr(&out)
        );
    }
}
