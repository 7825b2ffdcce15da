//! Persistent run ledger (`--ledger PATH`, `gfab report`).
//!
//! A ledger is an append-only JSONL file that accumulates one row per
//! verification query across *runs* of the tool — the durable memory
//! that individual `--trace-json` files lack. `extract`, `equiv`,
//! `batch` and `fuzz` append to it when `--ledger PATH` is given;
//! `gfab report LEDGER` renders the accumulated history as a dashboard
//! (plain text or `--md` markdown), once or, with `--follow`, again
//! whenever the ledger grows.
//!
//! # Row format
//!
//! One strict-JSON object per line:
//!
//! ```text
//! {"type":"run","version":4,"ts_ms":..,"run":"<ts_ms>-<pid>",
//!  "producer":"gfab x.y.z","cmd":"equiv","fp":"<16 hex>",
//!  "query":"<name>","k":16,"verdict":"equivalent","exit":0,
//!  "work_units":..,"wall_us":..[,"mem_peak_bytes":..]}
//! ```
//!
//! * `run` identifies one process invocation: every row a single run
//!   appends carries the same id, so multi-query `batch` runs group.
//! * `fp` is a [FNV-1a] fingerprint of the command line *excluding* the
//!   `--ledger PATH` pair, so "the same command logged to a different
//!   ledger" still fingerprints identically. `gfab report` uses it to
//!   pair up repeat runs of the same command and report work-unit
//!   drift.
//! * `k` is the field width `GF(2^k)` when the row concerns a single
//!   modulus, and `0` for mixed/aggregate rows (a fuzz campaign).
//! * `mem_peak_bytes` is present only when the run measured it
//!   (`--mem-stats`).
//!
//! [FNV-1a]: https://en.wikipedia.org/wiki/Fowler%E2%80%93Noll%E2%80%93Vo_hash_function
//!
//! # Crash safety
//!
//! Writers open the file in append mode and write each row as a single
//! `write` of one line; concurrent appenders therefore interleave at
//! line granularity on POSIX. The reader (the one every gfab JSONL file
//! goes through, see [`crate::Trace::to_jsonl`]) tolerates one torn
//! line — an unparsable *final* line, the signature of a crash mid-
//! append — and reports it; garbage anywhere else is an error, except
//! to the lenient read of `gfab report`, which skips and counts it.

use crate::json::{write_json_string, Obj};
use crate::jsonl::{
    expect_keys_opt, get_str, get_u64, read, FieldError, Kind, ParseError, JSONL_VERSION,
};
use crate::metrics::HistData;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// One ledger row: the durable record of one verification query (or
/// one whole fuzz campaign) in one run. See the module docs for the
/// field semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerRow {
    /// Wall-clock timestamp of the append, in milliseconds since the
    /// Unix epoch.
    pub ts_ms: u64,
    /// Run id shared by all rows of one process invocation.
    pub run: String,
    /// Producing tool and version, e.g. `gfab 0.4.0`.
    pub producer: String,
    /// Subcommand that produced the row (`extract`, `equiv`, `batch`,
    /// `fuzz`).
    pub cmd: String,
    /// Command-line fingerprint (16 lowercase hex digits); see
    /// [`fingerprint`].
    pub fp: String,
    /// Query name: a file stem, a batch query name, or a campaign tag.
    pub query: String,
    /// Field width `k` of `GF(2^k)`; `0` when mixed or unknown.
    pub k: u64,
    /// Outcome verdict (`equivalent`, `inequivalent`, `extracted`,
    /// `timeout`, `failed`, …).
    pub verdict: String,
    /// Process-level exit code the outcome maps to (0/1/2/3).
    pub exit: u64,
    /// Deterministic work units spent on the query.
    pub work_units: u64,
    /// Wall-clock time spent on the query, microseconds.
    pub wall_us: u64,
    /// Peak heap in bytes when measured (`--mem-stats`), else `None`.
    pub mem_peak_bytes: Option<u64>,
}

impl LedgerRow {
    /// Serializes the row as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"run\",\"version\":{JSONL_VERSION},\"ts_ms\":{},\"run\":",
            self.ts_ms
        );
        write_json_string(&mut out, &self.run);
        out.push_str(",\"producer\":");
        write_json_string(&mut out, &self.producer);
        out.push_str(",\"cmd\":");
        write_json_string(&mut out, &self.cmd);
        out.push_str(",\"fp\":");
        write_json_string(&mut out, &self.fp);
        out.push_str(",\"query\":");
        write_json_string(&mut out, &self.query);
        let _ = write!(out, ",\"k\":{},\"verdict\":", self.k);
        write_json_string(&mut out, &self.verdict);
        let _ = write!(
            out,
            ",\"exit\":{},\"work_units\":{},\"wall_us\":{}",
            self.exit, self.work_units, self.wall_us
        );
        if let Some(m) = self.mem_peak_bytes {
            let _ = write!(out, ",\"mem_peak_bytes\":{m}");
        }
        out.push('}');
        out
    }

    /// Appends the row to the ledger at `path` (created if absent) as
    /// one atomic-at-line-granularity write.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or writing the file.
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut line = self.to_json_line();
        line.push('\n');
        f.write_all(line.as_bytes())
    }
}

/// Fingerprint of a command line: FNV-1a 64-bit over the subcommand and
/// arguments with the `--ledger PATH` pair removed, rendered as 16
/// lowercase hex digits. Stable across runs and platforms.
#[must_use]
pub fn fingerprint(cmd: &str, args: &[String]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut feed = |s: &str| {
        for b in s.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
        // Separator so ["ab","c"] and ["a","bc"] hash differently.
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    };
    feed(cmd);
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--ledger" {
            i += 2; // skip the flag and its PATH operand
            continue;
        }
        feed(&args[i]);
        i += 1;
    }
    format!("{h:016x}")
}

const RUN_KEYS: [&str; 13] = [
    "type",
    "version",
    "ts_ms",
    "run",
    "producer",
    "cmd",
    "fp",
    "query",
    "k",
    "verdict",
    "exit",
    "work_units",
    "wall_us",
];

/// Parses one `run` row (see the module docs).
pub(crate) fn parse_run(obj: &Obj) -> Result<LedgerRow, FieldError> {
    expect_keys_opt(obj, &RUN_KEYS, &["mem_peak_bytes"])?;
    Ok(LedgerRow {
        ts_ms: get_u64(obj, "ts_ms")?,
        run: get_str(obj, "run")?,
        producer: get_str(obj, "producer")?,
        cmd: get_str(obj, "cmd")?,
        fp: get_str(obj, "fp")?,
        query: get_str(obj, "query")?,
        k: get_u64(obj, "k")?,
        verdict: get_str(obj, "verdict")?,
        exit: get_u64(obj, "exit")?,
        work_units: get_u64(obj, "work_units")?,
        wall_us: get_u64(obj, "wall_us")?,
        mem_peak_bytes: match obj.get("mem_peak_bytes") {
            None => None,
            Some(_) => Some(get_u64(obj, "mem_peak_bytes")?),
        },
    })
}

/// A parsed ledger: all intact rows in file order, plus what the reader
/// set aside (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Intact rows, oldest first.
    pub rows: Vec<LedgerRow>,
    /// The number of the torn final line that was ignored (a crash or a
    /// writer still mid-append), if any.
    pub torn: Option<usize>,
    /// Unparsable lines a lenient read skipped.
    pub skipped: usize,
}

impl Ledger {
    /// Parses ledger text. A torn final line is tolerated and recorded
    /// in [`Ledger::torn`]. With `lenient` — for reading a ledger that
    /// other processes may still be appending to — any other unparsable
    /// line or invalid row is skipped and counted in
    /// [`Ledger::skipped`]; without it, it is an error.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the line and field path of the first bad
    /// row (strict) or of a line from another kind of file (either way).
    pub fn from_jsonl(text: &str, lenient: bool) -> Result<Ledger, ParseError> {
        let frame = read(text, Kind::Ledger, lenient, parse_run)?;
        Ok(Ledger {
            rows: frame.records.into_iter().map(|(_, r)| r).collect(),
            torn: frame.torn,
            skipped: frame.skipped,
        })
    }

    /// The number of distinct runs (process invocations) in the ledger.
    #[must_use]
    pub fn runs(&self) -> usize {
        let runs: BTreeSet<&str> = self.rows.iter().map(|r| r.run.as_str()).collect();
        runs.len()
    }

    /// Renders the report dashboard: verdict mix, per-`k` latency
    /// percentiles, the work-unit delta between the two most recent
    /// runs of each repeated command fingerprint, and the latest rows.
    /// Markdown tables when `md`, aligned plain text otherwise.
    ///
    /// # Errors
    ///
    /// When the `work_units` of one run's rows sum past `u64::MAX`; the
    /// message names the run.
    pub fn render_report(&self, md: bool) -> Result<String, String> {
        let mut out = String::new();
        if md {
            out.push_str("# Run ledger\n\n");
        }
        let _ = write!(
            out,
            "ledger: {} row(s) across {} run(s)",
            self.rows.len(),
            self.runs()
        );
        if self.skipped > 0 {
            let _ = write!(out, ", {} unparsable line(s) skipped", self.skipped);
        }
        if self.torn.is_some() {
            out.push_str(" (torn final line ignored)");
        }
        out.push('\n');
        if self.rows.is_empty() {
            return Ok(out);
        }

        // Verdict mix.
        let mut verdicts: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &self.rows {
            *verdicts.entry(r.verdict.as_str()).or_insert(0) += 1;
        }
        section(&mut out, md, "Verdicts");
        let rows: Vec<Vec<String>> = verdicts
            .iter()
            .map(|(v, n)| vec![(*v).to_string(), n.to_string()])
            .collect();
        table(&mut out, md, &["verdict", "rows"], &rows);

        // Per-k latency percentiles from mergeable histograms.
        let mut by_k: BTreeMap<u64, HistData> = BTreeMap::new();
        for r in &self.rows {
            by_k.entry(r.k).or_default().record(r.wall_us);
        }
        section(&mut out, md, "Latency by field width");
        let rows: Vec<Vec<String>> = by_k
            .iter()
            .map(|(k, h)| {
                vec![
                    if *k == 0 {
                        "-".to_string()
                    } else {
                        format!("k{k}")
                    },
                    h.count.to_string(),
                    format!("{}us", h.percentile(50.0)),
                    format!("{}us", h.percentile(90.0)),
                    format!("{}us", h.percentile(99.0)),
                    format!("{}us", h.max),
                ]
            })
            .collect();
        table(
            &mut out,
            md,
            &["k", "rows", "p50", "p90", "p99", "max"],
            &rows,
        );

        // Work-unit drift: latest vs previous run per fingerprint.
        // (run first-seen order within a fingerprint == append order.)
        type RunTotals<'a> = Vec<(&'a str, u64)>;
        let mut per_fp: BTreeMap<&str, (&str, RunTotals)> = BTreeMap::new();
        for r in &self.rows {
            let (_, runs) = per_fp
                .entry(r.fp.as_str())
                .or_insert((r.cmd.as_str(), Vec::new()));
            match runs.last_mut() {
                Some((run, work)) if *run == r.run => {
                    *work = work.checked_add(r.work_units).ok_or_else(|| {
                        format!("run {run}: the sum of counter work_units overflows u64")
                    })?;
                }
                _ => runs.push((r.run.as_str(), r.work_units)),
            }
        }
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (fp, (cmd, runs)) in &per_fp {
            if runs.len() < 2 {
                continue;
            }
            let (_, prev) = runs[runs.len() - 2];
            let (_, last) = runs[runs.len() - 1];
            let delta = if last >= prev {
                format!("+{}", last - prev)
            } else {
                format!("-{}", prev - last)
            };
            rows.push(vec![
                (*fp).to_string(),
                (*cmd).to_string(),
                runs.len().to_string(),
                prev.to_string(),
                last.to_string(),
                delta,
            ]);
        }
        if !rows.is_empty() {
            section(&mut out, md, "Work-unit drift (latest vs previous run)");
            table(
                &mut out,
                md,
                &["fingerprint", "cmd", "runs", "prev", "latest", "delta"],
                &rows,
            );
        }

        section(&mut out, md, "Latest rows");
        let rows: Vec<Vec<String>> = self.rows[self.rows.len().saturating_sub(5)..]
            .iter()
            .map(|r| {
                vec![
                    r.query.clone(),
                    r.verdict.clone(),
                    r.exit.to_string(),
                    r.work_units.to_string(),
                    format!("{}us", r.wall_us),
                ]
            })
            .collect();
        table(
            &mut out,
            md,
            &["query", "verdict", "exit", "work", "wall"],
            &rows,
        );
        Ok(out)
    }
}

fn section(out: &mut String, md: bool, title: &str) {
    if md {
        let _ = writeln!(out, "\n## {title}\n");
    } else {
        let _ = writeln!(out, "\n{title}:");
    }
}

/// Renders a small table either as markdown (`| a | b |`) or as
/// space-aligned plain text.
fn table(out: &mut String, md: bool, headers: &[&str], rows: &[Vec<String>]) {
    if md {
        let _ = writeln!(out, "| {} |", headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}",
            headers.iter().map(|_| " --- |").collect::<String>()
        );
        for row in rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        return;
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let emit = |out: &mut String, cells: &[String]| {
        let mut line = String::from(" ");
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(line, " {cell:>w$}", w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    };
    emit(
        out,
        &headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>(),
    );
    for row in rows {
        emit(out, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(run: &str, fp: &str, k: u64, verdict: &str, work: u64, wall: u64) -> LedgerRow {
        LedgerRow {
            ts_ms: 1_700_000_000_000,
            run: run.into(),
            producer: "gfab 0.4.0".into(),
            cmd: "equiv".into(),
            fp: fp.into(),
            query: "q".into(),
            k,
            verdict: verdict.into(),
            exit: 0,
            work_units: work,
            wall_us: wall,
            mem_peak_bytes: None,
        }
    }

    /// Parses one row through the strict reader.
    fn parse_line(line: &str) -> Result<LedgerRow, ParseError> {
        let mut ledger = Ledger::from_jsonl(line, false)?;
        assert_eq!(ledger.rows.len(), 1, "{line}");
        Ok(ledger.rows.remove(0))
    }

    #[test]
    fn rows_round_trip_with_and_without_mem() {
        let mut r = row("1-2", "00ff", 16, "equivalent", 120, 900);
        let line = r.to_json_line();
        assert_eq!(parse_line(&line).unwrap(), r);
        r.mem_peak_bytes = Some(4096);
        let line = r.to_json_line();
        assert!(line.contains("\"mem_peak_bytes\":4096"));
        assert_eq!(parse_line(&line).unwrap(), r);
        // Strictness: unknown keys, wrong types and other versions are
        // rejected with the field named.
        let e = parse_line(&line.replace("\"k\":16", "\"k\":16,\"extra\":1")).unwrap_err();
        assert!(e.message.contains("unexpected field"), "{e}");
        assert_eq!(e.path, "extra");
        let e = parse_line(&line.replace("\"k\":16", "\"k\":\"16\"")).unwrap_err();
        assert_eq!(e.path, "k");
        for version in ["99", "3"] {
            let e = parse_line(&line.replace("\"version\":4", &format!("\"version\":{version}")))
                .unwrap_err();
            assert_eq!(e.path, "version");
        }
    }

    #[test]
    fn parse_tolerates_only_a_torn_final_line() {
        let good = row("1-2", "00ff", 16, "equivalent", 1, 2).to_json_line();
        let text = format!("{good}\n{good}\n{{\"type\":\"run\",\"vers");
        let ledger = Ledger::from_jsonl(&text, false).expect("torn tail tolerated");
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.torn, Some(3));
        // Torn line in the middle is an error.
        let text = format!("{good}\n{{\"type\":\"run\",\"vers\n{good}");
        assert_eq!(Ledger::from_jsonl(&text, false).unwrap_err().line, 2);
        // A well-formed final line with bad fields is an error too.
        let bad = good.replace("\"type\":\"run\"", "\"type\":\"walk\"");
        let e = Ledger::from_jsonl(&format!("{good}\n{bad}"), false).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "type"));
    }

    #[test]
    fn lenient_parse_skips_mid_file_garbage_with_a_counter() {
        let good = row("1-2", "00ff", 16, "equivalent", 1, 2).to_json_line();
        // Mid-file garbage (torn line healed over by later appends) plus
        // a genuinely torn tail.
        let text = format!("{good}\n{{\"type\":\"run\",\"vers\n{good}\n{{\"type\":\"run\",\"ve");
        let ledger = Ledger::from_jsonl(&text, true).unwrap();
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.skipped, 1);
        assert_eq!(ledger.torn, Some(4));
        // A well-formed line with bad fields is skipped, not fatal.
        let bad = good.replace("\"type\":\"run\"", "\"type\":\"walk\"");
        let ledger = Ledger::from_jsonl(&format!("{bad}\n{good}"), true).unwrap();
        assert_eq!(ledger.rows.len(), 1);
        assert_eq!(ledger.skipped, 1);
        assert_eq!(ledger.torn, None);
        // But a line of another kind of file is an error even here.
        let span = "{\"type\":\"trace\",\"version\":4,\"spans\":0}";
        let e = Ledger::from_jsonl(&format!("{good}\n{span}"), true).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "type"));
        assert!(e.message.contains("found a \"trace\" header"), "{e}");
        // Strict parse still rejects the same inputs.
        assert!(Ledger::from_jsonl(&text, false).is_err());
    }

    #[test]
    fn fingerprint_ignores_ledger_path_and_separates_args() {
        let a = fingerprint("equiv", &["x.blif".into(), "y.blif".into()]);
        let b = fingerprint(
            "equiv",
            &[
                "x.blif".into(),
                "--ledger".into(),
                "/tmp/one.jsonl".into(),
                "y.blif".into(),
            ],
        );
        assert_eq!(a, b, "--ledger PATH must not perturb the fingerprint");
        assert_ne!(
            fingerprint("equiv", &["ab".into(), "c".into()]),
            fingerprint("equiv", &["a".into(), "bc".into()])
        );
        assert_eq!(a.len(), 16);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn report_groups_runs_by_fingerprint_and_computes_drift() {
        let rows = vec![
            row("1-1", "aa", 8, "equivalent", 100, 500),
            row("1-1", "aa", 8, "equivalent", 50, 400),
            row("2-1", "aa", 8, "equivalent", 120, 450),
            row("3-1", "bb", 16, "inequivalent", 10, 900),
        ];
        let mut ledger = Ledger {
            rows,
            ..Ledger::default()
        };
        let text = ledger.render_report(false).unwrap();
        assert!(text.contains("4 row(s) across 3 run(s)\n"), "{text}");
        assert!(text.contains("equivalent"), "{text}");
        assert!(text.contains("k8"), "{text}");
        assert!(text.contains("k16"), "{text}");
        // fp "aa": run 1-1 totals 150, run 2-1 totals 120 → delta -30.
        assert!(text.contains("-30"), "{text}");
        // A run whose rows sum past u64 is an error naming the run.
        let big = row("4-1", "aa", 8, "equivalent", 1 << 63, 1);
        let later = row("5-1", "aa", 8, "equivalent", 1, 1);
        let overflowing = Ledger {
            rows: vec![big.clone(), big, later],
            ..Ledger::default()
        };
        let err = overflowing.render_report(false).unwrap_err();
        assert!(
            err.contains("run 4-1") && err.contains("work_units"),
            "{err}"
        );
        // fp "bb" has one run: no drift row.
        assert!(!text.contains("bb equiv"), "{text}");
        // The latest five rows close the report, oldest first.
        let latest = text.split("Latest rows:").nth(1).expect("latest rows");
        assert_eq!(
            latest.lines().filter(|l| l.contains("equivalent")).count(),
            4
        );
        let md = ledger.render_report(true).unwrap();
        assert!(md.starts_with("# Run ledger"), "{md}");
        assert!(md.contains("| verdict | rows |"), "{md}");
        assert!(md.contains("| --- |"), "{md}");
        // What a lenient read set aside is shown in the headline.
        ledger.skipped = 2;
        ledger.torn = Some(9);
        let text = ledger.render_report(false).unwrap();
        assert!(
            text.contains(", 2 unparsable line(s) skipped (torn final line ignored)"),
            "{text}"
        );
    }

    #[test]
    fn append_creates_and_appends() {
        let dir = std::env::temp_dir().join(format!("gfab-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        let r = row("1-2", "00ff", 16, "equivalent", 1, 2);
        r.append(&path).unwrap();
        r.append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let ledger = Ledger::from_jsonl(&text, false).unwrap();
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.torn, None);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
