//! Persistent run ledger (`--ledger PATH`, `gfab report`).
//!
//! A ledger is an append-only JSONL file that accumulates one line per
//! verification query across *runs* of the tool — the durable memory
//! that individual `--trace-json` files lack. `extract`, `equiv`,
//! `batch` and `fuzz` append to it when `--ledger PATH` is given;
//! `gfab report LEDGER` renders the accumulated history as a dashboard
//! (plain text or `--md` markdown), once or, with `--follow`, again
//! whenever the ledger grows.
//!
//! # Line format
//!
//! A line is the query's trace collapsed into one root `span` line
//! ([`Trace::collapsed`](crate::Trace::collapsed)), labelled with the
//! query name (a netlist's file stem, `spec~impl`, a batch query name or
//! `campaign-seed<N>`) and carrying the schema `version`, since a ledger
//! has no header. Besides the root's outcome attributes it carries the
//! ones a ledger needs; `verdict` and these are required on every line:
//!
//! ```text
//! {"type":"span","version":5,"id":1,"parent":null,"phase":"check",
//!  "label":"m8~w8",…,"attrs":{"verdict":"equivalent","rung":"word",
//!  "spec":"case1","impl":"case1","cmd":"equiv","fp":"<16 hex>",
//!  "run":"<ts_ms>-<pid>","producer":"gfab x.y.z","exit":0,"k":8,
//!  "ts-ms":…}}
//! ```
//!
//! * `run` is shared by every line of one process invocation, so
//!   multi-query `batch` runs group.
//! * `fp` is a [FNV-1a] fingerprint of the command line *excluding* the
//!   `--ledger PATH` pair; `gfab report` pairs up repeat runs of the
//!   same command by it to report work-unit drift.
//! * `k` is the field width, `0` for mixed lines (a fuzz campaign).
//! * An outcome with no trace — an extraction stopped on its budget, a
//!   failed or timed-out batch query — is a bare root lasting the
//!   query's elapsed time, with no counters.
//!
//! [FNV-1a]: https://en.wikipedia.org/wiki/Fowler%E2%80%93Noll%E2%80%93Vo_hash_function
//!
//! # Crash safety
//!
//! Writers open the file in append mode and write each line as a single
//! `write`; concurrent appenders therefore interleave at line
//! granularity on POSIX. The reader (the one every gfab JSONL file goes
//! through, see [`crate::Trace::to_jsonl`]) tolerates one torn line — an
//! unparsable *final* line, the signature of a crash mid-append — and
//! reports it; garbage anywhere else is an error, except to the lenient
//! read of `gfab report`, which skips and counts it.

use crate::json::Obj;
use crate::jsonl::{field_err, parse_span, read, write_span, FieldError, Kind, ParseError};
use crate::metrics::HistData;
use crate::{Attr, AttrValue, SpanRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The attributes every ledger line carries.
const REQUIRED: [Attr; 8] = [
    Attr::Verdict,
    Attr::Cmd,
    Attr::Fp,
    Attr::Run,
    Attr::Exit,
    Attr::K,
    Attr::TsMs,
    Attr::Producer,
];

/// Appends `row` to the ledger at `path` (created if absent) as one
/// line, in a single write.
///
/// # Errors
///
/// Any I/O error opening or writing the file.
pub fn append(path: &Path, row: &SpanRecord) -> std::io::Result<()> {
    let mut line = String::new();
    write_span(&mut line, row, true);
    line.push('\n');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
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

/// Parses one ledger line: a root span carrying [`REQUIRED`].
fn parse_row(obj: &Obj) -> Result<SpanRecord, FieldError> {
    let row = parse_span(obj)?;
    if row.parent.is_some() {
        return Err(field_err("parent", "a ledger line is a root span"));
    }
    match REQUIRED.into_iter().find(|a| row.attr(*a).is_none()) {
        Some(a) => Err(field_err(
            format!("attrs.{}", a.slug()),
            format!("missing required attribute {:?}", a.slug()),
        )),
        None => Ok(row),
    }
}

/// A string attribute of a row that [`parse_row`] accepted.
fn text(row: &SpanRecord, key: Attr) -> &str {
    match row.attr(key) {
        Some(AttrValue::Str(s)) => s,
        _ => "",
    }
}

/// An integer attribute of a row that [`parse_row`] accepted.
fn int(row: &SpanRecord, key: Attr) -> u64 {
    match row.attr(key) {
        Some(AttrValue::Int(n)) => *n,
        _ => 0,
    }
}

/// The work units of one row, or the row's run when they overflow.
fn work(row: &SpanRecord) -> Result<u64, String> {
    row.counters
        .iter()
        .filter(|(c, _)| c.is_work())
        .try_fold(0u64, |sum, (_, v)| sum.checked_add(*v))
        .ok_or_else(|| overflow(text(row, Attr::Run)))
}

fn overflow(run: &str) -> String {
    format!("run {run}: the sum of counter work_units overflows u64")
}

/// A parsed ledger: all intact rows in file order, plus what the reader
/// set aside (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Intact rows, oldest first: one root span per query.
    pub rows: Vec<SpanRecord>,
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
    /// row (strict), or of a line from another kind of file or another
    /// schema version (either way).
    pub fn from_jsonl(text: &str, lenient: bool) -> Result<Ledger, ParseError> {
        let frame = read(text, Kind::Ledger, lenient, parse_row)?;
        Ok(Ledger {
            rows: frame.records.into_iter().map(|(_, r)| r).collect(),
            torn: frame.torn,
            skipped: frame.skipped,
        })
    }

    /// The number of distinct runs (process invocations) in the ledger.
    #[must_use]
    pub fn runs(&self) -> usize {
        let runs: BTreeSet<&str> = self.rows.iter().map(|r| text(r, Attr::Run)).collect();
        runs.len()
    }

    /// Renders the report dashboard: verdict mix, per-`k` latency
    /// percentiles over the rows' durations, the work-unit delta between
    /// the two most recent runs of each repeated command fingerprint,
    /// and the latest rows. Markdown tables when `md`, aligned plain
    /// text otherwise.
    ///
    /// # Errors
    ///
    /// When the work units of one run's rows sum past `u64::MAX`; the
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
            *verdicts.entry(text(r, Attr::Verdict)).or_insert(0) += 1;
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
            let us = r.duration.as_micros().min(u128::from(u64::MAX)) as u64;
            by_k.entry(int(r, Attr::K)).or_default().record(us);
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
            let (run, units) = (text(r, Attr::Run), work(r)?);
            let (_, runs) = per_fp
                .entry(text(r, Attr::Fp))
                .or_insert((text(r, Attr::Cmd), Vec::new()));
            match runs.last_mut() {
                Some((last, sum)) if *last == run => {
                    *sum = sum.checked_add(units).ok_or_else(|| overflow(run))?;
                }
                _ => runs.push((run, units)),
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
                Ok(vec![
                    r.label.clone().unwrap_or_default(),
                    text(r, Attr::Verdict).to_string(),
                    int(r, Attr::Exit).to_string(),
                    work(r)?.to_string(),
                    format!("{}us", r.duration.as_micros()),
                ])
            })
            .collect::<Result<_, String>>()?;
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
    use crate::{Counter, Gauge, Phase, Trace};
    use std::time::Duration;

    fn row(run: &str, fp: &str, k: u64, verdict: &str, work: u64, wall: u64) -> SpanRecord {
        let mut r = Trace::default().collapsed(Phase::Check, "q");
        r.duration = Duration::from_micros(wall);
        r.counters = vec![(Counter::ReductionSteps, work)];
        r.attrs = vec![
            (Attr::Verdict, verdict.into()),
            (Attr::Cmd, "equiv".into()),
            (Attr::Fp, fp.into()),
            (Attr::Run, run.into()),
            (Attr::Producer, "gfab 0.4.0".into()),
            (Attr::Exit, 0.into()),
            (Attr::K, k.into()),
            (Attr::TsMs, 1_700_000_000_000.into()),
        ];
        r
    }

    /// One row as a ledger line, without its newline.
    fn to_line(r: &SpanRecord) -> String {
        let mut line = String::new();
        write_span(&mut line, r, true);
        line
    }

    /// Parses one row through the strict reader.
    fn parse_line(line: &str) -> Result<SpanRecord, ParseError> {
        let mut ledger = Ledger::from_jsonl(line, false)?;
        assert_eq!(ledger.rows.len(), 1, "{line}");
        Ok(ledger.rows.remove(0))
    }

    #[test]
    fn rows_round_trip_with_and_without_mem() {
        let mut r = row("1-2", "00ff", 16, "equivalent", 120, 900);
        let line = to_line(&r);
        assert!(
            line.starts_with("{\"type\":\"span\",\"version\":5,"),
            "{line}"
        );
        assert_eq!(parse_line(&line).unwrap(), r);
        r.gauges = vec![(Gauge::MemPeakBytes, 4096)];
        let line = to_line(&r);
        assert!(line.contains("\"mem-peak-bytes\":4096"));
        assert_eq!(parse_line(&line).unwrap(), r);
        // Strictness: unknown keys, wrong types and other versions are
        // rejected with the field named.
        let e = parse_line(&line.replace("\"k\":16", "\"k\":16,\"extra\":1")).unwrap_err();
        assert!(e.message.contains("unknown attribute"), "{e}");
        assert_eq!(e.path, "attrs.extra");
        let e = parse_line(&line.replace("\"hists\"", "\"extra\":1,\"hists\"")).unwrap_err();
        assert!(e.message.contains("unexpected field"), "{e}");
        assert_eq!(e.path, "extra");
        let e = parse_line(&line.replace("\"k\":16", "\"k\":\"16\"")).unwrap_err();
        assert_eq!(e.path, "attrs.k");
        for version in ["99", "3", "4"] {
            let e = parse_line(&line.replace("\"version\":5", &format!("\"version\":{version}")))
                .unwrap_err();
            assert_eq!(e.path, "version");
        }
        // A ledger line is a root that names its run.
        let e = parse_line(&line.replace("\"run\":\"1-2\",", "")).unwrap_err();
        assert_eq!(e.path, "attrs.run");
        let e = parse_line(&line.replace("\"parent\":null", "\"parent\":1")).unwrap_err();
        assert_eq!(e.path, "attrs");
    }

    #[test]
    fn parse_tolerates_only_a_torn_final_line() {
        let good = to_line(&row("1-2", "00ff", 16, "equivalent", 1, 2));
        let text = format!("{good}\n{good}\n{{\"type\":\"span\",\"vers");
        let ledger = Ledger::from_jsonl(&text, false).expect("torn tail tolerated");
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.torn, Some(3));
        // Torn line in the middle is an error.
        let text = format!("{good}\n{{\"type\":\"span\",\"vers\n{good}");
        assert_eq!(Ledger::from_jsonl(&text, false).unwrap_err().line, 2);
        // A well-formed final line with bad fields is an error too.
        let bad = good.replace("\"type\":\"span\"", "\"type\":\"walk\"");
        let e = Ledger::from_jsonl(&format!("{good}\n{bad}"), false).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "type"));
    }

    #[test]
    fn lenient_parse_skips_mid_file_garbage_with_a_counter() {
        let good = to_line(&row("1-2", "00ff", 16, "equivalent", 1, 2));
        // Mid-file garbage (torn line healed over by later appends) plus
        // a genuinely torn tail.
        let text = format!("{good}\n{{\"type\":\"span\",\"vers\n{good}\n{{\"type\":\"span\",\"ve");
        let ledger = Ledger::from_jsonl(&text, true).unwrap();
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.skipped, 1);
        assert_eq!(ledger.torn, Some(4));
        // A well-formed line with bad fields is skipped, not fatal.
        let bad = good.replace("\"type\":\"span\"", "\"type\":\"walk\"");
        let ledger = Ledger::from_jsonl(&format!("{bad}\n{good}"), true).unwrap();
        assert_eq!(ledger.rows.len(), 1);
        assert_eq!(ledger.skipped, 1);
        assert_eq!(ledger.torn, None);
        // But a line of another kind of file is an error even here.
        let span = "{\"type\":\"trace\",\"version\":5,\"spans\":0}";
        let e = Ledger::from_jsonl(&format!("{good}\n{span}"), true).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "type"));
        assert!(e.message.contains("found a \"trace\" header"), "{e}");
        // And so is a line of another schema version.
        let old = good.replace("\"version\":5", "\"version\":4");
        let e = Ledger::from_jsonl(&format!("{good}\n{old}"), true).unwrap_err();
        assert_eq!((e.line, e.path.as_str()), (2, "version"));
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
        append(&path, &r).unwrap();
        append(&path, &r).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let ledger = Ledger::from_jsonl(&text, false).unwrap();
        assert_eq!(ledger.rows.len(), 2);
        assert_eq!(ledger.torn, None);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
