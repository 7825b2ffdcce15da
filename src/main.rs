//! The `gfab` command-line tool: word-level abstraction and equivalence
//! checking of Galois field circuits from netlist files.
//!
//! The [`COMMANDS`] table declares all thirteen subcommands with their
//! operands and flags; it drives dispatch, argv parsing (see [`cli`]),
//! `gfab help` and every `gfab <cmd> --help`:
//!
//! * verification — `extract`, `verify-spec`, `equiv`, `sat-equiv`,
//!   `batch`, `fuzz`;
//! * netlists — `gen`, `info`;
//! * traces and run history — `trace-check`, `trace-diff`, `trace-agg`,
//!   `flame`, `report`.
//!
//! Netlists use the line-oriented text format of
//! [`gfab::netlist::format`]; `gfab gen` produces them.

mod alloc;
#[macro_use]
mod cli;
mod live;

use cli::{Args, Command};
use gfab::circuits::{gf_adder, mastrovito_multiplier, montgomery_multiplier_hier, squarer};
use gfab::core::equiv::Verdict;
use gfab::core::ideal_membership::{spec_ring, verify_against_spec};
use gfab::core::Extraction;
use gfab::engine::exit_code;
use gfab::field::budget::Budget;
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{Gf2Poly, GfContext};
use gfab::netlist::{format as nlformat, Netlist};
use gfab::sat::equiv::{check_equivalence_sat_traced, SatVerdict};
use gfab::telemetry::Telemetry;
use gfab::Verifier;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Route every allocation through the accounting hooks so `--mem-stats`
/// can attribute memory to phases; with tracking off (the default) each
/// hook is one relaxed atomic load.
#[global_allocator]
static ALLOC: alloc::TraceAlloc = alloc::TraceAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const FIELD: &[&str] = &["--k K", "--modulus E0,E1,..."];
const THREADS: &[&str] = &["--threads N"];
const TIMEOUT: &[&str] = &["--timeout D"];
/// The telemetry views of one query, read by [`TraceArgs`].
const TRACE: &[&str] = &["--trace", "--stats", "--mem-stats", "--trace-json FILE"];
const LEDGER: &[&str] = &["--ledger FILE"];
/// The live sinks, read by [`live::start`].
const LIVE: &[&str] = &["--progress", "--events FILE|-", "--events-cap N"];
/// Everything `extract` and `equiv` take besides their netlists.
const QUERY: &[&[&str]] = &[FIELD, THREADS, TIMEOUT, TRACE, LEDGER, LIVE];

/// The whole command-line grammar, one subcommand per row: dispatch,
/// argv parsing, the COMMANDS and USAGE blocks of `gfab help` and every
/// `gfab <cmd> --help` come from this table.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "extract", summary: "word-level extraction of one netlist",
        positionals: &["<circuit.nl>"], flags: QUERY, run: cmd_extract },
    Command { name: "verify-spec", summary: "ideal-membership check against a --spec polynomial",
        positionals: &["<circuit.nl>"], flags: &[&["--spec EXPR"], FIELD], run: cmd_verify_spec },
    Command { name: "equiv", summary: "word-level equivalence of two netlists (with SAT fallback)",
        positionals: &["<spec.nl>", "<impl.nl>"], flags: QUERY, run: cmd_equiv },
    Command { name: "sat-equiv", summary: "SAT-only miter equivalence check",
        positionals: &["<spec.nl>", "<impl.nl>"], flags: &[&["--conflicts N"], TIMEOUT],
        run: cmd_sat_equiv },
    Command { name: "batch", summary: "run a manifest of queries over a shared-cache worker pool",
        positionals: &["<manifest.json>"],
        flags: &[THREADS, TIMEOUT, &["--cache-cap N", "--repeat N", "--stats", "--trace-json FILE"],
            LEDGER, LIVE],
        run: cmd_batch },
    Command { name: "gen", summary: "emit a generator netlist",
        positionals: &["<mastrovito|montgomery|squarer|adder>"], flags: &[FIELD, &["-o FILE"]],
        run: cmd_gen },
    Command { name: "info", summary: "print netlist facts",
        positionals: &["<circuit.nl>"], flags: &[], run: cmd_info },
    Command { name: "trace-check",
        summary: "validate a JSONL trace, aggregation, event stream or ledger",
        positionals: &["<trace.jsonl>"], flags: &[], run: cmd_trace_check },
    Command { name: "trace-diff", summary: "align two traces by phase path and diff work units",
        positionals: &["<baseline.jsonl>", "<current.jsonl>"],
        flags: &[&["--threshold PCT", "--wall"]], run: cmd_trace_diff },
    Command { name: "trace-agg",
        summary: "aggregate many traces into mergeable per-group summaries",
        positionals: &["<trace.jsonl>..."], flags: &[&["--group-by phase|k|arch", "--json FILE"]],
        run: cmd_trace_agg },
    Command { name: "flame", summary: "export a trace as a flamegraph / critical-path analysis",
        positionals: &["<trace.jsonl>"], flags: &[&["--out folded|speedscope", "--critical-path"]],
        run: cmd_flame },
    Command { name: "report", summary: "render a run-ledger dashboard, or follow it as it grows",
        positionals: &["<ledger.jsonl>"],
        flags: &[&["--md", "--follow", "--interval D", "--iterations N"]], run: cmd_report },
    Command { name: "fuzz", summary: "deterministic differential fuzzing campaign",
        positionals: &[],
        flags: &[&["--seed N", "--cases N"], THREADS,
            &["--k-min K", "--k-max K", "--fault-rate PCT", "--faults A,B,...", "--corpus DIR"],
            TIMEOUT, &["--sat-conflicts N", "--shrink-budget N", "--word-work-cap N"],
            &["--replay CASE.json", "--trace", "--stats", "--trace-json FILE"], LEDGER, LIVE],
        run: cmd_fuzz },
];

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some(name) = argv.first() else {
        print_usage();
        return Ok(ExitCode::from(2));
    };
    match name.as_str() {
        "--version" | "-V" | "version" => {
            println!("{}", gfab::version::version_string());
            return Ok(ExitCode::SUCCESS);
        }
        "--help" | "-h" | "help" => {
            print_usage();
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}` (try `gfab help`)"))?;
    match cli::parse(cmd, &argv[1..])? {
        Some(args) => (cmd.run)(&args),
        None => {
            eprintln!("gfab {} — {}\n\n{}", cmd.name, cmd.summary, cmd.synopsis());
            eprintln!("See `gfab help` for what each flag does.");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn print_usage() {
    let commands: String = COMMANDS
        .iter()
        .map(|c| format!("  {:<12} {}\n", c.name, c.summary))
        .collect();
    let usage: String = COMMANDS.iter().map(Command::synopsis).collect();
    eprintln!(
        "gfab — word-level abstraction & equivalence checking over F_2^k

COMMANDS:
{commands}
USAGE:
{usage}
The field F_2^k is constructed with the NIST polynomial when k is a NIST
ECC degree, a low-weight irreducible otherwise, or an explicit
--modulus given as a comma-separated exponent list (e.g. 163,7,6,3,0).

--threads N shards extraction and simulation over N worker threads
(0 or omitted = available parallelism, 1 = fully serial); results are
bit-identical regardless of N.

--timeout D sets a wall-clock deadline per query (e.g. 500ms, 5s, 2m;
a bare number means seconds). `equiv` degrades gracefully: when the
word-level pipeline runs out of time it falls back to the SAT miter
check with the remaining budget, so the verdict is always sound.

`batch` runs a whole manifest of queries over a work-stealing worker
pool, sharing an artifact cache (canonical-netlist → extraction) and a
field-context cache across all of them; duplicate circuits and
structurally identical sub-blocks extract once per batch. One JSONL
result line per query on stdout, plus one batch-summary line per pass
with cache hit/miss/eviction counters and work units; --repeat N runs
the batch N times in-process (pass 2+ is warm), --cache-cap bounds the
artifact cache in entries, --timeout is the shared budget of each whole
pass, split fairly across its queries. Results are bit-identical to
running the queries sequentially, at any --threads value. With batch,
--stats prints a human-readable summary of each pass to stderr.

--stats prints a per-phase table (span count, total and self time, %
of wall clock); --trace prints the full span tree with counters;
--mem-stats additionally attributes live-bytes peak and allocation
totals to each phase (implies --stats); --trace-json FILE writes the
span records as JSONL (one object per span). `gfab trace-check`
validates any JSONL file gfab writes: a trace, a trace-agg --json
summary, an --events stream or a --ledger file. One reader frames all
four, reads schema version 4 only, and ignores (and reports) a torn
final line, such as a file being read while its writer is mid-line.

trace-diff aligns two JSONL traces by phase path and reports per-phase
deltas. With --threshold PCT it exits 1 when any phase's *work units*
(deterministic effort counters, identical across thread counts and
machines) grew more than PCT percent over baseline; wall time and
memory are informational, never gated (--wall adds an informational
Δwall column). A counter or work-unit sum that overflows u64 is an
error (exit 2) naming the phase path and counter. The paper-table
benchmark binaries write the same traces (--trace-json); the perf gate
is `trace-diff BASE CUR --threshold 0` run in both directions.

trace-agg streams any number of JSONL traces into per-group summaries
(span counts, work units, wall-time p50/p90/p99/max from mergeable
histograms), grouped by phase path (default), field width k, or
generator architecture. Aggregating shards separately and merging
yields byte-identical output to aggregating their concatenation.
--json FILE writes the summary as a strict v4 `agg` JSONL document
that `gfab trace-check` validates. A group's counter or work-unit sum
that overflows u64 exits 2 naming the group and counter, as does a run
whose work units overflow in `report`'s drift table.

flame folds one trace into flamegraph input on stdout: --out folded
(default) emits Brendan-Gregg collapsed stacks weighted by self time;
--out speedscope emits a speedscope.app JSON profile, one timeline per
thread. --critical-path instead reports the longest chain of
non-overlapping spans — the serial dependency bound on the run; it is
always >= the longest single span and <= the wall clock, and the gap
to the wall clock is the available parallel slack.

--ledger FILE appends one JSONL row per query (build, command
fingerprint, k, verdict, exit code, work units, wall time, peak memory
under --mem-stats) to a persistent append-only run ledger; extract,
equiv, batch and fuzz all accept it, and the same file can accumulate
rows from all of them across runs. `gfab report LEDGER` renders the
accumulated history as a dashboard — verdict mix, per-k latency
percentiles, and the work-unit drift between the two most recent runs
of each repeated command line, and the latest five rows (--md for
markdown). Writes are crash-safe at line granularity; the reader
tolerates one torn final line, and report skips and counts any other
unparsable line rather than dying on it. `gfab report LEDGER --follow`
keeps reading the file while other processes append to it, re-rendering
the report whenever it changes (a missing file reads as empty;
--interval sets the poll cadence, --iterations bounds the loop).

--progress renders a live status line on stderr while the query runs
(phase, work units/s, budget remaining, per-worker queries). On a real
terminal it rewrites one line in place; when piped, or with NO_COLOR
set or TERM=dumb, it degrades to periodic plain-text lines and never
emits an ANSI escape. --events FILE (or `-` for stdout) streams every
live event as strict NDJSON (`gfab trace-check` validates it, even
mid-run before the footer lands). Events ride a bounded non-blocking
channel: under backpressure they are dropped and counted (the count
appears in the stream footer and on stderr), and the computation —
work units, verdicts, exit codes — is byte-identical with live output
on or off, at any --threads value. --events-cap N resizes the queue.

`fuzz` runs a deterministic seeded campaign: specimens drawn from a
weighted architecture pool over F_2^k (k-min..k-max), a typed fault
injected into --fault-rate percent of impl sides (kinds: gate-flip,
wire-swap, stuck-const, drop-term, wrong-modulus; restrict with
--faults), every specimen judged by a three-way differential oracle
(simulation ground truth vs word-level abstraction vs SAT miter).
Failing specimens are shrunk by delta debugging and written to
--corpus as replayable JSON; `gfab fuzz --replay case.json` re-runs
one. The same seed gives byte-identical summaries and corpora at any
--threads value; --timeout only skips whole trailing cases. The
campaign summary is one canonical JSON line on stdout; --stats adds
human-readable coverage tables on stderr, --trace the span tree, and
--trace-json FILE writes the spans. --word-work-cap N bounds the work
units of each word-level oracle run (0 = unbounded).

EXIT CODES:
  0  equivalent / extraction or generation succeeded
     (fuzz: campaign clean — catches only, no cross-engine findings;
      replay: the recorded classification reproduced)
  1  not equivalent / property refuted (a counterexample was found)
     (fuzz: at least one cross-engine finding; replay: no longer
      reproduces)
  2  usage error or malformed input
  3  verdict unknown (resource budget exhausted before a decision)
     (fuzz: the campaign deadline skipped at least one case)"
    );
}

/// Parses `--k` / `--modulus` into a field context.
fn parse_field(args: &Args) -> Result<Arc<GfContext>, String> {
    let k: Option<usize> = args.get("--k")?;
    let modulus = args.value_with("--modulus", |v| {
        let exps: Result<Vec<usize>, _> = v.split(',').map(|s| s.parse()).collect();
        exps.map(|e| Gf2Poly::from_exponents(&e))
            .map_err(|_| format!("bad exponent list `{v}`"))
    })?;
    let p = match (modulus, k) {
        (Some(p), _) => p,
        (None, Some(k)) => {
            irreducible_polynomial(k).ok_or(format!("no irreducible polynomial for k={k}"))?
        }
        (None, None) => return Err("--k or --modulus is required".into()),
    };
    GfContext::shared(p).map_err(|e| e.to_string())
}

fn load(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    nlformat::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Telemetry-output selection shared by `extract` and `equiv`.
struct TraceArgs<'a> {
    tree: bool,
    stats: bool,
    mem: bool,
    json: Option<&'a str>,
}

impl<'a> TraceArgs<'a> {
    fn new(args: &Args<'a>) -> Self {
        let mem = args.has("--mem-stats");
        TraceArgs {
            tree: args.has("--trace"),
            // Memory accounting without an output sink would be invisible;
            // --mem-stats therefore implies the per-phase stats table.
            stats: args.has("--stats") || mem,
            mem,
            json: args.value("--trace-json"),
        }
    }

    /// Whether the query needs a telemetry collector at all.
    fn enabled(&self) -> bool {
        self.tree || self.stats || self.json.is_some()
    }

    /// Renders/writes the requested views of a query's trace.
    fn emit(&self, trace: Option<&gfab::telemetry::Trace>) -> Result<(), String> {
        let Some(trace) = trace else {
            return Ok(());
        };
        if self.stats {
            println!("{}", trace.render_table());
        }
        if self.tree {
            println!("{}", trace.render_tree());
        }
        match self.json {
            Some(path) => write_trace(path, trace),
            None => Ok(()),
        }
    }
}

/// Writes the `--trace-json` file of `extract`, `equiv`, `batch` and
/// `fuzz`.
fn write_trace(path: &str, trace: &gfab::telemetry::Trace) -> Result<(), String> {
    // Stamp the producing build into the header so a trace file can
    // always be matched back to the binary that wrote it.
    std::fs::write(
        path,
        trace.to_jsonl_tagged(&gfab::version::version_string()),
    )
    .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {} spans to {path}", trace.spans().len());
    Ok(())
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64)
}

/// One query's contribution to a ledger row; the invocation-level
/// fields (run id, fingerprint, producer) come from [`LedgerArgs`].
struct QueryRecord<'a> {
    query: &'a str,
    k: u64,
    verdict: &'a str,
    exit: u8,
    work_units: u64,
    wall: std::time::Duration,
    mem_peak_bytes: Option<u64>,
}

/// `--ledger PATH` handling shared by `extract`, `equiv`, `batch` and
/// `fuzz`: one run id and command fingerprint per process invocation,
/// one appended row per query.
struct LedgerArgs {
    cmd: &'static str,
    path: Option<std::path::PathBuf>,
    run: String,
    fp: String,
}

impl LedgerArgs {
    fn new(args: &Args) -> Self {
        LedgerArgs {
            cmd: args.cmd.name,
            path: args.value("--ledger").map(std::path::PathBuf::from),
            run: format!("{}-{}", now_ms(), std::process::id()),
            fp: args.fingerprint(),
        }
    }

    /// Whether rows will be appended (and hence whether the query needs
    /// a telemetry collector for work-unit accounting).
    fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Appends one row; a no-op without `--ledger`.
    fn append(&self, rec: &QueryRecord) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let row = gfab::telemetry::LedgerRow {
            ts_ms: now_ms(),
            run: self.run.clone(),
            producer: gfab::version::version_string(),
            cmd: self.cmd.to_string(),
            fp: self.fp.clone(),
            query: rec.query.to_string(),
            k: rec.k,
            verdict: rec.verdict.to_string(),
            exit: u64::from(rec.exit),
            work_units: rec.work_units,
            wall_us: rec.wall.as_micros().min(u128::from(u64::MAX)) as u64,
            mem_peak_bytes: rec.mem_peak_bytes,
        };
        row.append(path)
            .map_err(|e| format!("cannot append to ledger {}: {e}", path.display()))
    }
}

/// The file stem of a netlist path, for ledger query names.
fn stem(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
}

fn cmd_extract(args: &Args) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let ctx = parse_field(args)?;
    let threads = args.get("--threads")?.unwrap_or(0);
    let timeout = args.duration("--timeout")?;
    let tracing = TraceArgs::new(args);
    let ledger = LedgerArgs::new(args);
    let reporter = live::start(args)?;
    let nl = load(path)?;
    let t = Instant::now();
    let mut v = Verifier::new(&ctx)
        .threads(threads)
        .trace(tracing.enabled() || ledger.enabled())
        .events(reporter.bus())
        .mem_stats(tracing.mem);
    if let Some(w) = timeout {
        v = v.deadline(w);
    }
    // A budget trip in a phase with no partial result (e.g. model
    // construction) is still a TIMED OUT verdict, not a usage error.
    let report = match v.extract(&nl) {
        Ok(r) => r,
        Err(gfab::core::CoreError::BudgetExhausted {
            phase,
            block,
            reason,
        }) => {
            reporter.finish()?;
            match block {
                Some(b) => println!("TIMED OUT during {phase} (block {b}): {reason}"),
                None => println!("TIMED OUT during {phase}: {reason}"),
            }
            let exit = exit_code("timeout");
            ledger.append(&QueryRecord {
                query: stem(path),
                k: ctx.k() as u64,
                verdict: "timeout",
                exit,
                work_units: 0,
                wall: t.elapsed(),
                mem_peak_bytes: None,
            })?;
            return Ok(ExitCode::from(exit));
        }
        Err(e) => return Err(e.to_string()),
    };
    let elapsed = t.elapsed();
    reporter.finish()?;
    let result = report.as_flat().expect("flat netlist gives flat report");
    println!("circuit : {} ({} gates)", nl.name(), nl.num_gates());
    println!("field   : F_2^{}, P(x) = {}", ctx.k(), ctx.modulus());
    match &result.outcome {
        Extraction::Canonical(f) => println!("function: Z = {}", f.display()),
        Extraction::Residual { remainder, note } => {
            println!("residual: {} terms ({note})", remainder.num_terms());
        }
        Extraction::TimedOut { phase, reason } => println!("TIMED OUT during {phase}: {reason}"),
    }
    let verdict = result.outcome.word();
    let exit = exit_code(verdict);
    println!(
        "effort  : {} reduction steps ({} cancellations), peak {} terms, {elapsed:?}",
        result.stats.reduction_steps, result.stats.cancellations, result.stats.peak_terms
    );
    println!(
        "phases  : model {:?}, reduce {:?}, case2 {:?}",
        result.stats.model_time, result.stats.reduce_time, result.stats.case2_time
    );
    tracing.emit(report.trace.as_ref())?;
    ledger.append(&QueryRecord {
        query: stem(path),
        k: ctx.k() as u64,
        verdict,
        exit,
        work_units: report.trace.as_ref().map_or(0, |t| t.work_units()),
        wall: elapsed,
        mem_peak_bytes: report
            .trace
            .as_ref()
            .and_then(|t| t.gauge_total(gfab::telemetry::Gauge::MemPeakBytes)),
    })?;
    Ok(ExitCode::from(exit))
}

/// Verifies a circuit against a textual specification polynomial via the
/// ideal membership test of Lv-Kalla-Enescu (reference [5] of the paper).
fn cmd_verify_spec(args: &Args) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let spec_text = args
        .value("--spec")
        .ok_or("--spec \"<expr>\" is required (e.g. --spec \"A*B\")")?;
    let ctx = parse_field(args)?;
    let nl = load(path)?;
    let sr = spec_ring(&nl, &ctx);
    let f = gfab::poly::parse_poly(spec_text, &sr.ring).map_err(|e| e.to_string())?;
    if f.contains_var(sr.z) {
        return Err("the spec expression must not mention the output word".into());
    }
    let t = Instant::now();
    let out = verify_against_spec(&nl, &ctx, &sr, &f).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();
    if out.verified {
        println!(
            "VERIFIED: {} implements Z = {spec_text} ({elapsed:?})",
            nl.name()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        let rem = out.remainder.expect("non-verified has remainder");
        println!(
            "REFUTED: Z + ({spec_text}) does not vanish; residual has {} terms ({elapsed:?})",
            rem.num_terms()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_equiv(args: &Args) -> Result<ExitCode, String> {
    let (spec_path, impl_path) = (args.positionals[0], args.positionals[1]);
    let ctx = parse_field(args)?;
    let threads = args.get("--threads")?.unwrap_or(0);
    let timeout = args.duration("--timeout")?;
    let tracing = TraceArgs::new(args);
    let ledger = LedgerArgs::new(args);
    let reporter = live::start(args)?;
    let spec = load(spec_path)?;
    let impl_ = load(impl_path)?;
    let t = Instant::now();
    let mut v = Verifier::new(&ctx)
        .threads(threads)
        .trace(tracing.enabled() || ledger.enabled())
        .events(reporter.bus())
        .mem_stats(tracing.mem);
    if let Some(w) = timeout {
        v = v.deadline(w);
    }
    let report = v.check(&spec, &impl_).map_err(|e| e.to_string())?;
    let elapsed = t.elapsed();
    reporter.finish()?;
    // When the SAT fallback rung ran, surface its full search effort —
    // the word-level stats alone say nothing about where the time went.
    if let Some(s) = &report.sat {
        println!(
            "sat     : {} vars, {} clauses; {} conflicts, {} decisions, \
             {} propagations, {} restarts",
            s.cnf_vars, s.cnf_clauses, s.conflicts, s.decisions, s.propagations, s.restarts
        );
    }
    tracing.emit(report.trace.as_ref())?;
    match &report.verdict {
        Verdict::Equivalent { function } => {
            println!(
                "EQUIVALENT: both circuits implement Z = {}",
                function.display()
            );
        }
        Verdict::Inequivalent { spec, impl_, .. } => {
            println!("INEQUIVALENT");
            println!("  spec: Z = {}", spec.display());
            println!("  impl: Z = {}", impl_.display());
        }
        Verdict::InequivalentBySimulation { .. } => println!("INEQUIVALENT (simulation witness)"),
        Verdict::EquivalentBySat { conflicts } => {
            println!("EQUIVALENT (SAT fallback: miter UNSAT after {conflicts} conflicts)");
        }
        Verdict::InequivalentBySat { conflicts, .. } => {
            println!("INEQUIVALENT (SAT fallback witness, {conflicts} conflicts)");
        }
        Verdict::Unknown { reason } => println!("UNKNOWN: {reason}"),
    }
    if let Some(cex) = report.verdict.counterexample() {
        let pretty: Vec<String> = cex.iter().map(|g| g.to_string()).collect();
        println!("  counterexample: ({})", pretty.join(", "));
    }
    println!("({elapsed:?})");
    let verdict = report.verdict.word();
    let exit = exit_code(verdict);
    ledger.append(&QueryRecord {
        query: &format!("{}~{}", stem(spec_path), stem(impl_path)),
        k: ctx.k() as u64,
        verdict,
        exit,
        work_units: report.trace.as_ref().map_or(0, |t| t.work_units()),
        wall: elapsed,
        mem_peak_bytes: report
            .trace
            .as_ref()
            .and_then(|t| t.gauge_total(gfab::telemetry::Gauge::MemPeakBytes)),
    })?;
    Ok(ExitCode::from(exit))
}

fn cmd_sat_equiv(args: &Args) -> Result<ExitCode, String> {
    let (spec_path, impl_path) = (args.positionals[0], args.positionals[1]);
    let conflicts = args.get("--conflicts")?.unwrap_or(1_000_000u64);
    let timeout = args.duration("--timeout")?;
    let spec = load(spec_path)?;
    let impl_ = load(impl_path)?;
    let budget = timeout.map_or_else(Budget::unlimited, Budget::with_deadline);
    let t = Instant::now();
    let report =
        check_equivalence_sat_traced(&spec, &impl_, conflicts, &budget, &Telemetry::disabled());
    let elapsed = t.elapsed();
    println!(
        "miter: {} vars, {} clauses; {} conflicts, {} decisions",
        report.cnf_vars, report.cnf_clauses, report.stats.conflicts, report.stats.decisions
    );
    match report.verdict {
        SatVerdict::Equivalent => {
            println!("EQUIVALENT (miter UNSAT, {elapsed:?})");
            Ok(ExitCode::SUCCESS)
        }
        SatVerdict::Counterexample(bits) => {
            println!("INEQUIVALENT; distinguishing input bits: {bits:?} ({elapsed:?})");
            Ok(ExitCode::FAILURE)
        }
        SatVerdict::Unknown(interrupt) => {
            println!("UNKNOWN: {interrupt} ({elapsed:?})");
            Ok(ExitCode::from(3))
        }
    }
}

/// Runs a manifest of queries through the batch [`Engine`], emitting one
/// JSONL result line per query plus a per-pass `batch-summary` line.
/// Overall exit: any usage/internal failure → 2, else any unknown → 3,
/// else any refutation → 1, else 0.
fn cmd_batch(args: &Args) -> Result<ExitCode, String> {
    use gfab::engine::EngineConfig;
    use gfab::telemetry::json::write_json_string;

    let queries = gfab::manifest::load_manifest(args.positionals[0])?;
    let repeat: usize = args.value_with("--repeat", cli::positive)?.unwrap_or(1);
    let cache_cap: usize = args
        .get("--cache-cap")?
        .unwrap_or(EngineConfig::default().cache_capacity);
    let threads = args.get("--threads")?.unwrap_or(0);
    let deadline = args.duration("--timeout")?;
    let stats = args.has("--stats");
    let trace_json = args.value("--trace-json");
    let ledger = LedgerArgs::new(args);
    let reporter = live::start(args)?;
    let engine = gfab::Engine::new(EngineConfig {
        threads,
        cache_capacity: cache_cap,
        deadline,
        trace: trace_json.is_some() || ledger.enabled(),
        events: reporter.bus().clone(),
        ..EngineConfig::default()
    });
    let k_of: std::collections::BTreeMap<&str, u64> = queries
        .iter()
        .map(|q| (q.name.as_str(), q.modulus.degree().unwrap_or(0) as u64))
        .collect();

    let mut seen = [false; 4]; // seen[e] = some query exited with e
                               // Per-query traces are merged into one batch-wide trace for
                               // --trace-json: each query's spans are shifted by its pass offset
                               // plus its queue latency, so the merged timeline approximates the
                               // real concurrent schedule (what `gfab flame` visualizes).
    let mut merged_parts: Vec<(gfab::telemetry::Trace, std::time::Duration)> = Vec::new();
    let mut pass_offset = std::time::Duration::ZERO;
    for pass in 0..repeat {
        let report = engine.run_batch(&queries);
        for r in &report.results {
            let exit = r.outcome.exit_severity();
            let fields = render_query_result(&r.outcome);
            seen[exit as usize] = true;
            let mut line = String::from("{\"query\":");
            write_json_string(&mut line, &r.name);
            line.push_str(&format!(
                ",{fields},\"exit\":{exit},\"queue_us\":{},\"wall_us\":{}}}",
                r.queue_us,
                r.duration.as_micros()
            ));
            println!("{line}");
            if trace_json.is_some() {
                if let Some(tr) = outcome_trace(&r.outcome) {
                    merged_parts.push((
                        tr.clone(),
                        pass_offset + std::time::Duration::from_micros(r.queue_us),
                    ));
                }
            }
            ledger.append(&QueryRecord {
                query: &r.name,
                k: k_of.get(r.name.as_str()).copied().unwrap_or(0),
                verdict: r.outcome.verdict_word(),
                exit,
                work_units: outcome_trace(&r.outcome).map_or(0, |t| t.work_units()),
                wall: r.duration,
                mem_peak_bytes: None,
            })?;
        }
        pass_offset += report.wall;
        let c = &report.cache;
        println!(
            "{{\"batch-summary\":{{\"pass\":{pass},\"queries\":{},\"work_units\":{},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}},\
             \"context\":{{\"hits\":{},\"misses\":{}}},\
             \"queue_latency_us\":{{\"count\":{},\"mean\":{},\"max\":{}}},\"wall_us\":{}}}}}",
            report.results.len(),
            report.work_units,
            c.hits,
            c.misses,
            c.evictions,
            c.entries,
            report.context_hits,
            report.context_misses,
            report.queue_latency.count,
            report.queue_latency.mean() as u64,
            report.queue_latency.max,
            report.wall.as_micros()
        );
        if stats {
            eprintln!(
                "pass {pass}: {} queries in {:?}; {} work units; artifact cache \
                 {} hits / {} misses / {} evictions ({} resident); context cache \
                 {} hits / {} misses",
                report.results.len(),
                report.wall,
                report.work_units,
                c.hits,
                c.misses,
                c.evictions,
                c.entries,
                report.context_hits,
                report.context_misses
            );
        }
    }
    reporter.finish()?;
    if let Some(path) = trace_json {
        let merged =
            gfab::telemetry::Trace::merged(merged_parts.iter().map(|(t, shift)| (t, *shift)));
        write_trace(path, &merged)?;
    }
    // 2 (error) dominates, then 3 (unknown), then 1 (refuted).
    let overall = if seen[2] {
        2
    } else if seen[3] {
        3
    } else if seen[1] {
        1
    } else {
        0
    };
    Ok(ExitCode::from(overall))
}

/// The telemetry trace captured for one batch query, when the engine
/// ran with tracing enabled.
fn outcome_trace(outcome: &gfab::engine::QueryOutcome) -> Option<&gfab::telemetry::Trace> {
    use gfab::engine::QueryOutcome;
    match outcome {
        QueryOutcome::Extracted(report) => report.trace(),
        QueryOutcome::Checked(report) => report.trace(),
        QueryOutcome::TimedOut(_) | QueryOutcome::Failed(_) => None,
    }
}

/// One query outcome → the JSON fields after `"query"`.
fn render_query_result(outcome: &gfab::engine::QueryOutcome) -> String {
    use gfab::engine::QueryOutcome;
    use gfab::telemetry::json::write_json_string;
    let mut s = String::new();
    match outcome {
        QueryOutcome::Failed(msg) => {
            s.push_str("\"op\":\"failed\",\"error\":");
            write_json_string(&mut s, msg);
        }
        QueryOutcome::TimedOut(reason) => {
            s.push_str("\"op\":\"timeout\",\"reason\":");
            write_json_string(&mut s, reason);
        }
        QueryOutcome::Extracted(report) => {
            s.push_str("\"op\":\"extract\",");
            match report.as_flat().map(|r| &r.outcome) {
                None | Some(Extraction::Canonical(_)) => {
                    let f = report.function().expect("canonical outcome has a function");
                    s.push_str("\"outcome\":\"canonical\",\"function\":");
                    write_json_string(&mut s, &format!("{}", f.display()));
                }
                Some(Extraction::Residual { remainder, note }) => {
                    s.push_str(&format!(
                        "\"outcome\":\"residual\",\"terms\":{},\"note\":",
                        remainder.num_terms()
                    ));
                    write_json_string(&mut s, note);
                }
                Some(Extraction::TimedOut { phase, reason }) => {
                    s.push_str("\"outcome\":\"timeout\",\"reason\":");
                    write_json_string(&mut s, &format!("{phase}: {reason}"));
                }
            }
        }
        QueryOutcome::Checked(report) => {
            let v = report.verdict();
            s.push_str(&format!(
                "\"op\":\"equiv\",\"verdict\":\"{}\",\"method\":\"{}\"",
                v.word(),
                v.method()
            ));
            if let Verdict::Unknown { reason } = v {
                s.push_str(",\"reason\":");
                write_json_string(&mut s, reason);
            }
            if let Some(cex) = v.counterexample() {
                let pretty: Vec<String> = cex.iter().map(|g| g.to_string()).collect();
                s.push_str(",\"counterexample\":");
                write_json_string(&mut s, &pretty.join(", "));
            }
        }
    }
    s
}

fn cmd_gen(args: &Args) -> Result<ExitCode, String> {
    let ctx = parse_field(args)?;
    let nl = match args.positionals[0] {
        "mastrovito" => mastrovito_multiplier(&ctx),
        "montgomery" => montgomery_multiplier_hier(&ctx).flatten(),
        "squarer" => squarer(&ctx),
        "adder" => gf_adder(&ctx),
        other => return Err(format!("unknown architecture `{other}`")),
    };
    let text = nlformat::emit(&nl);
    match args.value("-o") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} ({} gates) to {path}", nl.name(), nl.num_gates());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_info(args: &Args) -> Result<ExitCode, String> {
    let nl = load(args.positionals[0])?;
    println!("name   : {}", nl.name());
    println!("gates  : {}", nl.num_gates());
    println!("nets   : {}", nl.num_nets());
    for w in nl.input_words() {
        println!("input  : {} [{} bits]", w.name, w.width());
    }
    let z = nl.output_word();
    println!("output : {} [{} bits]", z.name, z.width());
    if let Some(depth) = gfab::netlist::topo::logic_depth(&nl) {
        println!("depth  : {depth} gate levels");
    }
    Ok(ExitCode::SUCCESS)
}

/// Validates any JSONL file gfab writes — trace, `agg` summary,
/// `--events` stream or `--ledger` file, told apart by its first line —
/// and describes it. Exit 0 on a valid file, 2 otherwise.
fn cmd_trace_check(args: &Args) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    println!(
        "{}",
        gfab::telemetry::check_jsonl(&text).map_err(|e| format!("{path}: {e}"))?
    );
    Ok(ExitCode::SUCCESS)
}

/// Parses a `--threshold` percentage (`5`, `5%`, `2.5`).
fn parse_threshold(v: &str) -> Result<f64, String> {
    let pct: f64 = v
        .trim_end_matches('%')
        .parse()
        .map_err(|_| format!("bad threshold `{v}` (use e.g. 5 or 2.5%)"))?;
    if !pct.is_finite() || pct < 0.0 {
        return Err(format!(
            "threshold must be a finite non-negative percentage, got {v}"
        ));
    }
    Ok(pct)
}

fn load_trace(path: &str) -> Result<gfab::telemetry::Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    gfab::telemetry::Trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// Aligns two JSONL traces by phase path and reports per-phase deltas.
/// With `--threshold PCT`, exits 1 when any phase's deterministic work
/// units grew more than PCT percent over the baseline.
fn cmd_trace_diff(args: &Args) -> Result<ExitCode, String> {
    let threshold = args.value_with("--threshold", parse_threshold)?;
    let a = load_trace(args.positionals[0])?;
    let b = load_trace(args.positionals[1])?;
    let diff = gfab::telemetry::TraceDiff::compute(&a, &b)?;
    print!("{}", diff.render_opts(args.has("--wall")));
    let Some(pct) = threshold else {
        return Ok(ExitCode::SUCCESS);
    };
    let regs = diff.regressions(pct);
    if regs.is_empty() {
        println!("OK: no phase exceeds the +{pct}% work-unit threshold");
        Ok(ExitCode::SUCCESS)
    } else {
        for r in &regs {
            println!("REGRESSION {r}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Aggregates any number of JSONL traces into per-group summaries with
/// mergeable wall-time histograms; see the usage text for the grouping
/// modes and the shards-vs-whole identity.
fn cmd_trace_agg(args: &Args) -> Result<ExitCode, String> {
    use gfab::telemetry::{GroupBy, TraceAgg};
    let group_by = args
        .value_with("--group-by", |v| {
            GroupBy::from_slug(v).ok_or_else(|| format!("bad value `{v}` (use phase, k or arch)"))
        })?
        .unwrap_or(GroupBy::Phase);
    let mut agg = TraceAgg::new(group_by);
    for path in &args.positionals {
        agg.add_trace(&load_trace(path)?)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", agg.render());
    if let Some(out) = args.value("--json") {
        std::fs::write(out, agg.to_jsonl_tagged(&gfab::version::version_string()))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("wrote {} group(s) to {out}", agg.groups.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// Exports one JSONL trace as flamegraph input (folded stacks or a
/// speedscope profile) on stdout, or reports the critical path.
fn cmd_flame(args: &Args) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let trace = load_trace(path)?;
    if args.has("--critical-path") {
        let cp = gfab::telemetry::critical_path(&trace);
        print!(
            "{}",
            gfab::telemetry::flame::render_critical_path(&trace, &cp)
        );
        return Ok(ExitCode::SUCCESS);
    }
    match args.value("--out") {
        None | Some("folded") => print!("{}", gfab::telemetry::folded(&trace)),
        Some("speedscope") => println!("{}", gfab::telemetry::speedscope(&trace, path)),
        Some(other) => return Err(format!("bad --out `{other}` (use folded or speedscope)")),
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a run-ledger dashboard; see the usage text for the sections.
/// With `--follow`, polls the ledger and renders it again whenever its
/// row count or skipped-line count changes.
fn cmd_report(args: &Args) -> Result<ExitCode, String> {
    let path = args.positionals[0];
    let follow = args.has("--follow");
    let interval = args.duration("--interval")?;
    let iterations: Option<u64> = args.value_with("--iterations", cli::positive)?;
    if !follow && (interval.is_some() || iterations.is_some()) {
        return Err("report: --interval and --iterations need --follow".into());
    }
    let mut last = None;
    for round in 1u64.. {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            // A followed ledger may not exist until its writer starts.
            Err(e) if follow && e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        };
        // Lenient: a ledger another process is still appending to may
        // hold torn lines; they are skipped and counted, not fatal.
        let ledger =
            gfab::telemetry::Ledger::from_jsonl(&text, true).map_err(|e| format!("{path}: {e}"))?;
        let seen = Some((ledger.rows.len(), ledger.skipped));
        if last != seen {
            last = seen;
            let report = ledger
                .render_report(args.has("--md"))
                .map_err(|e| format!("{path}: {e}"))?;
            print!("{report}");
        }
        if !follow || iterations.is_some_and(|n| round >= n) {
            break;
        }
        std::thread::sleep(interval.unwrap_or(std::time::Duration::from_millis(500)));
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the fuzz flags shared by campaigns and replays.
fn parse_fuzz_config(args: &Args) -> Result<gfab::fuzz::FuzzConfig, String> {
    use gfab::fuzz::FaultKind;
    let d = gfab::fuzz::FuzzConfig::default();
    let cfg = gfab::fuzz::FuzzConfig {
        producer: gfab::version::version_string(),
        threads: args.get("--threads")?.unwrap_or(0),
        deadline: args.duration("--timeout")?,
        seed: args.get("--seed")?.unwrap_or(d.seed),
        cases: args.get("--cases")?.unwrap_or(d.cases),
        k_min: args.get("--k-min")?.unwrap_or(d.k_min),
        k_max: args.get("--k-max")?.unwrap_or(d.k_max),
        fault_rate_pct: args
            .value_with("--fault-rate", |v| {
                v.parse()
                    .ok()
                    .filter(|&r| r <= 100)
                    .ok_or_else(|| format!("bad value `{v}` (need 0..=100)"))
            })?
            .unwrap_or(d.fault_rate_pct),
        sat_conflicts: args.get("--sat-conflicts")?.unwrap_or(d.sat_conflicts),
        shrink_budget: args.get("--shrink-budget")?.unwrap_or(d.shrink_budget),
        word_work_cap: match args.get("--word-work-cap")? {
            Some(0) => None,
            Some(cap) => Some(cap),
            None => d.word_work_cap,
        },
        fault_kinds: args
            .value_with("--faults", |list| {
                let mut kinds = Vec::new();
                for name in list.split(',') {
                    let kind = FaultKind::from_name(name.trim())
                        .ok_or_else(|| format!("unknown fault kind `{name}` (see `gfab help`)"))?;
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                }
                Ok(kinds)
            })?
            .unwrap_or(d.fault_kinds),
        ..d
    };
    if cfg.k_min < 2 || cfg.k_max < cfg.k_min || cfg.k_max > 62 {
        return Err(format!(
            "bad degree range {}..={} (need 2 <= k-min <= k-max <= 62)",
            cfg.k_min, cfg.k_max
        ));
    }
    Ok(cfg)
}

fn cmd_fuzz(args: &Args) -> Result<ExitCode, String> {
    use gfab::fuzz::{replay_case, run_campaign, write_corpus, CorpusCase, ReplayVerdict};
    use gfab::telemetry::{Collector, Telemetry};

    let mut cfg = parse_fuzz_config(args)?;

    // Replay mode: re-run one persisted corpus case under the oracle.
    if let Some(path) = args.value("--replay") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let case = CorpusCase::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "replaying {} (seed {} case {}, {} over k={}, fault {})",
            path,
            case.campaign_seed,
            case.case_index,
            case.arch,
            case.k,
            case.fault_kind.as_deref().unwrap_or("none"),
        );
        return match replay_case(&case, &cfg)? {
            ReplayVerdict::Reproduced => {
                println!("REPRODUCED: {} still {}", path, case.classification);
                Ok(ExitCode::SUCCESS)
            }
            ReplayVerdict::NotReproduced(why) => {
                println!("NOT REPRODUCED: {why}");
                Ok(ExitCode::FAILURE)
            }
        };
    }

    let (tree, json) = (args.has("--trace"), args.value("--trace-json"));
    let ledger = LedgerArgs::new(args);
    let reporter = live::start(args)?;
    let collector = Collector::new();
    if json.is_some() || tree {
        cfg.telemetry = Telemetry::attached(&collector);
    }
    cfg.telemetry = cfg.telemetry.with_events(reporter.bus());
    let report = run_campaign(&cfg);
    reporter.finish()?;

    // The canonical summary line is the *only* stdout output: scripts
    // diff it byte-for-byte across thread counts.
    println!("{}", report.summary.canonical_json(&cfg.producer));

    if let Some(dir) = args.value("--corpus") {
        let names = write_corpus(std::path::Path::new(dir), &report)?;
        eprintln!("wrote {} corpus case(s) to {dir}", names.len());
    }
    if json.is_some() || tree {
        let trace = collector.snapshot();
        if tree {
            eprintln!("{}", trace.render_tree());
        }
        if let Some(path) = json {
            write_trace(path, &trace)?;
        }
    }
    if args.has("--stats") {
        let s = &report.summary;
        eprintln!(
            "campaign: {}/{} cases in {:.1}s ({} skipped), {} faulted, \
             {} caught, {} benign, {} clean, {} finding(s)",
            s.completed,
            s.cases,
            report.wall.as_secs_f64(),
            s.skipped,
            s.faulted,
            s.caught,
            s.benign,
            s.clean,
            s.findings,
        );
        eprintln!(
            "oracle: {} work units, {} word unknown(s), {} SAT cap-out(s); \
             shrink: {} candidate(s), largest shrunk pair {} gate(s)",
            s.work_units, s.word_unknown, s.sat_unknown, s.shrink_steps, s.max_shrunk_gates,
        );
        eprintln!(
            "{:<14} {:>6} {:>8} {:>7} {:>9}",
            "arch", "cases", "faulted", "caught", "findings"
        );
        for (name, row) in &s.per_arch {
            eprintln!(
                "{:<14} {:>6} {:>8} {:>7} {:>9}",
                name, row[0], row[1], row[2], row[3]
            );
        }
        eprintln!(
            "{:<14} {:>8} {:>7} {:>7} {:>9}",
            "fault", "injected", "caught", "benign", "findings"
        );
        for (name, row) in &s.per_fault {
            eprintln!(
                "{:<14} {:>8} {:>7} {:>7} {:>9}",
                name, row[0], row[1], row[2], row[3]
            );
        }
        for case in &report.cases {
            for f in &case.findings {
                eprintln!("finding case {}: {f}", case.index);
            }
        }
    }
    let (exit, verdict) = if report.summary.findings > 0 {
        (1u8, "findings")
    } else if report.summary.skipped > 0 {
        (3, "skipped")
    } else {
        (0, "clean")
    };
    // One row for the whole campaign: k is mixed across cases (0), and
    // the work units are the campaign's deterministic oracle total.
    ledger.append(&QueryRecord {
        query: &format!("campaign-seed{}", cfg.seed),
        k: 0,
        verdict,
        exit,
        work_units: report.summary.work_units,
        wall: report.wall,
        mem_peak_bytes: None,
    })?;
    Ok(ExitCode::from(exit))
}
