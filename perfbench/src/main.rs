//! End-to-end and per-layer benchmark of gfab's equivalence flows.
//!
//! ```text
//! bash perfbench/run.sh --workload equiv-hier --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, one closed-loop client: each query is a
//! `Verifier::check` issued after the previous one returned. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` re-runs every query through
//! the benchmark's own span-recording mirror of the verdict ladder and
//! prints the per-layer metrics. The last stdout line is one JSON object.
//! See README.md for the workloads, the metrics and what they predict.

mod alloc;
mod host;
mod inputs;
mod run;
mod stats;
mod traced;

use inputs::{generate, Inputs, Query, Setup, SetupTimes, WORKLOADS};
use run::{fingerprint, run_query, Record, Step, Unsound};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median. The first precedes the
/// warm-up, the rest are spread over the measurement window so that they
/// sample the same host conditions as the rounds.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    Ok(Args {
        workload: workload.ok_or_else(|| usage.clone())?,
        seed: seed.ok_or_else(|| usage.clone())?,
        seconds: seconds.filter(|&s| s > 0).ok_or_else(|| usage.clone())?,
        trace: trace.ok_or(usage)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let inputs = match generate(&args.workload, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("inputs generated in {:.2} s", start.elapsed().as_secs_f64());
    match bench(&args, inputs) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(Unsound(why)) => {
            eprintln!("UNSOUND VERDICT, run aborted: {why}");
            ExitCode::from(3)
        }
    }
}

/// Metrics collected for the final JSON line: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn bench(args: &Args, inputs: Inputs) -> Result<String, Unsound> {
    let text_bytes: usize = inputs.texts.iter().map(String::len).sum();
    let mut setup_times: Vec<SetupTimes> = Vec::new();
    let setup = timed_setup(&inputs, &mut setup_times);
    let queries = &inputs.queries;
    println!(
        "{} seed {}: {} queries per round, {} netlists ({:.1} MB of text)",
        args.workload,
        args.seed,
        queries.len(),
        setup.netlists.len(),
        text_bytes as f64 / 1e6
    );

    // Warm-up pass: fills the allocator's arenas and any lazy tables;
    // its verdicts are judged like every other.
    let warm = Instant::now();
    for q in queries {
        run_query(q, &setup)?;
    }
    eprintln!("warm-up pass in {:.2} s", warm.elapsed().as_secs_f64());

    let mut rounds: Vec<Round> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut tracer = args.trace.then(traced::Tracer::default);
    let window = Duration::from_secs(args.seconds);
    let opened = Instant::now();
    // Time spent in the interleaved set-ups, which the window excludes.
    let mut paused = Duration::ZERO;
    while rounds.is_empty() || opened.elapsed() < window + paused {
        let before = host::sample();
        let start = Instant::now();
        let mut records = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            let record = run_query(q, &setup)?;
            if let Some(t) = tracer.as_mut() {
                t.mirror(rounds.len(), qi, q, &setup, &record);
            }
            problems.extend(record.problem.clone());
            records.push(record);
        }
        let seconds = start.elapsed().as_secs_f64();
        let host = host::describe(&before, &host::sample());
        eprintln!(
            "round {:>3}: {seconds:.4} s  fingerprint {:016x}  {host}",
            rounds.len(),
            fingerprint(&records)
        );
        rounds.push(Round { seconds, records });
        let done = (opened.elapsed() - paused).as_secs_f64() / window.as_secs_f64();
        let due = 1 + ((SETUP_REPS - 1) as f64 * done.min(1.0)) as usize;
        while setup_times.len() < due {
            let t = Instant::now();
            drop(timed_setup(&inputs, &mut setup_times));
            paused += t.elapsed();
        }
    }

    let fp = fingerprint(&rounds[0].records);
    if let Some(r) = rounds.iter().position(|r| fingerprint(&r.records) != fp) {
        problems.push(format!(
            "round {r} fingerprint differs from round 0: hidden cross-query state or a second thread"
        ));
    }
    let attempted = rounds.iter().map(|r| r.records.len()).sum::<usize>();
    let failed = rounds
        .iter()
        .flat_map(|r| &r.records)
        .filter(|r| r.step == Step::Unknown)
        .count();
    let metrics = match tracer {
        Some(t) => {
            let (metrics, mismatches) = t.finish(args, &setup, &setup_times, text_bytes);
            problems.extend(mismatches);
            metrics
        }
        None => end_to_end(args, &setup_times, &rounds, fp, queries),
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(json_line(problems.is_empty(), attempted, failed, &metrics))
}

/// One timed set-up, logged and appended to `times`.
fn timed_setup(inputs: &Inputs, times: &mut Vec<SetupTimes>) -> Setup {
    let (setup, t) = Setup::build(inputs);
    eprintln!(
        "set-up {}: {:.4} s (parse {:.4} s, contexts {:.4} s)",
        times.len(),
        t.total.as_secs_f64(),
        t.parse.as_secs_f64(),
        t.context.as_secs_f64()
    );
    times.push(t);
    setup
}

/// One pass over the query list.
pub struct Round {
    pub seconds: f64,
    pub records: Vec<Record>,
}

fn end_to_end(
    args: &Args,
    setups: &[SetupTimes],
    rounds: &[Round],
    fp: u64,
    queries: &[Query],
) -> Metrics {
    let setup_s = stats::median(
        &setups
            .iter()
            .map(|t| t.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let round_s = stats::median(&rounds.iter().map(|r| r.seconds).collect::<Vec<_>>());
    let times: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.records.iter().map(|q| q.seconds))
        .collect();
    let p50 = stats::median(&times);
    let peak = rounds
        .iter()
        .flat_map(|r| &r.records)
        .map(|q| q.heap_peak)
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    let mut metrics: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("round_s".into(), round_s, "s"),
        ("query_s.p50".into(), p50, "s"),
    ];
    // Every workload reports every metric: with too few samples for a
    // tail above the median, the median stands in for it (and says so).
    let tail = stats::tail(&times);
    metrics.push(("query_s.tail".into(), tail.map_or(p50, |t| t.value), "s"));
    metrics.push(("peak_mem_mb".into(), peak, "MB"));
    println!(
        "{}: setup_s {setup_s:.4} (median of {})  round_s {round_s:.4} (median of {} rounds)  fingerprint {fp:016x}",
        args.workload,
        setups.len(),
        rounds.len()
    );
    match tail {
        Some(t) => println!(
            "  query_s p50 {p50:.4}  tail {:.4} (p{:.1}, n={})  peak_mem_mb {peak:.3}",
            t.value, t.percentile, t.n
        ),
        None => println!(
            "  query_s p50 {p50:.4}  tail omitted (n={} < 22; the median stands in)  peak_mem_mb {peak:.3}",
            times.len()
        ),
    }
    if queries.len() > 1 {
        let mut slowest: Vec<(f64, &str)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let t: Vec<f64> = rounds.iter().map(|r| r.records[i].seconds).collect();
                (stats::median(&t), q.label.as_str())
            })
            .collect();
        slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!("  slowest queries (median over rounds):");
        for (t, label) in slowest.iter().take(5) {
            println!("    {t:.4} s  {label}");
        }
    }
    metrics
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::Expect;

    #[test]
    fn a_planted_wrong_verdict_aborts_the_run() {
        let mut inputs = generate("bug-hunt", 5).unwrap();
        inputs.queries.retain(|q| q.k <= 3);
        let args = Args {
            workload: "bug-hunt".into(),
            seed: 5,
            seconds: 1,
            trace: false,
        };
        assert!(bench(&args, inputs.clone()).is_ok());
        let planted = inputs
            .queries
            .iter_mut()
            .find(|q| q.expect == Expect::Inequivalent)
            .unwrap();
        planted.expect = Expect::Equivalent;
        let label = planted.label.clone();
        let err = bench(&args, inputs).expect_err("a wrong known answer must abort");
        assert!(err.0.starts_with(&label), "{}", err.0);
    }
}
