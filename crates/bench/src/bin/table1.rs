//! **Table 1 of the paper** — Abstraction of Mastrovito multipliers.
//!
//! "Table I depicts the time required to derive the polynomial abstraction
//! from Mastrovito circuits. The tool takes the circuit as input, performs
//! a reverse topological traversal to determine RATO, applies the approach
//! presented in Section 5 and derives the polynomial representation
//! Z = A·B."
//!
//! Paper rows (Intel Xeon, 96 GB, 24 h timeout):
//!
//! | k    | 163  | 233  | 283   | 409   | 571 |
//! | gates| 153K | 167K | 399K  | 508K  | 1.6M|
//! | time | 4351 | 5777 | 40114 | 72708 | TO  |
//! | mem  | (MB columns) |
//!
//! Run: `cargo run --release -p gfab-bench --bin table1
//!       [--full] [--trace-json FILE] [k ...]`
//! Default sweep: 8 16 32 64 163; `--full` adds 233 283 409 571.
//! Exits 1 if any row extracts anything but `Z = A*B`.

use gfab_bench::{field, fmt_gates, fmt_mb, fmt_secs, PeakAlloc, TableArgs};
use gfab_circuits::mastrovito_multiplier;
use gfab_core::telemetry::Phase;
use gfab_core::{extract_word_polynomial_with, ExtractOptions};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn main() -> ExitCode {
    let args = TableArgs::parse();
    let ks = args.sweep(&[8, 16, 32, 64, 163], &[233, 283, 409, 571]);

    println!("Table 1: Abstraction of Mastrovito multipliers (Z = A*B)");
    println!("(paper: k=163 in 4351 s / 153K gates ... k=571 timed out at 24 h)\n");
    println!(
        "{:>5} {:>10} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "k", "gates", "time_s", "red.steps", "peak_terms", "mem_MB", "result"
    );
    let mut wrong = Vec::new();
    for k in ks {
        let ctx = field(k);
        let nl = mastrovito_multiplier(&ctx);
        ALLOC.reset_peak();
        let span = args.row_span(Phase::Extract, nl.name());
        let options = ExtractOptions::default().with_telemetry(span.telemetry());
        let t = Instant::now();
        let result =
            extract_word_polynomial_with(&nl, &ctx, &options).expect("extraction succeeds");
        let elapsed = t.elapsed();
        let _ = span.finish();
        let verdict = match result.canonical() {
            Some(f) if format!("{}", f.display()) == "A*B" => "Z=A*B",
            Some(_) => "WRONG",
            None => "residual",
        };
        if verdict != "Z=A*B" {
            wrong.push(format!("{}: {verdict}", nl.name()));
        }
        println!(
            "{:>5} {:>10} {:>10} {:>12} {:>12} {:>10} {:>8}",
            k,
            fmt_gates(nl.num_gates()),
            fmt_secs(elapsed),
            result.stats.reduction_steps,
            result.stats.peak_terms,
            fmt_mb(ALLOC.peak_bytes()),
            verdict
        );
    }
    args.finish(&wrong)
}
