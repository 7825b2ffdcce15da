//! **Table 2 of the paper** — Abstraction of Montgomery blocks.
//!
//! "Table II depicts the results for Montgomery multipliers. BLK A and B
//! denote the input blocks, BLK Mid denotes the middle block and BLK Out
//! is the output block. … First, a polynomial is extracted for each block,
//! and then the approach is re-applied at word-level to derive the
//! input-output relation (solved trivially in < 1 second). Our approach
//! can extract the word-level polynomial for up to 571-bit circuits!"
//!
//! Paper totals (seconds): k=163: 636, k=233: 1909, k=283: 8186,
//! k=409: 34002, k=571: 87458.
//!
//! Run: `cargo run --release -p gfab-bench --bin table2
//!       [--full] [--threads N] [--trace-json FILE] [k ...]`
//! Default sweep: 8 16 32 64 163; `--full` adds 233 283 409 571.
//! With `--threads N` (N ≠ 1) each row is additionally run serially (and
//! untraced) and a speedup column is printed; the two runs must produce
//! byte-identical polynomials. Exits 1 if any row composes anything but
//! `G = A*B`.

use gfab_bench::{field, fmt_gates, fmt_mb, fmt_secs, PeakAlloc, TableArgs};
use gfab_circuits::montgomery_multiplier_hier;
use gfab_core::hier::extract_hierarchical;
use gfab_core::telemetry::Phase;
use gfab_core::ExtractOptions;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn main() -> ExitCode {
    let args = TableArgs::parse();
    let ks = args.sweep(&[8, 16, 32, 64, 163], &[233, 283, 409, 571]);
    let options = ExtractOptions::default().with_threads(args.threads);
    let compare_serial = options.effective_threads() > 1;

    println!("Table 2: Abstraction of Montgomery blocks (Fig. 1: AR, BR, ABR, G)");
    println!(
        "(paper totals: k=163: 636 s ... k=571: 87458 s; threads = {})\n",
        options.effective_threads()
    );
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8}{}",
        "k",
        "gA",
        "gB",
        "gMid",
        "gOut",
        "tA_s",
        "tB_s",
        "tMid_s",
        "tOut_s",
        "model_s",
        "reduce_s",
        "compose",
        "total_s",
        "mem_MB",
        "result",
        if compare_serial { "  serial_s  speedup" } else { "" }
    );
    let mut wrong = Vec::new();
    for k in ks {
        let ctx = field(k);
        let design = montgomery_multiplier_hier(&ctx);
        let gates: Vec<usize> = design
            .blocks
            .iter()
            .map(|b| b.netlist.num_gates())
            .collect();
        ALLOC.reset_peak();
        let span = args.row_span(Phase::Extract, &design.name);
        let traced = options.clone().with_telemetry(span.telemetry());
        let t = Instant::now();
        let result = extract_hierarchical(&design, &ctx, &traced).expect("all blocks are Case 1");
        let total = t.elapsed();
        let _ = span.finish();
        let peak_mb = fmt_mb(ALLOC.peak_bytes());
        let times: Vec<String> = result
            .blocks
            .iter()
            .map(|(_, _, s)| fmt_secs(s.duration))
            .collect();
        // Per-phase wall clock, summed over blocks (with > 1 thread the
        // blocks overlap, so these exceed the elapsed total by design).
        let model_s: std::time::Duration = result.blocks.iter().map(|(_, _, s)| s.model_time).sum();
        let reduce_s: std::time::Duration =
            result.blocks.iter().map(|(_, _, s)| s.reduce_time).sum();
        let verdict = if format!("{}", result.function.display()) == "A*B" {
            "G=A*B"
        } else {
            wrong.push(format!(
                "{}: G = {}",
                design.name,
                result.function.display()
            ));
            "WRONG"
        };
        let tail = if compare_serial {
            let t = Instant::now();
            let serial = extract_hierarchical(&design, &ctx, &options.clone().with_threads(1))
                .expect("all blocks are Case 1");
            let serial_total = t.elapsed();
            assert_eq!(
                serial.function.poly(),
                result.function.poly(),
                "k={k}: serial and threaded polynomials differ"
            );
            format!(
                "  {:>8} {:>8.2}x",
                fmt_secs(serial_total),
                serial_total.as_secs_f64() / total.as_secs_f64().max(1e-9)
            )
        } else {
            String::new()
        };
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8}{}",
            k,
            fmt_gates(gates[0]),
            fmt_gates(gates[1]),
            fmt_gates(gates[2]),
            fmt_gates(gates[3]),
            times[0],
            times[1],
            times[2],
            times[3],
            fmt_secs(model_s),
            fmt_secs(reduce_s),
            fmt_secs(result.compose_time),
            fmt_secs(total),
            peak_mb,
            verdict,
            tail
        );
    }
    args.finish(&wrong)
}
