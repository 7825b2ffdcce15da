//! **Method-comparison table** (Section 6 text + Tables I/II of \[5\]):
//! who can prove Mastrovito ≡ Montgomery at which datapath width?
//!
//! The paper reports: ABC/CSAT miters die beyond 16-bit; SINGULAR full GB
//! dies beyond 32-bit; the Lv-Kalla-Enescu ideal-membership tool \[5\] dies
//! beyond 163-bit; the paper's guided abstraction reaches 409-bit
//! (flattened) / 571-bit (hierarchical).
//!
//! We run all four engines with explicit budgets so give-ups are graceful:
//!
//! * SAT: CDCL on the miter, conflict budget (default 300k conflicts);
//! * full GB: Buchberger with pair/size limits;
//! * ideal membership: reduce `Z + A·B` modulo the circuit (needs spec);
//! * guided abstraction: extract both canonical forms and coefficient-match.
//!
//! Run: `cargo run --release -p gfab-bench --bin table3
//!       [--full] [--timeout SECS] [--trace-json FILE] [k ...]`
//! Default sweep: 2 3 4 6 8 10 12 16; `--full` adds 24 32 48 64.
//! In the trace each row is one `check` span; the SAT, full-GB and guided
//! engines record their spans under it (ideal membership is untraced).
//! Exits 1 if any engine refutes the (equivalent) pair or errors;
//! `give-up` is a legal cell.

use gfab_bench::{field, fmt_secs, TableArgs};
use gfab_circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab_core::equiv::{check_equivalence, Verdict};
use gfab_core::fullgb::{full_gb_abstraction_traced, CircuitVarOrder, FullGbOutcome};
use gfab_core::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
use gfab_core::telemetry::Phase;
use gfab_core::ExtractOptions;
use gfab_field::budget::{Budget, BudgetSpec};
use gfab_poly::buchberger::GbLimits;
use gfab_sat::equiv::{check_equivalence_sat_traced, SatVerdict};
use std::process::ExitCode;
use std::time::Instant;

const SAT_CONFLICT_BUDGET: u64 = 300_000;
/// Per-cell wall-clock "timeout" (the paper used 24 h; we use 2 min;
/// override with `--timeout SECS`).
const WALL_BUDGET: std::time::Duration = std::time::Duration::from_secs(120);

fn main() -> ExitCode {
    let args = TableArgs::parse();
    let wall = args.wall_budget(WALL_BUDGET);
    let ks = args.sweep(&[2, 3, 4, 6, 8, 10, 12, 16], &[24, 32, 48, 64]);

    println!("Method comparison: prove Mastrovito == Montgomery (flattened miter)");
    println!("(paper: SAT dies >16 bit, full GB >32 bit, [5] >163 bit, ours 409+)\n");
    println!(
        "{:>4} {:>12} {:>14} {:>16} {:>14}",
        "k", "sat_miter", "full_groebner", "ideal_member[5]", "guided(ours)"
    );

    let mut wrong = Vec::new();
    for k in ks {
        let ctx = field(k);
        let spec = mastrovito_multiplier(&ctx);
        let impl_ = montgomery_multiplier_hier(&ctx).flatten();
        let span = args.row_span(Phase::Check, &format!("mastrovito-montgomery_{k}"));
        let tele = span.telemetry();

        // (a) SAT miter.
        let t = Instant::now();
        let sat = check_equivalence_sat_traced(
            &spec,
            &impl_,
            SAT_CONFLICT_BUDGET,
            &Budget::with_deadline(wall),
            &tele,
        );
        let sat_time = t.elapsed();
        let sat_verdict = match sat.verdict {
            SatVerdict::Equivalent => "eq".to_string(),
            SatVerdict::Counterexample(_) => "CEX".to_string(),
            SatVerdict::Unknown(_) => "give-up".to_string(),
        };
        let sat_cell = cell(&sat_verdict, sat_time);

        // (b) Full Gröbner basis abstraction on the (smaller) spec circuit.
        let gb_limits = GbLimits {
            max_pair_reductions: 20_000,
            max_basis: 5_000,
            max_poly_terms: 2_000_000,
            max_wall_ms: wall.as_millis() as u64,
        };
        let t = Instant::now();
        let gb_verdict = match full_gb_abstraction_traced(
            &spec,
            &ctx,
            CircuitVarOrder::ReverseTopological,
            &gb_limits,
            &Budget::unlimited(),
            &tele,
        ) {
            Ok(FullGbOutcome::Canonical { .. }) => "eq".to_string(),
            Ok(FullGbOutcome::GaveUp { .. }) => "give-up".to_string(),
            Err(e) => format!("err:{e}"),
        };
        let gb_time = t.elapsed();
        let gb_cell = cell(&gb_verdict, gb_time);

        // (c) Ideal membership \[5\] on the impl circuit (spec poly given).
        let t = Instant::now();
        let sr = spec_ring(&impl_, &ctx);
        let f = multiplier_spec(&sr, &ctx);
        let im_verdict = match verify_against_spec(&impl_, &ctx, &sr, &f) {
            Ok(out) if out.verified => "eq".to_string(),
            Ok(_) => "REFUTED".to_string(),
            Err(e) => format!("err:{e}"),
        };
        let im_time = t.elapsed();
        let im_cell = cell(&im_verdict, im_time);

        // (d) Guided abstraction (ours): full equivalence check, under the
        // same per-cell wall budget as the baselines (budget exhaustion
        // shows up as a graceful give-up cell, not an abort).
        let options = ExtractOptions::default()
            .with_budget(BudgetSpec::wall(wall))
            .with_telemetry(tele);
        let t = Instant::now();
        let ours_verdict = match check_equivalence(&spec, &impl_, &ctx, &options) {
            Ok(report) if report.verdict.is_equivalent() => "eq".to_string(),
            Ok(report) => match report.verdict {
                Verdict::Unknown { .. } => "give-up".to_string(),
                _ => "INEQ".to_string(),
            },
            Err(e) => format!("err:{e}"),
        };
        let ours_time = t.elapsed();
        let ours_cell = cell(&ours_verdict, ours_time);
        let _ = span.finish();

        let verdicts = [&sat_verdict, &gb_verdict, &im_verdict, &ours_verdict];
        if verdicts
            .iter()
            .any(|v| !matches!(v.as_str(), "eq" | "give-up"))
        {
            wrong.push(format!(
                "k={k}: sat {sat_verdict}, full GB {gb_verdict}, ideal {im_verdict}, \
                 guided {ours_verdict}"
            ));
        }
        println!("{k:>4} {sat_cell:>12} {gb_cell:>14} {im_cell:>16} {ours_cell:>14}");
    }
    args.finish(&wrong)
}

/// A human table cell: `eq <secs>` for decided runs, the bare verdict for
/// give-ups and errors.
fn cell(verdict: &str, elapsed: std::time::Duration) -> String {
    match verdict {
        "eq" | "CEX" => format!("{verdict} {}", fmt_secs(elapsed)),
        other => other.to_string(),
    }
}
