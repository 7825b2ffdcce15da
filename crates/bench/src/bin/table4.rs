//! **Ablations** of the design choices the paper calls out:
//!
//! 1. **RATO vs. arbitrary variable order** (Definition 4.2 vs. 5.1): the
//!    product-criterion collapse is what makes the guided flow possible.
//!    We measure Buchberger effort under both circuit-variable orders.
//! 2. **Case-2 completion cost**: buggy circuits leave primary-input bits
//!    in the remainder; the completion Gröbner basis is "a much simplified
//!    computation" (Section 5) — but how much does it cost as k grows?
//! 3. **Constant-operand blocks**: the paper's Table 2 notes Blk A/B/Out
//!    are "simplified by constant-propagation". We compare extracting the
//!    constant-folded block vs. the full two-operand block.
//!
//! Run: `cargo run --release -p gfab-bench --bin table4 [--trace-json FILE] [k ...]`
//! The k list applies to ablation 3 (default 16 32 64 163); ablations 1
//! and 2 pin their own sweeps. In the trace, each circuit is one
//! `extract` root span labelled with its name; the Buchberger, Case-2
//! and extraction spans nest under it.

use gfab_bench::{field, fmt_secs, TableArgs};
use gfab_circuits::{mastrovito_multiplier, monpro, MonproOperand};
use gfab_core::fullgb::{full_gb_abstraction_traced, CircuitVarOrder, FullGbOutcome};
use gfab_core::telemetry::Phase;
use gfab_core::{extract_word_polynomial_with, ExtractOptions};
use gfab_field::budget::{Budget, BudgetSpec};
use gfab_field::GfContext;
use gfab_netlist::mutate::inject_random_bug;
use gfab_netlist::Netlist;
use gfab_poly::buchberger::GbLimits;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args = TableArgs::parse();
    ablation_variable_order(&args);
    ablation_case2_cost(&args);
    ablation_constant_blocks(&args);
    args.finish(&[])
}

fn ablation_variable_order(args: &TableArgs) {
    println!("Ablation 1: full-GB effort, RATO vs. declaration variable order");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "k", "pairs_rato", "pairs_decl", "pruned_rato", "pruned_decl", "t_rato", "t_decl"
    );
    let limits = GbLimits {
        max_pair_reductions: 200_000,
        ..GbLimits::default()
    };
    for k in [2usize, 3] {
        let ctx = field(k);
        let nl = mastrovito_multiplier(&ctx);
        let span = args.row_span(Phase::Extract, nl.name());
        let mut cells = Vec::new();
        for order in [
            CircuitVarOrder::ReverseTopological,
            CircuitVarOrder::Declaration,
        ] {
            let t = Instant::now();
            let tele = span.telemetry();
            match full_gb_abstraction_traced(&nl, &ctx, order, &limits, &Budget::unlimited(), &tele)
                .unwrap()
            {
                FullGbOutcome::Canonical { stats, .. } => {
                    cells.push((
                        stats.pairs_reduced.to_string(),
                        (stats.pairs_skipped_product + stats.pairs_skipped_chain).to_string(),
                        fmt_secs(t.elapsed()),
                    ));
                }
                FullGbOutcome::GaveUp { stats, .. } => {
                    cells.push((
                        format!("{}+", stats.pairs_reduced),
                        (stats.pairs_skipped_product + stats.pairs_skipped_chain).to_string(),
                        "give-up".to_string(),
                    ));
                }
            }
        }
        let _ = span.finish();
        println!(
            "{:>4} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
            k, cells[0].0, cells[1].0, cells[0].1, cells[1].1, cells[0].2, cells[1].2
        );
    }
    println!();
}

fn ablation_case2_cost(args: &TableArgs) {
    println!("Ablation 2: Case-2 completion cost on buggy Mastrovito multipliers");
    println!(
        "{:>4} {:>6} {:>14} {:>14} {:>12}",
        "k", "bugs", "case1(benign)", "case2(buggy)", "avg_t_case2"
    );
    // A deterministic *work* budget instead of the default 15 s wall
    // limit: whether a completion finishes or is capped is then identical
    // on every machine (work units are machine-independent), so the
    // traced work can gate CI, and the sweep's wall time stays bounded
    // on slow hardware. The largest completions at k = 5 land well under
    // this cap; a capped trial is reported, not a panic.
    let options = ExtractOptions {
        gb_limits: GbLimits {
            max_wall_ms: 0,
            ..GbLimits::default()
        },
        budget: BudgetSpec::work(5_000_000),
        ..ExtractOptions::default()
    };
    for k in [2usize, 3, 4, 5] {
        let ctx = field(k);
        let golden = mastrovito_multiplier(&ctx);
        let span = args.row_span(Phase::Extract, golden.name());
        let options = options.clone().with_telemetry(span.telemetry());
        let (mut case1, mut case2, mut capped) = (0usize, 0usize, 0usize);
        let mut case2_time = std::time::Duration::ZERO;
        let trials = 8u64;
        for seed in 0..trials {
            let (bad, _) = inject_random_bug(&golden, seed);
            let t = Instant::now();
            let result = extract_word_polynomial_with(&bad, &ctx, &options).expect("extraction");
            if result.stats.case2_completion {
                case2 += 1;
                case2_time += t.elapsed();
            } else {
                case1 += 1;
            }
            if result.canonical().is_none() {
                capped += 1;
            }
        }
        let _ = span.finish();
        let avg = if case2 > 0 {
            fmt_secs(case2_time / case2 as u32)
        } else {
            "-".into()
        };
        println!("{k:>4} {trials:>6} {case1:>14} {case2:>14} {avg:>12}");
        if capped > 0 {
            println!("     ({capped} completion(s) hit the work budget)");
        }
    }
    println!();
}

fn ablation_constant_blocks(args: &TableArgs) {
    println!("Ablation 3: constant-operand MonPro blocks vs. full two-operand blocks");
    println!(
        "{:>4} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "k", "gates_const", "gates_full", "t_const", "t_full", "ratio"
    );
    // Extracts one block under its own root span; returns the wall time.
    let extract = |nl: &Netlist, label: &str, ctx: &Arc<GfContext>| {
        let span = args.row_span(Phase::Extract, label);
        let options = ExtractOptions::default().with_telemetry(span.telemetry());
        let t = Instant::now();
        extract_word_polynomial_with(nl, ctx, &options).expect("block extracts");
        let elapsed = t.elapsed();
        let _ = span.finish();
        elapsed
    };
    for k in args.sweep(&[16, 32, 64, 163], &[]) {
        let ctx = field(k);
        let constant = monpro(&ctx, "c", MonproOperand::Const(ctx.montgomery_r2()));
        let full = monpro(&ctx, "f", MonproOperand::Word);
        let t_const = extract(&constant, &format!("monpro-const_{k}"), &ctx);
        let t_full = extract(&full, &format!("monpro_{k}"), &ctx);
        println!(
            "{:>4} {:>12} {:>12} {:>10} {:>10} {:>8.2}",
            k,
            constant.num_gates(),
            full.num_gates(),
            fmt_secs(t_const),
            fmt_secs(t_full),
            t_full.as_secs_f64() / t_const.as_secs_f64().max(1e-9)
        );
    }
}
