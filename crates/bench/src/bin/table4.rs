//! **Ablations** of the design choices the paper calls out:
//!
//! 1. **RATO vs. arbitrary variable order** (Definition 4.2 vs. 5.1): the
//!    product-criterion collapse is what makes the guided flow possible.
//!    We measure Buchberger effort under both circuit-variable orders.
//! 2. **Case-2 completion cost**: buggy circuits leave primary-input bits
//!    in the remainder; the completion Gröbner basis is "a much simplified
//!    computation" (Section 5) — but how much does it cost as k grows?
//!    Each residual also goes through the dual-basis trace substitution
//!    that the query path uses, and the two canonical polynomials must be
//!    equal wherever the Gröbner route completes (else exit 1).
//! 3. **Constant-operand blocks**: the paper's Table 2 notes Blk A/B/Out
//!    are "simplified by constant-propagation". We compare extracting the
//!    constant-folded block vs. the full two-operand block.
//! 4. **Literal chain vs. linear divisors**: the flattened Montgomery
//!    multiplier divided by its literal gate polynomials, as in the paper,
//!    and by the model the query path builds, where each XOR tree that
//!    feeds a product gate is one linear divisor. Both normal forms must
//!    be the same polynomial (else exit 1).
//!
//! Run: `cargo run --release -p gfab-bench --bin table4 [--trace-json FILE] [k ...]`
//! The k list applies to ablations 3 and 4 (default 16 32 64 163);
//! ablations 1 and 2 pin their own sweeps. In the trace, each circuit is
//! one `extract` root span labelled with its name (ablation 4:
//! `montgomery-literal_16`, `montgomery-linear_16`); the Buchberger,
//! Case-2 (labelled by route), model and reduction spans nest under it.

use gfab_bench::{field, fmt_secs, TableArgs};
use gfab_circuits::montgomery_multiplier_hier;
use gfab_circuits::{mastrovito_multiplier, monpro, MonproOperand};
use gfab_core::fullgb::{full_gb_abstraction_traced, CircuitVarOrder, FullGbOutcome};
use gfab_core::model::{CircuitModel, GateDivisors};
use gfab_core::telemetry::{Counter, Phase, Span};
use gfab_core::{
    case2_by_groebner, case2_by_substitution, extract_word_polynomial_budgeted,
    extract_word_polynomial_with, Case2Outcome, ExtractOptions,
};
use gfab_field::budget::{Budget, BudgetSpec};
use gfab_field::GfContext;
use gfab_netlist::mutate::inject_random_bug;
use gfab_netlist::Netlist;
use gfab_poly::buchberger::GbLimits;
use gfab_poly::reduce::Reducer;
use gfab_poly::ExponentMode;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args = TableArgs::parse();
    ablation_variable_order(&args);
    let mut wrong = ablation_case2_cost(&args);
    ablation_constant_blocks(&args);
    wrong.extend(ablation_linear_divisors(&args));
    args.finish(&wrong)
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

/// One route's row of ablation 2.
#[derive(Default)]
struct Case2Row {
    completed: usize,
    gave_up: usize,
    time: Duration,
}

impl Case2Row {
    fn print(&self, k: usize, route: &str, trials: usize, case1: usize) {
        let runs = self.completed + self.gave_up;
        // Milliseconds: the substitution takes microseconds.
        let avg = if runs > 0 {
            format!("{:.3}", 1e3 * self.time.as_secs_f64() / runs as f64)
        } else {
            "-".into()
        };
        println!("{k:>4} {route:>13} {trials:>6} {case1:>14} {runs:>14} {avg:>12}");
        if self.gave_up > 0 {
            println!("     ({} completion(s) hit the work budget)", self.gave_up);
        }
    }
}

/// Ablation 2; returns the mutations whose two canonical polynomials
/// differ, or whose substitution gave up.
fn ablation_case2_cost(args: &TableArgs) -> Vec<String> {
    println!("Ablation 2: Case-2 cost on buggy Mastrovito multipliers, Groebner completion vs. trace substitution");
    println!(
        "{:>4} {:>13} {:>6} {:>14} {:>14} {:>12}",
        "k", "route", "bugs", "case1(benign)", "case2(buggy)", "avg_ms_case2"
    );
    // Each route runs under a deterministic work budget of its own:
    // whether a completion finishes or is capped is then identical on
    // every machine (work units are machine-independent), so the traced
    // work can gate CI, and the sweep's wall time stays bounded on slow
    // hardware. The largest Gröbner completions at k = 5 land well under
    // this cap; a capped trial is reported, not a panic.
    let options = ExtractOptions {
        complete_case2: false,
        budget: BudgetSpec::work(5_000_000),
        ..ExtractOptions::default()
    };
    let mut wrong = Vec::new();
    for k in [2usize, 3, 4, 5] {
        let ctx = field(k);
        let golden = mastrovito_multiplier(&ctx);
        let span = args.row_span(Phase::Extract, golden.name());
        let tele = span.telemetry();
        let options = options.clone().with_telemetry(tele.clone());
        let (mut case1, mut gb, mut sub) = (0, Case2Row::default(), Case2Row::default());
        let trials = 8u64;
        for seed in 0..trials {
            let (bad, what) = inject_random_bug(&golden, seed);
            let budget = options.budget.start();
            let result = extract_word_polynomial_budgeted(&bad, &ctx, &options, &budget)
                .expect("extraction");
            let Some(r) = result.residual() else {
                case1 += 1;
                continue;
            };
            let route =
                |label: &str, row: &mut Case2Row, run: &dyn Fn(&mut Span) -> Case2Outcome| {
                    let mut case2_span = tele.span_labeled(Phase::Case2Completion, label);
                    let t = Instant::now();
                    let outcome = run(&mut case2_span);
                    row.time += t.elapsed();
                    let _ = case2_span.finish();
                    match outcome {
                        Case2Outcome::Canonical(f) => {
                            row.completed += 1;
                            Some(f)
                        }
                        Case2Outcome::GaveUp(_) => {
                            row.gave_up += 1;
                            None
                        }
                    }
                };
            let limits = GbLimits::default();
            let via_gb = route("groebner", &mut gb, &|span| {
                case2_by_groebner(&result.model, r, &limits, &budget, &span.telemetry())
                    .expect("completion")
            });
            let via_sub = route("substitution", &mut sub, &|span| {
                let (outcome, products) =
                    case2_by_substitution(&result.model, r, &options.budget.start())
                        .expect("substitution");
                span.counter(Counter::TermProducts, products);
                outcome
            });
            match (via_gb, via_sub) {
                (Some(g), Some(s)) if !g.matches(&s) => wrong.push(format!(
                    "ablation 2, k = {k}, {what}: Groebner {} != substitution {}",
                    g.display(),
                    s.display()
                )),
                (_, None) => {
                    wrong.push(format!("ablation 2, k = {k}, {what}: substitution gave up"))
                }
                _ => {}
            }
        }
        let _ = span.finish();
        let trials = trials as usize;
        gb.print(k, "groebner", trials, case1);
        sub.print(k, "substitution", trials, case1);
    }
    println!();
    wrong
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

/// Ablation 4; returns the k whose two normal forms differ.
fn ablation_linear_divisors(args: &TableArgs) -> Vec<String> {
    println!();
    println!("Ablation 4: flattened Montgomery division chain, literal gate polynomials vs. linear divisors");
    println!(
        "{:>4} {:>8} {:>9} {:>10} {:>10} {:>10}",
        "k", "chain", "absorbed", "steps", "peak", "t_nf"
    );
    let mut wrong = Vec::new();
    for k in args.sweep(&[16, 32, 64, 163], &[]) {
        let ctx = field(k);
        let nl = montgomery_multiplier_hier(&ctx).flatten();
        let mut remainders = Vec::new();
        for (chain, divisors) in [
            ("literal", GateDivisors::Literal),
            ("linear", GateDivisors::Linear),
        ] {
            let span = args.row_span(Phase::Extract, &format!("montgomery-{chain}_{k}"));
            let tele = span.telemetry();
            let mut model_span = tele.span(Phase::ModelBuild);
            let (mode, rato) = (ExponentMode::Quotient, CircuitVarOrder::ReverseTopological);
            let unlimited = Budget::unlimited();
            let model = CircuitModel::build_in(&nl, &ctx, mode, rato, false, divisors, &unlimited)
                .expect("model");
            let absorbed = model.absorbed_gates();
            model_span.counter(Counter::Gates, nl.num_gates() as u64);
            if absorbed > 0 {
                model_span.counter(Counter::AbsorbedGates, absorbed as u64);
            }
            let _ = model_span.finish();
            let mut reduce_span = tele.span(Phase::GuidedReduction);
            let t = Instant::now();
            let reducer = Reducer::new(&model.ring, model.divisors());
            let (r, stats) = reducer
                .normal_form_with_stats(&model.output_word_poly)
                .expect("normal form");
            let t_nf = t.elapsed();
            reduce_span.counter(Counter::ReductionSteps, stats.steps);
            reduce_span.counter(Counter::PeakTerms, stats.peak_terms as u64);
            reduce_span.counter(Counter::Cancellations, stats.cancellations);
            let _ = reduce_span.finish();
            let _ = span.finish();
            println!(
                "{:>4} {:>8} {:>9} {:>10} {:>10} {:>10}",
                k,
                chain,
                absorbed,
                stats.steps,
                stats.peak_terms,
                fmt_secs(t_nf)
            );
            remainders.push(r);
        }
        if remainders[0] != remainders[1] {
            wrong.push(format!(
                "ablation 4, k = {k}: the linear divisors changed the normal form"
            ));
        }
    }
    wrong
}
