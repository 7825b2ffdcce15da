//! The two Case-2 routes give the same canonical polynomial, term by
//! term: dual-basis trace substitution (the query path) and the reduced
//! Gröbner basis of `{r, f_wi} ∪ J_0'` (Section 5 of the paper, kept as
//! the reference). The probe covers every registry architecture at
//! k = 2 and 3, seeds 0–5, as built and with each structural fault, plus
//! the Mastrovito multiplier built over the other modulus; then input
//! words narrower than k, and a Case 2 cut short by its budget or by its
//! own cap on term products.

use gfab::circuits::registry::{build_pair, ALL_ARCHES};
use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab::core::equiv::{check_equivalence, Verdict};
use gfab::core::{
    case2_by_groebner, case2_by_substitution, extract_word_polynomial_budgeted,
    extract_word_polynomial_with, Case2Outcome, ExtractOptions, Extraction, ExtractionResult,
    WordFunction, CASE2_MAX_PRODUCTS,
};
use gfab::field::budget::{Budget, BudgetSpec};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{Gf, GfContext, Rng};
use gfab::fuzz::fault::{alternate_modulus, inject_structural};
use gfab::fuzz::ALL_FAULTS;
use gfab::netlist::random::{random_circuit, RandomCircuitSpec};
use gfab::netlist::sim::simulate_word;
use gfab::netlist::Netlist;
use gfab::poly::buchberger::GbLimits;
use gfab::telemetry::{Collector, Counter, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// The guided reduction alone: the result when it leaves a residual.
fn residual_case(nl: &Netlist, ctx: &Arc<GfContext>) -> Option<ExtractionResult> {
    let options = ExtractOptions {
        complete_case2: false,
        threads: 1,
        ..ExtractOptions::default()
    };
    let result = extract_word_polynomial_with(nl, ctx, &options).unwrap();
    result.residual().is_some().then_some(result)
}

/// Both routes on one residual; panics unless both give a canonical
/// polynomial and the two are equal term by term.
fn both_routes(result: &ExtractionResult, label: &str) -> WordFunction {
    let r = result.residual().expect("a residual");
    let unlimited = Budget::unlimited();
    let (sub, _) = case2_by_substitution(&result.model, r, &unlimited).unwrap();
    let gb = case2_by_groebner(
        &result.model,
        r,
        &GbLimits::default(),
        &unlimited,
        &Telemetry::disabled(),
    )
    .unwrap();
    match (sub, gb) {
        (Case2Outcome::Canonical(sub), Case2Outcome::Canonical(gb)) => {
            assert!(
                sub.matches(&gb),
                "{label}: substitution {} != Groebner {}",
                sub.display(),
                gb.display()
            );
            sub
        }
        (sub, gb) => panic!("{label}: substitution {sub:?}, Groebner {gb:?}"),
    }
}

/// Every registry impl at degree k, seeds 0–5, as built and with each
/// structural fault, plus the Mastrovito multiplier over another modulus
/// where one exists.
fn registry_probe(ctx: &Arc<GfContext>) -> Vec<(String, Netlist)> {
    let k = ctx.k();
    let mut out = Vec::new();
    for arch in ALL_ARCHES.into_iter().filter(|a| a.supports_k(k)) {
        for seed in 0..6 {
            let (_, impl_) = build_pair(arch, ctx, seed);
            for &kind in ALL_FAULTS.iter().filter(|f| f.is_structural()) {
                let mut rng = Rng::seed_from_u64(seed);
                if let Some((bad, fault)) = inject_structural(&impl_, kind, &mut rng) {
                    out.push((format!("k={k} {arch} seed {seed} {fault}"), bad));
                }
            }
            out.push((format!("k={k} {arch} seed {seed}"), impl_));
        }
    }
    // x^2 + x + 1 is the only irreducible of degree 2.
    if let Some(alt) = alternate_modulus(k) {
        let alt = GfContext::new(alt).unwrap();
        out.push((format!("k={k} wrong modulus"), mastrovito_multiplier(&alt)));
    }
    out
}

#[test]
fn substitution_equals_groebner_on_the_registry_probe() {
    for k in [2, 3] {
        let ctx = field(k);
        let mut residuals = 0;
        for (label, nl) in registry_probe(&ctx) {
            if let Some(result) = residual_case(&nl, &ctx) {
                both_routes(&result, &label);
                residuals += 1;
            }
        }
        // 136 at k = 2 and 147 at k = 3 when this was written.
        assert!(residuals > 100, "k = {k}: only {residuals} residuals");
    }
}

/// Every input pattern of `nl`'s (possibly narrow) words.
fn all_inputs(nl: &Netlist, ctx: &GfContext) -> Vec<Vec<Gf>> {
    let widths: Vec<usize> = nl.input_words().iter().map(|w| w.width()).collect();
    let total: usize = widths.iter().sum();
    (0u64..1 << total)
        .map(|mut p| {
            widths
                .iter()
                .map(|&w| {
                    let v = p & ((1 << w) - 1);
                    p >>= w;
                    ctx.from_u64(v)
                })
                .collect()
        })
        .collect()
}

#[test]
fn narrow_input_words_reduce_modulo_their_subspace_polynomial() {
    // A w-bit word at degree k takes only the 2^w values of
    // span{α^0, …, α^(w−1)}, so its canonical polynomial is reduced
    // modulo that subspace's linearized polynomial, of degree 2^w.
    let mut narrow = 0;
    for (k, width) in [(3, 2), (4, 2)] {
        let ctx = field(k);
        for seed in 0..8 {
            let nl = random_circuit(&RandomCircuitSpec {
                num_input_words: 2,
                width,
                num_gates: 20,
                seed,
            });
            let Some(result) = residual_case(&nl, &ctx) else {
                continue;
            };
            let label = format!("k={k} width {width} seed {seed}");
            let f = both_routes(&result, &label);
            for (v, e) in f.poly().terms().iter().flat_map(|(m, _)| m.factors()) {
                assert!(*e < 1 << width, "{label}: word {v:?} has exponent {e}");
            }
            for inputs in all_inputs(&nl, &ctx) {
                assert_eq!(
                    f.eval(&inputs),
                    simulate_word(&nl, &ctx, &inputs),
                    "{label}"
                );
            }
            narrow += 1;
        }
    }
    // One word of each width next to a full-width one: a 2-bit A times a
    // 3-bit B at k = 3, with one partial product dropped.
    let ctx = field(3);
    let mut nl = Netlist::new("narrow-a");
    let a = nl.add_input_word("A", 2);
    let b = nl.add_input_word("B", 3);
    let mut z = Vec::new();
    for (i, &bi) in b.iter().enumerate() {
        let t = nl.and(a[i % 2], bi);
        z.push(if i == 1 { t } else { nl.xor(t, a[(i + 1) % 2]) });
    }
    nl.set_output_word("Z", z);
    let result = residual_case(&nl, &ctx).expect("random logic leaves bits");
    let f = both_routes(&result, "narrow A, full B");
    for inputs in all_inputs(&nl, &ctx) {
        assert_eq!(f.eval(&inputs), simulate_word(&nl, &ctx, &inputs));
    }
    assert!(narrow >= 12, "only {narrow} narrow-word residuals");
}

#[test]
fn exhausted_budget_leaves_the_residual_with_its_reason() {
    // The middle block of the k = 8 hierarchical Montgomery multiplier
    // with an XOR turned into an OR leaves a 451-term residual, whose
    // substitution takes thousands of term products. A work cap one unit
    // above what the guided reduction charged stops Case 2 at its first
    // poll, and the extraction hands back the residual.
    let ctx = field(8);
    let design = montgomery_multiplier_hier(&ctx);
    let mid = design.blocks.iter().find(|b| b.name == "blk_mid").unwrap();
    let (bad, what) = gfab::netlist::mutate::inject_random_bug(&mid.netlist, 0);
    let options = ExtractOptions {
        complete_case2: false,
        threads: 1,
        ..ExtractOptions::default()
    };
    let reduction = Budget::unlimited();
    let result = extract_word_polynomial_budgeted(&bad, &ctx, &options, &reduction).unwrap();
    let residual = result.residual().expect("the bug leaves bits").clone();

    let capped = Budget::with_work_cap(reduction.work_done() + 1);
    let options = ExtractOptions {
        threads: 1,
        ..ExtractOptions::default()
    };
    let result = extract_word_polynomial_budgeted(&bad, &ctx, &options, &capped).unwrap();
    assert!(result.stats.case2_completion, "{what}");
    assert_eq!(result.residual(), Some(&residual), "{what}");
    let Extraction::Residual { note, .. } = &result.outcome else {
        unreachable!("checked above");
    };
    assert_eq!(note, "budget exhausted: work-unit cap", "{what}");
    assert_eq!(
        result.stats.budget_exhausted.as_deref(),
        Some("case-2 completion: work-unit cap")
    );
    // Unlimited, the same residual completes.
    let full = extract_word_polynomial_with(&bad, &ctx, &options).unwrap();
    assert!(full.canonical().is_some(), "{what}");
}

/// The Mastrovito multiplier with output bit 0 flipped when `A = value`.
fn single_value_trigger(ctx: &GfContext, value: u64) -> Netlist {
    let mut nl = mastrovito_multiplier(ctx);
    let a = nl.input_words()[0].bits.clone();
    let mut hit = None;
    for (i, &ai) in a.iter().enumerate() {
        let lit = if value >> i & 1 == 1 { ai } else { nl.not(ai) };
        hit = Some(hit.map_or(lit, |h| nl.and(h, lit)));
    }
    let mut z = nl.output_word().bits.clone();
    z[0] = nl.xor(z[0], hit.expect("a nonempty word"));
    nl.set_output_word("Z", z);
    nl
}

#[test]
fn single_value_trigger_stops_at_the_product_cap() {
    // Every canonical polynomial of a fault that fires on one value of
    // A has q terms. At k = 16 the 514-term residual of this one would
    // take hundreds of millions of term products (110 s in a release
    // build without the cap); the substitution stops at its cap instead,
    // well inside the caller's deadline, which therefore still holds for
    // the simulation refutation that follows. A random sweep rarely hits
    // the one value, so the sound verdict here is Unknown, and its reason
    // shows that the budget was not spent.
    let ctx = field(16);
    let spec = mastrovito_multiplier(&ctx);
    let bad = single_value_trigger(&ctx, 0x00ff);
    let collector = Collector::new();
    let options = ExtractOptions {
        threads: 1,
        budget: BudgetSpec::wall(Duration::from_secs(600)),
        telemetry: Telemetry::attached(&collector),
        ..ExtractOptions::default()
    };
    let start = Instant::now();
    let report = check_equivalence(&spec, &bad, &ctx, &options).unwrap();
    let elapsed = start.elapsed();
    let Verdict::Unknown { reason } = &report.verdict else {
        panic!("unexpected verdict {:?}", report.verdict);
    };
    assert_eq!(
        reason,
        "impl abstraction did not reach a canonical form \
         (and 256 random simulations found no difference)"
    );
    assert!(report.impl_stats.case2_completion);
    assert_eq!(report.impl_stats.budget_exhausted, None);
    assert_eq!(
        collector.snapshot().counter_total(Counter::TermProducts),
        CASE2_MAX_PRODUCTS
    );
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");

    // The substitution alone names the cap.
    let result = residual_case(&bad, &ctx).expect("the fault leaves bits");
    let r = result.residual().expect("a residual");
    let (outcome, products) =
        case2_by_substitution(&result.model, r, &Budget::unlimited()).unwrap();
    let Case2Outcome::GaveUp(note) = outcome else {
        panic!("the cap must bind");
    };
    assert_eq!(
        note,
        format!("case-2 substitution stopped at its cap of {CASE2_MAX_PRODUCTS} term products")
    );
    assert_eq!(products, CASE2_MAX_PRODUCTS);
}
