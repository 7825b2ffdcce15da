//! Cross-method integration tests: the same verification questions
//! answered by every engine in the workspace must agree.
//!
//! * guided RATO extraction (the paper's contribution)
//! * unguided full Gröbner basis (Theorem 4.2 baseline)
//! * Lagrange interpolation (exhaustive oracle)
//! * ideal membership against a given spec ([5] baseline)
//! * SAT miter (ABC/CSAT stand-in)
//! * plain simulation

use gfab::circuits::{
    constant_multiplier, gf_adder, mastrovito_multiplier, monpro, montgomery_multiplier_hier,
    squarer, MonproOperand,
};
use gfab::core::equiv::{check_equivalence, Verdict};
use gfab::core::fullgb::{full_gb_abstraction, CircuitVarOrder, FullGbOutcome};
use gfab::core::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
use gfab::core::interpolate::interpolate;
use gfab::core::{extract_word_polynomial, ExtractOptions};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::GfContext;
use gfab::netlist::format;
use gfab::poly::buchberger::GbLimits;
use gfab::poly::{Monomial, Poly, VarId};
use gfab::sat::equiv::{check_equivalence_sat, SatVerdict};
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

#[test]
fn mastrovito_canonical_is_product_for_k2_to_k64() {
    for k in [2usize, 3, 4, 5, 8, 12, 16, 32, 64] {
        let ctx = field(k);
        let nl = mastrovito_multiplier(&ctx);
        let result = extract_word_polynomial(&nl, &ctx).unwrap();
        let f = result
            .canonical()
            .unwrap_or_else(|| panic!("k={k}: expected Case 1"));
        assert_eq!(format!("{}", f.display()), "A*B", "k={k}");
        // Peak live terms of the pinned table1 rows (not a work unit, so
        // the trace-diff perf gate does not see it).
        let peak = match k {
            16 => Some(497),
            32 => Some(2017),
            64 => Some(8129),
            _ => None,
        };
        if let Some(peak) = peak {
            assert_eq!(result.stats.peak_terms, peak, "k={k}");
        }
    }
}

#[test]
fn monpro_canonical_is_rinv_ab() {
    for k in [3usize, 4, 8] {
        let ctx = field(k);
        let nl = monpro(&ctx, "mm", MonproOperand::Word);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        // Expected: R⁻¹·A·B.
        let rinv = ctx.montgomery_r_inv();
        let expected = Poly::from_terms(vec![(
            Monomial::from_factors(vec![(VarId(0), 1), (VarId(1), 1)]),
            rinv,
        )]);
        assert_eq!(f.poly(), &expected, "k={k}");
    }
}

#[test]
fn squarer_canonical_is_a_squared() {
    for k in [2usize, 3, 4, 8] {
        let ctx = field(k);
        let nl = squarer(&ctx);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        let expected = Poly::from_terms(vec![(Monomial::var_pow(VarId(0), 2), ctx.one())]);
        assert_eq!(f.poly(), &expected, "k={k}");
    }
}

#[test]
fn sqrt_circuit_canonical_is_high_degree_power() {
    // √A = A^(2^(k-1)): the canonical polynomial has a single term of
    // very high degree — a stress test beyond degree-2 multiplier forms.
    for k in [2usize, 3, 4, 6, 8] {
        let ctx = field(k);
        let nl = gfab::circuits::sqrt_circuit(&ctx);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        let expected =
            Poly::from_terms(vec![(Monomial::var_pow(VarId(0), 1 << (k - 1)), ctx.one())]);
        assert_eq!(f.poly(), &expected, "k={k}");
        // And it must functionally invert the squarer.
        for a in ctx.iter_elements() {
            assert_eq!(f.eval(std::slice::from_ref(&ctx.square(&a))), a);
        }
    }
}

#[test]
fn trace_circuit_canonical_is_trace_polynomial() {
    // Tr(A) = A + A² + A⁴ + … + A^(2^(k-1)): k terms, exercising narrow
    // (1-bit) output words and many-term canonical forms.
    for k in [2usize, 3, 4, 8] {
        let ctx = field(k);
        let nl = gfab::circuits::trace_circuit(&ctx);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        let expected = Poly::from_terms(
            (0..k)
                .map(|i| (Monomial::var_pow(VarId(0), 1 << i), ctx.one()))
                .collect(),
        );
        assert_eq!(f.poly(), &expected, "k={k}");
    }
}

#[test]
fn strash_preserves_canonical_polynomial() {
    let ctx = field(8);
    for nl in [
        mastrovito_multiplier(&ctx),
        montgomery_multiplier_hier(&ctx).flatten(),
    ] {
        let (hashed, _) = gfab::netlist::strash::structural_hash(&nl);
        let f1 = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        let f2 = extract_word_polynomial(&hashed, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        assert!(f1.matches(&f2), "{}", nl.name());
    }
}

#[test]
fn parsed_specs_drive_ideal_membership() {
    // The textual spec path used by `gfab verify-spec`.
    let ctx = field(4);
    let nl = gfab::circuits::squarer(&ctx);
    let sr = spec_ring(&nl, &ctx);
    let good = gfab::poly::parse_poly("A^2", &sr.ring).unwrap();
    assert!(verify_against_spec(&nl, &ctx, &sr, &good).unwrap().verified);
    let bad = gfab::poly::parse_poly("A^2 + a", &sr.ring).unwrap();
    assert!(!verify_against_spec(&nl, &ctx, &sr, &bad).unwrap().verified);
}

#[test]
fn adder_and_constant_multiplier_canonical_forms() {
    let ctx = field(5);
    let add = gf_adder(&ctx);
    let f = extract_word_polynomial(&add, &ctx)
        .unwrap()
        .canonical()
        .cloned()
        .unwrap();
    assert_eq!(format!("{}", f.display()), "A + B");

    let c = ctx.from_u64(0b10110);
    let cm = constant_multiplier(&ctx, &c);
    let g = extract_word_polynomial(&cm, &ctx)
        .unwrap()
        .canonical()
        .cloned()
        .unwrap();
    let expected = Poly::from_terms(vec![(Monomial::var(VarId(0)), c)]);
    assert_eq!(g.poly(), &expected);
}

#[test]
fn three_extraction_routes_agree_on_generators() {
    use CircuitVarOrder::{Declaration as Decl, ReverseTopological as Rato};
    // Guided, full-GB and Lagrange must produce identical canonical forms.
    for k in [2usize, 3] {
        let ctx = field(k);
        for nl in [
            mastrovito_multiplier(&ctx),
            monpro(&ctx, "mm", MonproOperand::Word),
            squarer(&ctx),
        ] {
            let guided = extract_word_polynomial(&nl, &ctx)
                .unwrap()
                .canonical()
                .cloned()
                .unwrap();
            let lagrange = interpolate(&nl, &ctx).unwrap();
            assert!(
                guided.matches(&lagrange),
                "k={k} {}: guided {} vs lagrange {}",
                nl.name(),
                guided.display(),
                lagrange.display()
            );
            // Full GB under RATO; the Mastrovito circuit also under
            // declaration order, pinning table4's ablation 1 as (pairs
            // reduced, pairs pruned) per order. The trace gate sees only
            // their summed S-polynomials.
            let runs = match nl.name() {
                "mastrovito_2" => vec![(Rato, Some((13, 338))), (Decl, Some((16, 419)))],
                "mastrovito_3" => vec![(Rato, Some((25, 1250))), (Decl, Some((33, 1678)))],
                _ => vec![(Rato, None)],
            };
            for (order, pinned) in runs {
                match full_gb_abstraction(&nl, &ctx, order, &GbLimits::default()).unwrap() {
                    FullGbOutcome::Canonical {
                        function, stats, ..
                    } => {
                        assert!(function.matches(&guided), "k={k} {} {order:?}", nl.name());
                        let pruned = stats.pairs_skipped_product + stats.pairs_skipped_chain;
                        if let Some(pinned) = pinned {
                            assert_eq!((stats.pairs_reduced, pruned), pinned, "k={k} {order:?}");
                        }
                    }
                    FullGbOutcome::GaveUp { reason, .. } => {
                        panic!("k={k} {} full GB gave up: {reason}", nl.name())
                    }
                }
            }
        }
    }
}

#[test]
fn all_engines_agree_on_equivalence_and_bugs() {
    let k = 4usize;
    let ctx = field(k);
    let spec = mastrovito_multiplier(&ctx);
    let montgomery = montgomery_multiplier_hier(&ctx).flatten();

    // Equivalent pair: algebraic and SAT agree.
    let alg = check_equivalence(&spec, &montgomery, &ctx, &ExtractOptions::default()).unwrap();
    assert!(alg.verdict.is_equivalent());
    let sat = check_equivalence_sat(&spec, &montgomery, u64::MAX);
    assert_eq!(sat.verdict, SatVerdict::Equivalent);

    // Ideal membership with the product spec passes both circuits.
    for nl in [&spec, &montgomery] {
        let sr = spec_ring(nl, &ctx);
        let f = multiplier_spec(&sr, &ctx);
        assert!(verify_against_spec(nl, &ctx, &sr, &f).unwrap().verified);
    }

    // Buggy pairs: verdicts agree across engines.
    for seed in 0..8u64 {
        let (bad, what) = gfab::netlist::mutate::inject_random_bug(&montgomery, seed);
        let truly_equal =
            gfab::netlist::sim::exhaustive_check(&bad, &ctx, |w| ctx.mul(&w[0], &w[1])).is_ok();
        let alg = check_equivalence(&spec, &bad, &ctx, &ExtractOptions::default()).unwrap();
        assert_eq!(
            alg.verdict.is_equivalent(),
            truly_equal,
            "algebraic vs simulation, seed {seed} ({what})"
        );
        let sat = check_equivalence_sat(&spec, &bad, u64::MAX);
        match (sat.verdict, truly_equal) {
            (SatVerdict::Equivalent, true) => {}
            (SatVerdict::Counterexample(_), false) => {}
            (v, t) => panic!("SAT vs simulation disagree, seed {seed} ({what}): {v:?} vs {t}"),
        }
        let sr = spec_ring(&bad, &ctx);
        let f = multiplier_spec(&sr, &ctx);
        assert_eq!(
            verify_against_spec(&bad, &ctx, &sr, &f).unwrap().verified,
            truly_equal,
            "ideal membership vs simulation, seed {seed} ({what})"
        );
    }
}

#[test]
fn hierarchical_and_flat_agree_up_to_k16() {
    for k in [8usize, 16] {
        let ctx = field(k);
        let design = montgomery_multiplier_hier(&ctx);
        let hier =
            gfab::core::hier::extract_hierarchical(&design, &ctx, &ExtractOptions::default())
                .unwrap();
        let flat = extract_word_polynomial(&design.flatten(), &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        assert!(hier.function.matches(&flat), "k={k}");
        assert_eq!(format!("{}", hier.function.display()), "A*B", "k={k}");
    }
}

#[test]
fn extraction_at_nist_163_produces_product() {
    // The paper's Table 1 row, shrunk to a test: flattened Mastrovito at
    // the smallest NIST size abstracts to exactly Z = A·B.
    let ctx = GfContext::shared(gfab::field::nist::nist_polynomial(163).unwrap()).unwrap();
    let nl = mastrovito_multiplier(&ctx);
    let result = extract_word_polynomial(&nl, &ctx).unwrap();
    let f = result.canonical().expect("Case 1");
    assert_eq!(format!("{}", f.display()), "A*B");
    assert!(result.stats.reduction_steps as usize >= nl.num_gates());
}

/// `(steps, peak_terms, cancellations)` of one flat extraction, asserted
/// equal in memory and on the netlist as `gfab gen` writes it and the
/// benchmark reads it back.
fn reduction_effort(nl: &gfab::netlist::Netlist, ctx: &Arc<GfContext>) -> (u64, usize, u64) {
    let text = format::parse(&format::emit(nl)).unwrap();
    let [in_memory, as_text] = [nl, &text].map(|nl| {
        let result = extract_word_polynomial(nl, ctx).unwrap();
        assert_eq!(
            format!("{}", result.canonical().expect("Case 1").display()),
            "A*B"
        );
        let s = &result.stats;
        (s.reduction_steps, s.peak_terms, s.cancellations)
    });
    assert_eq!(in_memory, as_text, "{}: in memory vs as text", nl.name());
    in_memory
}

#[test]
fn flattened_montgomery_reduction_effort_is_pinned() {
    // The long division chain: a flattened Montgomery design takes two to
    // four times the steps of Mastrovito at the same k (7.5x before the
    // XOR trees that feed its products became linear divisors; see
    // `tests/linear_divisors.rs` for the literal chain). `peak_terms` and
    // `cancellations` are not work units, so only these known answers
    // notice a working-store change that reorders pops but keeps the
    // step count.
    for (k, effort) in [
        (16, (2_797, 2_149, 255)),
        (32, (8_866, 7_513, 1_023)),
        (64, (21_035, 22_499, 4_095)),
    ] {
        let ctx = field(k);
        let nl = montgomery_multiplier_hier(&ctx).flatten();
        assert_eq!(reduction_effort(&nl, &ctx), effort, "k={k}");
    }
}

#[test]
fn k163_extraction_effort_matches_the_benchmark() {
    // The two extractions of perfbench's `equiv-flat` workload: about two
    // seconds in a debug build, whose profile optimizes the kernels.
    let ctx = field(163);
    let mastrovito = mastrovito_multiplier(&ctx);
    assert_eq!(
        reduction_effort(&mastrovito, &ctx),
        (53_642, 52_976, 26_568)
    );
    let montgomery = montgomery_multiplier_hier(&ctx).flatten();
    assert_eq!(
        reduction_effort(&montgomery, &ctx),
        (123_897, 143_997, 26_568)
    );
}

#[test]
fn serial_equivalence_check_matches_parallel() {
    // threads=1 regression: the fully serial path must reach the same
    // verdicts (and the same canonical function) as the threaded one, on
    // both an equivalent pair and an injected-bug pair.
    let ctx = field(8);
    let spec = mastrovito_multiplier(&ctx);
    let montgomery = montgomery_multiplier_hier(&ctx).flatten();
    let serial = gfab::Verifier::new(&ctx).threads(1);
    let threaded = gfab::Verifier::new(&ctx).threads(4);

    let r1 = serial.check(&spec, &montgomery).unwrap();
    let r4 = threaded.check(&spec, &montgomery).unwrap();
    match (&r1.verdict, &r4.verdict) {
        (Verdict::Equivalent { function: f1 }, Verdict::Equivalent { function: f4 }) => {
            assert!(f1.matches(f4));
            assert_eq!(format!("{}", f1.display()), "A*B");
        }
        other => panic!("expected Equivalent from both paths, got {other:?}"),
    }

    let (bad, what) = gfab::netlist::mutate::inject_random_bug(&montgomery, 2);
    let r1 = serial.check(&spec, &bad).unwrap();
    let r4 = threaded.check(&spec, &bad).unwrap();
    assert_eq!(
        r1.verdict.is_equivalent(),
        r4.verdict.is_equivalent(),
        "serial and threaded verdicts diverge on injected bug ({what})"
    );
}

#[test]
fn equivalence_detects_wrong_modulus() {
    // Same k, different irreducible polynomial => different fields =>
    // different multiplier circuits; must be INEQUIVALENT.
    let p1 = gfab::field::Gf2Poly::from_exponents(&[4, 1, 0]);
    let p2 = gfab::field::Gf2Poly::from_exponents(&[4, 3, 0]);
    let ctx1 = GfContext::shared(p1).unwrap();
    let ctx2 = GfContext::shared(p2).unwrap();
    let a = mastrovito_multiplier(&ctx1);
    let b = mastrovito_multiplier(&ctx2);
    // Compare both as functions over ctx1's field (the circuits are just
    // bit-level netlists; interpretation fixes the field).
    let report = check_equivalence(&a, &b, &ctx1, &ExtractOptions::default()).unwrap();
    match report.verdict {
        Verdict::Inequivalent { counterexample, .. } => {
            assert!(counterexample.is_some());
        }
        other => panic!("multipliers over different moduli must differ: {other:?}"),
    }
}
