//! Parallel extraction must be bit-identical to serial extraction: the
//! thread budget is a performance knob, never a semantics knob. Every
//! generator in `gfab-circuits` is extracted with `threads = 1` and
//! `threads = 4` and the resulting polynomials (and stats that are
//! thread-independent) compared exactly, including injected-bug Case-2
//! completions and the sharded simulation counterexample search.

use gfab::circuits::{
    constant_multiplier, gf_adder, mastrovito_multiplier, monpro, montgomery_multiplier_hier,
    sqrt_circuit, squarer, trace_circuit, MonproOperand,
};
use gfab::core::Extraction;
use gfab::field::budget::Budget;
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{GfContext, Rng};
use gfab::netlist::mutate::inject_random_bug;
use gfab::netlist::sim::random_equivalence_check_traced;
use gfab::netlist::Netlist;
use gfab::telemetry::Telemetry;
use gfab::Verifier;
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// Extracts `nl` serially and with 4 threads and asserts the outcomes are
/// identical term by term (canonical or residual alike).
fn assert_flat_deterministic(nl: &Netlist, ctx: &Arc<GfContext>, label: &str) {
    let serial = Verifier::new(ctx).threads(1).extract(nl).unwrap();
    let threaded = Verifier::new(ctx).threads(4).extract(nl).unwrap();
    let (s, t) = (serial.as_flat().unwrap(), threaded.as_flat().unwrap());
    match (&s.outcome, &t.outcome) {
        (Extraction::Canonical(f1), Extraction::Canonical(f2)) => {
            assert_eq!(
                f1.poly(),
                f2.poly(),
                "{label}: canonical polynomials differ"
            );
        }
        (
            Extraction::Residual {
                remainder: r1,
                note: n1,
            },
            Extraction::Residual {
                remainder: r2,
                note: n2,
            },
        ) => {
            assert_eq!(r1, r2, "{label}: residuals differ");
            assert_eq!(n1, n2, "{label}: residual notes differ");
        }
        _ => panic!("{label}: serial and threaded reached different cases"),
    }
    // Work counters are functions of the algebra, not of the scheduling.
    assert_eq!(
        s.stats.reduction_steps, t.stats.reduction_steps,
        "{label}: step counts differ"
    );
    assert_eq!(
        s.stats.peak_terms, t.stats.peak_terms,
        "{label}: peak term counts differ"
    );
    assert_eq!(
        s.stats.cancellations, t.stats.cancellations,
        "{label}: cancellation counts differ"
    );
}

#[test]
fn every_generator_is_thread_deterministic() {
    for k in [2usize, 4, 8, 16] {
        let ctx = field(k);
        let cases: Vec<(String, Netlist)> = vec![
            ("mastrovito".into(), mastrovito_multiplier(&ctx)),
            (
                "monpro_word".into(),
                monpro(&ctx, "mm", MonproOperand::Word),
            ),
            (
                "monpro_const".into(),
                monpro(&ctx, "mmc", MonproOperand::Const(ctx.montgomery_r2())),
            ),
            (
                "montgomery_flat".into(),
                montgomery_multiplier_hier(&ctx).flatten(),
            ),
            ("squarer".into(), squarer(&ctx)),
            (
                "constant_multiplier".into(),
                constant_multiplier(&ctx, &ctx.from_u64(3)),
            ),
            ("gf_adder".into(), gf_adder(&ctx)),
            ("sqrt".into(), sqrt_circuit(&ctx)),
            ("trace".into(), trace_circuit(&ctx)),
        ];
        for (name, nl) in &cases {
            assert_flat_deterministic(nl, &ctx, &format!("k={k} {name}"));
        }
    }
}

#[test]
fn hierarchical_extraction_is_thread_deterministic() {
    for k in [4usize, 8, 16] {
        let ctx = field(k);
        let design = montgomery_multiplier_hier(&ctx);
        let serial = Verifier::new(&ctx).threads(1).extract(&design).unwrap();
        let threaded = Verifier::new(&ctx).threads(4).extract(&design).unwrap();
        let (s, t) = (serial.as_hier().unwrap(), threaded.as_hier().unwrap());
        assert_eq!(
            s.function.poly(),
            t.function.poly(),
            "k={k}: composed functions differ"
        );
        assert_eq!(s.blocks.len(), t.blocks.len());
        for ((n1, f1, s1), (n2, f2, s2)) in s.blocks.iter().zip(&t.blocks) {
            assert_eq!(n1, n2, "k={k}: block order differs");
            assert_eq!(f1.poly(), f2.poly(), "k={k} {n1}: block polynomials differ");
            assert_eq!(
                s1.reduction_steps, s2.reduction_steps,
                "k={k} {n1}: step counts differ"
            );
        }
    }
}

#[test]
fn injected_bugs_case2_completion_is_thread_deterministic() {
    // Buggy circuits land in Case 2; the completion (and, when it fails,
    // the residual) must not depend on the thread budget either.
    // k=8 seeds 3..5 rewire input-side gates whose Case-2 completions are
    // far too expensive for a debug-mode test run; every other seed
    // completes (or yields a residual) quickly.
    for (k, seeds) in [(4usize, &[0u64, 1, 2, 3, 4, 5][..]), (8, &[0, 1, 2])] {
        let ctx = field(k);
        let golden = mastrovito_multiplier(&ctx);
        for &seed in seeds {
            let (bad, what) = inject_random_bug(&golden, seed);
            assert_flat_deterministic(&bad, &ctx, &format!("k={k} bug seed {seed} ({what})"));
        }
    }
}

/// A canonical rendering of a verdict for exact comparison (the plain
/// `Debug` form leaks `HashMap` iteration order from the ring's name
/// table, which is not semantically meaningful).
fn verdict_fingerprint(v: &gfab::core::equiv::Verdict) -> String {
    use gfab::core::equiv::Verdict;
    match v {
        Verdict::Equivalent { function } => format!("Equivalent Z = {}", function.display()),
        Verdict::Inequivalent {
            spec,
            impl_,
            counterexample,
        } => format!(
            "Inequivalent {} vs {} cex {counterexample:?}",
            spec.display(),
            impl_.display()
        ),
        Verdict::InequivalentBySimulation { counterexample } => {
            format!("InequivalentBySimulation cex {counterexample:?}")
        }
        Verdict::EquivalentBySat { conflicts } => format!("EquivalentBySat {conflicts}"),
        Verdict::InequivalentBySat {
            counterexample,
            conflicts,
        } => format!("InequivalentBySat cex {counterexample:?} {conflicts}"),
        Verdict::Unknown { reason } => format!("Unknown {reason}"),
    }
}

#[test]
fn budgeted_checks_are_thread_deterministic() {
    // A work cap must stay deterministic under parallelism: whether it
    // trips depends only on the total algebraic work a query needs, never
    // on the thread schedule. Runs that complete within the cap are
    // bit-identical to uncapped ones; runs that exhaust it funnel into
    // the single-threaded SAT fallback, whose verdict is deterministic
    // too. Either way the final verdict cannot depend on the thread
    // budget.
    let ctx = field(4);
    let golden = mastrovito_multiplier(&ctx);
    for (cap, label) in [(u64::MAX, "roomy"), (1u64, "tight")] {
        for seed in 0..4u64 {
            let (bad, what) = inject_random_bug(&golden, seed);
            let run = |threads: usize| {
                Verifier::new(&ctx)
                    .threads(threads)
                    .work_cap(cap)
                    .check(&golden, &bad)
                    .unwrap()
            };
            let (one, four) = (run(1), run(4));
            assert_eq!(
                verdict_fingerprint(&one.verdict),
                verdict_fingerprint(&four.verdict),
                "{label} cap, seed {seed} ({what}): verdicts differ between thread budgets"
            );
        }
    }
}

#[test]
fn roomy_work_cap_does_not_perturb_extraction() {
    // A cap that never trips must leave the result (and the
    // thread-independent work counters) exactly as the uncapped run.
    for k in [4usize, 8] {
        let ctx = field(k);
        let nl = mastrovito_multiplier(&ctx);
        let plain = Verifier::new(&ctx).threads(4).extract(&nl).unwrap();
        let capped = Verifier::new(&ctx)
            .threads(4)
            .work_cap(1 << 40)
            .extract(&nl)
            .unwrap();
        assert_eq!(
            plain.function().unwrap().poly(),
            capped.function().unwrap().poly(),
            "k={k}: roomy cap changed the canonical polynomial"
        );
        assert_eq!(
            plain.stats().reduction_steps,
            capped.stats().reduction_steps,
            "k={k}: roomy cap changed the step count"
        );
    }
}

#[test]
fn sharded_counterexample_search_is_thread_deterministic() {
    // The 64-way bit-parallel sweep shards across threads; the reported
    // counterexample must be the same (lowest-index) one regardless.
    let ctx = field(8);
    let golden = mastrovito_multiplier(&ctx);
    for seed in 0..6u64 {
        let (bad, what) = inject_random_bug(&golden, seed);
        let run = |threads: usize| {
            let mut rng = Rng::seed_from_u64(0xD15C);
            let (budget, tele) = (Budget::unlimited(), Telemetry::disabled());
            random_equivalence_check_traced(
                &golden, &bad, &ctx, 256, &mut rng, threads, &budget, &tele, "",
            )
        };
        assert_eq!(
            run(1),
            run(4),
            "seed {seed} ({what}): counterexamples differ between thread budgets"
        );
    }
}
