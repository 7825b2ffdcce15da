//! Equivalence checking by canonical-polynomial coefficient matching —
//! the Verification Problem of Section 1 of the paper.
//!
//! Both circuits are abstracted to their canonical word-level polynomials
//! `F₁, F₂`; "the equivalence test is then performed by simply matching
//! the coefficients of F₁, F₂". On mismatch a concrete counterexample is
//! produced.

use crate::error::CoreError;
use crate::extract::{ExtractOptions, ExtractionResult, ExtractionStats};
use crate::hier::{extract_hierarchical_budgeted_with, HierExtraction};
use crate::provider::{DirectExtract, ExtractProvider};
use crate::wordfn::WordFunction;
use crate::Circuit;
use gfab_field::budget::Budget;
use gfab_field::{Gf, GfContext, Rng};
use gfab_netlist::hierarchy::Signal;
use gfab_netlist::sim::{random_equivalence_check_traced, SimOutcome};
use gfab_netlist::Netlist;
use gfab_telemetry::{Phase, Trace};
use std::sync::Arc;

/// The verdict of an equivalence check.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The circuits implement the same polynomial function over `F_{2^k}`.
    Equivalent {
        /// The shared canonical function.
        function: WordFunction,
    },
    /// The circuits differ; both canonical functions and (when found) a
    /// distinguishing input assignment are reported.
    Inequivalent {
        /// Spec's canonical function.
        spec: WordFunction,
        /// Impl's canonical function.
        impl_: WordFunction,
        /// An input assignment on which the two differ (always present
        /// when the input space is exhaustively enumerable; randomly
        /// sampled otherwise).
        counterexample: Option<Vec<Gf>>,
    },
    /// A canonical form could not be derived for one side, but random
    /// simulation found a concrete distinguishing assignment — a sound
    /// refutation even without canonical polynomials.
    InequivalentBySimulation {
        /// The distinguishing input words.
        counterexample: Vec<Gf>,
    },
    /// The word-level pipeline ran out of budget (or stayed residual), but
    /// the SAT miter fallback proved the circuits equivalent (UNSAT miter).
    /// Constructed by the `Verifier` fallback ladder, never by
    /// [`check_equivalence`] itself.
    EquivalentBySat {
        /// Conflicts the solver spent on the proof.
        conflicts: u64,
    },
    /// The SAT miter fallback found a concrete distinguishing input
    /// assignment after the word-level pipeline could not decide.
    InequivalentBySat {
        /// The distinguishing input words.
        counterexample: Vec<Gf>,
        /// Conflicts the solver spent before finding it.
        conflicts: u64,
    },
    /// A canonical form could not be derived for one side (Case-2 residual
    /// on a large field, or budget exhaustion); the reason is reported.
    Unknown {
        /// Why no decision was reached.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict proves equivalence ([`Verdict::Equivalent`] or
    /// [`Verdict::EquivalentBySat`]).
    pub fn is_equivalent(&self) -> bool {
        matches!(
            self,
            Verdict::Equivalent { .. } | Verdict::EquivalentBySat { .. }
        )
    }

    /// The one-word verdict shown on result lines, on a query's root
    /// span and in live `query-done` events: `equivalent`,
    /// `inequivalent` or `unknown`.
    #[must_use]
    pub fn word(&self) -> &'static str {
        match self {
            Verdict::Equivalent { .. } | Verdict::EquivalentBySat { .. } => "equivalent",
            Verdict::Inequivalent { .. }
            | Verdict::InequivalentBySimulation { .. }
            | Verdict::InequivalentBySat { .. } => "inequivalent",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// The engine that decided: `word` (coefficient matching),
    /// `simulation`, `sat`, or `none` for `Unknown`.
    #[must_use]
    pub fn method(&self) -> &'static str {
        match self {
            Verdict::Equivalent { .. } | Verdict::Inequivalent { .. } => "word",
            Verdict::InequivalentBySimulation { .. } => "simulation",
            Verdict::EquivalentBySat { .. } | Verdict::InequivalentBySat { .. } => "sat",
            Verdict::Unknown { .. } => "none",
        }
    }

    /// The distinguishing input assignment, for any inequivalence
    /// verdict that carries one; `None` otherwise.
    pub fn counterexample(&self) -> Option<&[Gf]> {
        match self {
            Verdict::Inequivalent { counterexample, .. } => counterexample.as_deref(),
            Verdict::InequivalentBySimulation { counterexample }
            | Verdict::InequivalentBySat { counterexample, .. } => Some(counterexample),
            _ => None,
        }
    }
}

/// Effort counters of the SAT fallback rung. A value-level mirror of the
/// solver's own stats struct, defined here so the report type does not
/// pull the solver crate into the core dependency graph; the `Verifier`
/// ladder fills it whenever the SAT rung ran (regardless of verdict).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL unit propagations.
    pub propagations: u64,
    /// CDCL restarts.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Variables in the miter CNF.
    pub cnf_vars: usize,
    /// Clauses in the miter CNF.
    pub cnf_clauses: usize,
}

/// A full equivalence report: verdict plus per-side extraction statistics.
#[derive(Debug, Clone)]
pub struct EquivReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Spec extraction statistics.
    pub spec_stats: ExtractionStats,
    /// Impl extraction statistics (aggregated over blocks for
    /// hierarchical implementations).
    pub impl_stats: ExtractionStats,
    /// How each side's extraction ended, spec first: `case1`, `case2`,
    /// `residual` or `timed-out` (see [`ExtractionResult::case`]), or
    /// `not-run` when the simulation pre-check decided before either
    /// side was extracted.
    pub cases: [&'static str; 2],
    /// SAT fallback effort, when the `Verifier` ladder ran the SAT rung
    /// (present whether or not that rung decided the query).
    pub sat: Option<SatStats>,
    /// The query's span tree, when telemetry was enabled (the `Verifier`
    /// attaches it after the query completes).
    pub trace: Option<Trace>,
}

/// Checks a flat spec against a flat or hierarchical implementation over
/// `F_{2^k}`: the plain entry point of [`check_equivalence_budgeted_with`]
/// (direct extraction, the options' own budget).
///
/// # Errors
///
/// As [`check_equivalence_budgeted_with`].
pub fn check_equivalence<'a>(
    spec: &Netlist,
    impl_: impl Into<Circuit<'a>>,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
) -> Result<EquivReport, CoreError> {
    let budget = options.budget.start();
    check_equivalence_budgeted_with(&DirectExtract, spec, impl_.into(), ctx, options, &budget)
}

/// The equivalence ladder, for flat and hierarchical implementations
/// alike: signature check, simulation pre-check, extraction of both
/// sides, then coefficient matching — or, when a side has no canonical
/// form, a refutation sweep before [`Verdict::Unknown`].
///
/// Runs under an already-running cooperative [`Budget`] shared by both
/// abstractions (and, in the `Verifier` ladder, by the SAT fallback that
/// may follow). Budget exhaustion mid-pipeline degrades to
/// [`Verdict::Unknown`] with the exhausted resource named — never an
/// error — so a caller can always act on the verdict. Work units are
/// charged only by the (deterministic) word-level algebra, so under a
/// pure work cap the verdict is identical at any thread count; wall-clock
/// deadlines only decide *whether* a run completes.
///
/// Every flat extraction — each side, each block of a hierarchical impl —
/// goes through `provider`, the hook the batch engine's artifact cache
/// plugs into; with any provider honouring the determinism contract (see
/// [`ExtractProvider`]) the verdict is bit-identical to [`DirectExtract`]'s.
/// The simulation sweeps and the decision depend on the *pair* and
/// always run.
///
/// # Errors
///
/// * [`CoreError::SignatureMismatch`] when the interfaces (input word
///   counts/widths, output width) differ;
/// * any other extraction error, the spec's first. A hierarchical block
///   that runs out of budget or stays in Case 2 is not an error: the
///   impl then has no canonical form, like a flat residual.
pub fn check_equivalence_budgeted_with(
    provider: &dyn ExtractProvider,
    spec: &Netlist,
    impl_: Circuit<'_>,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
    budget: &Budget,
) -> Result<EquivReport, CoreError> {
    check_signatures(spec, impl_)?;
    let (threads, tele) = (options.threads, &options.telemetry);
    let sweep = |imp: &Netlist, n: usize, seed: u64, label: &str| {
        let mut rng = Rng::seed_from_u64(seed);
        random_equivalence_check_traced(spec, imp, ctx, n, &mut rng, threads, budget, tele, label)
    };
    // Cheap pre-check on larger fields: 64 random co-simulations refute a
    // buggy pair in milliseconds, where the Case-2 completion a buggy
    // extraction would trigger expands up to k^d products per residual
    // term with d bits of one word, and cannot run at all past k = 63. Small fields (k <= 5)
    // skip this so the verdict carries both canonical polynomials (richer
    // diagnostics, and the completion there is fast anyway). A
    // hierarchical impl skips it too: it would first need
    // `design.flatten()`, and at k = 283 flattening (155 ms) plus the
    // simulation (80 ms) cost about 9 % of a 2.7 s query that every
    // correct design would pay. An interrupted sweep proves nothing.
    if let (Circuit::Flat(nl), true) = (impl_, ctx.k() > 5) {
        if let SimOutcome::Differ(counterexample) = sweep(nl, 64, 0xFA57, "pre-check") {
            return Ok(EquivReport {
                verdict: Verdict::InequivalentBySimulation { counterexample },
                spec_stats: ExtractionStats::default(),
                impl_stats: ExtractionStats::default(),
                cases: ["not-run"; 2],
                sat: None,
                trace: None,
            });
        }
    }
    // Spec and impl abstractions are independent; run them on two scoped
    // threads when the thread budget allows. Error precedence (spec first)
    // matches the serial path, so behaviour is identical either way. Both
    // sides tick the *same* budget: a work cap bounds the query total.
    // Each side runs under a labelled `Phase::Extract` span (opened on
    // whichever thread performs the work, so the span measures on-thread
    // time); the extraction's own spans nest beneath it. Both results,
    // models included, live until the verdict is built.
    let spec_side = || {
        options.in_span(Phase::Extract, "spec", |opts| {
            provider.extract(spec, ctx, opts, budget)
        })
    };
    let impl_side = || {
        options.in_span(Phase::Extract, "impl", |opts| match impl_ {
            Circuit::Flat(nl) => provider.extract(nl, ctx, opts, budget).map(ImplSide::Flat),
            Circuit::Hier(design) => {
                match extract_hierarchical_budgeted_with(provider, design, ctx, opts, budget) {
                    Ok(h) => Ok(ImplSide::Hier(Ok(h))),
                    Err(CoreError::BudgetExhausted { .. }) => Ok(ImplSide::Hier(Err("timed-out"))),
                    Err(CoreError::CompletionLimit(_)) => Ok(ImplSide::Hier(Err("residual"))),
                    Err(e) => Err(e),
                }
            }
        })
    };
    let (spec_res, impl_res) = if options.effective_threads() > 1 {
        std::thread::scope(|scope| {
            let spec_handle = scope.spawn(spec_side);
            let impl_res = impl_side();
            (
                spec_handle.join().expect("spec extraction thread panicked"),
                impl_res,
            )
        })
    } else {
        (spec_side(), impl_side())
    };
    let (spec_res, impl_res) = (spec_res?, impl_res?);
    let (impl_fn, impl_case) = match &impl_res {
        ImplSide::Flat(r) => (r.canonical(), r.case()),
        ImplSide::Hier(Ok(h)) => (Some(&h.function), h.case()),
        ImplSide::Hier(Err(case)) => (None, *case),
    };
    let verdict = match (spec_res.canonical(), impl_fn) {
        (Some(f1), Some(f2)) => decide(f1.clone(), f2.clone()),
        (f1, _) => {
            // One side stayed a Case-2 residual (large field, completion
            // unavailable) or timed out. Try to at least *refute*
            // equivalence by random simulation before reporting Unknown:
            // over a large field a functional difference is detected with
            // overwhelming probability. A hierarchical impl is flattened
            // for this, on this path only.
            let flat;
            let imp = match impl_ {
                Circuit::Flat(nl) => nl,
                Circuit::Hier(design) => {
                    flat = design.flatten();
                    &flat
                }
            };
            if let SimOutcome::Differ(counterexample) = sweep(imp, 256, 0xCEC, "refute") {
                Verdict::InequivalentBySimulation { counterexample }
            } else if let Some(reason) = budget.exhausted() {
                // Deliberately side-agnostic: with a shared work cap and
                // parallel extraction, *which* side trips first races —
                // the fact of exhaustion does not.
                Verdict::Unknown {
                    reason: format!(
                        "word-level abstraction ran out of budget ({reason}) \
                         before reaching a canonical form"
                    ),
                }
            } else {
                let side = if f1.is_none() { "spec" } else { "impl" };
                Verdict::Unknown {
                    reason: format!(
                        "{side} abstraction did not reach a canonical form \
                         (and 256 random simulations found no difference)"
                    ),
                }
            }
        }
    };
    let cases = [spec_res.case(), impl_case];
    let impl_stats = match impl_res {
        ImplSide::Flat(r) => r.stats,
        ImplSide::Hier(h) => h.map(|h| h.stats()).unwrap_or_default(),
    };
    Ok(EquivReport {
        verdict,
        spec_stats: spec_res.stats,
        impl_stats,
        cases,
        sat: None,
        trace: None,
    })
}

/// The impl side of the ladder: a flat extraction, or a hierarchical
/// one, which is `timed-out` when a block ran out of budget and
/// `residual` when one stayed in Case 2.
#[allow(clippy::large_enum_variant)] // one short-lived local per query
enum ImplSide {
    Flat(ExtractionResult),
    Hier(Result<HierExtraction, &'static str>),
}

fn decide(f1: WordFunction, f2: WordFunction) -> Verdict {
    if f1.matches(&f2) {
        Verdict::Equivalent { function: f1 }
    } else {
        let mut rng = Rng::seed_from_u64(0x5EED);
        let counterexample = f1.find_counterexample(&f2, 4096, &mut rng);
        Verdict::Inequivalent {
            spec: f1,
            impl_: f2,
            counterexample,
        }
    }
}

fn check_signatures(spec: &Netlist, impl_: Circuit<'_>) -> Result<(), CoreError> {
    // The impl's input word widths and output width; a design whose
    // output signal dangles has none, and its validation reports that.
    let (inputs, output): (Vec<usize>, Option<usize>) = match impl_ {
        Circuit::Flat(nl) => (
            nl.input_words().iter().map(|w| w.width()).collect(),
            Some(nl.output_word().width()),
        ),
        Circuit::Hier(d) => (
            d.inputs.iter().map(|&(_, w)| w).collect(),
            match d.output {
                Signal::PrimaryInput(i) => d.inputs.get(i).map(|&(_, w)| w),
                Signal::BlockOutput(i) => d.blocks.get(i).map(|b| b.netlist.output_word().width()),
            },
        ),
    };
    let mismatch = |msg: String| Err(CoreError::SignatureMismatch(msg));
    if spec.input_words().len() != inputs.len() {
        return mismatch(format!(
            "spec has {} input words, impl has {}",
            spec.input_words().len(),
            inputs.len()
        ));
    }
    for (wa, &wb) in spec.input_words().iter().zip(&inputs) {
        if wa.width() != wb {
            return mismatch(format!(
                "input {} widths differ: {} vs {wb}",
                wa.name,
                wa.width()
            ));
        }
    }
    let width = spec.output_word().width();
    match output {
        Some(w) if w != width => mismatch(format!("output widths differ: {width} vs {w}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_circuits::{mastrovito_multiplier, montgomery_multiplier_hier, squarer};
    use gfab_field::nist::irreducible_polynomial;
    use gfab_netlist::hierarchy::{BlockInst, HierDesign};
    use gfab_netlist::mutate::inject_random_bug;
    use gfab_netlist::sim::simulate_word;

    #[test]
    fn mastrovito_equals_montgomery_flat() {
        for k in [3usize, 4, 8] {
            let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
            let spec = mastrovito_multiplier(&ctx);
            let impl_ = montgomery_multiplier_hier(&ctx).flatten();
            let report =
                check_equivalence(&spec, &impl_, &ctx, &ExtractOptions::default()).unwrap();
            assert!(report.verdict.is_equivalent(), "k = {k}");
        }
    }

    #[test]
    fn mastrovito_equals_montgomery_hierarchical() {
        let ctx = GfContext::shared(irreducible_polynomial(8).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let impl_ = montgomery_multiplier_hier(&ctx);
        let report = check_equivalence(&spec, &impl_, &ctx, &ExtractOptions::default()).unwrap();
        match &report.verdict {
            Verdict::Equivalent { function } => {
                assert_eq!(format!("{}", function.display()), "A*B");
            }
            other => panic!("expected equivalence, got {other:?}"),
        }
    }

    #[test]
    fn injected_bugs_yield_counterexamples() {
        let ctx = GfContext::shared(irreducible_polynomial(3).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let mut caught = 0;
        for seed in 0..10 {
            let (bad, what) = inject_random_bug(&spec, seed);
            // Skip mutations that happen to preserve the function.
            let differs =
                gfab_netlist::sim::exhaustive_check(&bad, &ctx, |w| ctx.mul(&w[0], &w[1])).is_err();
            let report = check_equivalence(&spec, &bad, &ctx, &ExtractOptions::default()).unwrap();
            match (&report.verdict, differs) {
                (Verdict::Equivalent { .. }, false) => {}
                (Verdict::Inequivalent { counterexample, .. }, true) => {
                    caught += 1;
                    let cex = counterexample
                        .as_ref()
                        .unwrap_or_else(|| panic!("cex must exist on a tiny field ({what})"));
                    // The counterexample must actually distinguish the
                    // circuits.
                    assert_ne!(
                        simulate_word(&spec, &ctx, cex),
                        simulate_word(&bad, &ctx, cex),
                        "{what}"
                    );
                }
                (v, d) => panic!("seed {seed} ({what}): verdict {v:?}, differs={d}"),
            }
        }
        assert!(caught >= 5, "expected most mutations to be real bugs");
    }

    #[test]
    fn large_field_bug_is_refuted_by_simulation_fallback() {
        // k = 64: Case-2 completion is unavailable (needs k <= 63), so a
        // buggy circuit cannot be canonicalized — but the simulation
        // fallback still refutes equivalence with a concrete witness.
        let ctx = GfContext::shared(irreducible_polynomial(64).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let mut found_residual_refutation = false;
        for seed in 0..6u64 {
            let (bad, what) = inject_random_bug(&spec, seed);
            let report = check_equivalence(&spec, &bad, &ctx, &ExtractOptions::default()).unwrap();
            match &report.verdict {
                Verdict::Equivalent { .. } => {}   // benign mutation
                Verdict::Inequivalent { .. } => {} // bug stayed Case 1 somehow
                Verdict::InequivalentBySimulation { counterexample } => {
                    found_residual_refutation = true;
                    assert_ne!(
                        simulate_word(&spec, &ctx, counterexample),
                        simulate_word(&bad, &ctx, counterexample),
                        "{what}"
                    );
                }
                Verdict::Unknown { reason } => {
                    panic!("seed {seed} ({what}): unexpected Unknown: {reason}")
                }
                other => panic!("seed {seed} ({what}): SAT verdict without SAT rung: {other:?}"),
            }
        }
        assert!(
            found_residual_refutation,
            "at least one mutation must land in the simulation-fallback path"
        );
        // The same fallback covers a hierarchical impl whose middle block
        // stays a Case-2 residual: a verdict, never an error, and any
        // counterexample separates spec and the flattened design.
        let design = montgomery_multiplier_hier(&ctx);
        let mid = design
            .blocks
            .iter()
            .position(|b| b.name == "blk_mid")
            .unwrap();
        for seed in 0..3u64 {
            let (buggy_mid, what) = inject_random_bug(&design.blocks[mid].netlist, seed);
            let mut bad = design.clone();
            bad.blocks[mid].netlist = buggy_mid;
            let report = check_equivalence(&spec, &bad, &ctx, &ExtractOptions::default())
                .unwrap_or_else(|e| panic!("blk_mid seed {seed} ({what}): error {e}"));
            if let Some(cex) = report.verdict.counterexample() {
                assert_ne!(
                    simulate_word(&spec, &ctx, cex),
                    simulate_word(&bad.flatten(), &ctx, cex),
                    "blk_mid seed {seed} ({what})"
                );
            }
            assert!(
                !matches!(report.verdict, Verdict::Unknown { .. }),
                "blk_mid seed {seed} ({what}): {:?}",
                report.verdict
            );
        }
    }

    #[test]
    fn signature_mismatch_is_an_error() {
        let ctx = GfContext::shared(irreducible_polynomial(3).unwrap()).unwrap();
        let ctx4 = GfContext::shared(irreducible_polynomial(4).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let other = mastrovito_multiplier(&ctx4);
        assert!(matches!(
            check_equivalence(&spec, &other, &ctx, &ExtractOptions::default()),
            Err(CoreError::SignatureMismatch(_))
        ));
        // A 1-input hierarchical design (one squarer block) against the
        // 2-input spec.
        let ctx8 = GfContext::shared(irreducible_polynomial(8).unwrap()).unwrap();
        let square = HierDesign {
            name: "square".into(),
            inputs: vec![("A".into(), 8)],
            blocks: vec![BlockInst {
                name: "sq".into(),
                netlist: squarer(&ctx8),
                connections: vec![Signal::PrimaryInput(0)],
            }],
            output: Signal::BlockOutput(0),
            output_name: "Z".into(),
        };
        let spec8 = mastrovito_multiplier(&ctx8);
        assert!(matches!(
            check_equivalence(&spec8, &square, &ctx8, &ExtractOptions::default()),
            Err(CoreError::SignatureMismatch(_))
        ));
    }
}
