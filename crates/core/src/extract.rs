//! The guided word-level abstraction (Section 5 of the paper).
//!
//! Under RATO every circuit polynomial is `x + tail(x)` with a unique
//! leading variable, so all critical pairs but one are pruned by the
//! product criterion (Lemma 5.1). The surviving pair is
//! `(f_w, f_g)` — the output word definition and the driver of bit `z_0` —
//! and `Spoly(f_w, f_g)` is precisely the first step of dividing `f_w` by
//! `f_g`. The whole abstraction therefore collapses to one normal-form
//! computation:
//!
//! ```text
//! r = NF(f_w  modulo  {gate polynomials} ∪ {input word definitions} ∪ J_0)
//! ```
//!
//! with `J_0` applied eagerly through the Quotient exponent mode.
//!
//! * **Case 1** — `r` contains only word variables: `r = Z + G(A, B, …)`
//!   and `G` is the canonical polynomial (Theorem 4.2 / Corollary 4.1).
//! * **Case 2** — `r` still contains primary-input bits (typical for buggy
//!   circuits). The paper completes it with a reduced Gröbner basis of
//!   `{r, f_wi} ∪ J_0'`, which must contain the unique `Z + G(A, B, …)`.
//!   The query path reaches the same polynomial without one: it
//!   substitutes `a_j = Tr(β_j·A)` for every input bit and reduces the
//!   word exponents ([`crate::case2_by_substitution`]). The paper's route
//!   stays as [`crate::case2_by_groebner`].

use crate::case2::{beyond_k63, case2_by_substitution, Case2Outcome};
use crate::error::CoreError;
use crate::model::{word_function, CircuitModel};
use crate::wordfn::WordFunction;
use gfab_field::budget::{Budget, BudgetSpec, ExhaustedReason};
use gfab_field::GfContext;
use gfab_netlist::Netlist;
use gfab_poly::reduce::Reducer;
use gfab_poly::{Monomial, Poly, PolyError, Ring, VarKind};
use gfab_telemetry::{Counter, Hist, Phase, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for [`extract_word_polynomial_with`].
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Complete Case 2 when the remainder retains primary-input bits, by
    /// dual-basis trace substitution ([`crate::case2_by_substitution`]):
    /// its term products are charged to [`budget`](Self::budget), and when
    /// that runs out, or after [`crate::CASE2_MAX_PRODUCTS`] products, the
    /// extraction returns the residual. Requires `k ≤ 63` (every word
    /// exponent below `q = 2^k` must fit in a `u64`); above that the
    /// residual is returned.
    pub complete_case2: bool,
    /// Worker threads for the parallel phases of the pipeline (hierarchical
    /// block extraction, spec/impl extraction in equivalence checking, and
    /// the sharded simulation sweep). `0` means "use all available
    /// parallelism". Results are bit-identical for every thread count.
    pub threads: usize,
    /// Per-query resource budget (wall-clock deadline and/or work-unit
    /// cap); the deadline is pinned when each query starts. Exhaustion is
    /// not an error: extraction degrades to [`Extraction::TimedOut`] and
    /// equivalence checking to an `Unknown` verdict (or the SAT fallback,
    /// when driven through the `Verifier` ladder).
    pub budget: BudgetSpec,
    /// Telemetry handle under which the extraction records its phase
    /// spans (model build, guided reduction, Case-2 completion, …).
    /// Disabled by default: the off path is a single branch, so tier-1
    /// timings and deterministic fingerprints are unchanged.
    pub telemetry: Telemetry,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            complete_case2: true,
            threads: 0,
            budget: BudgetSpec::none(),
            telemetry: Telemetry::disabled(),
        }
    }
}

impl ExtractOptions {
    /// Returns a copy with the given worker-thread count (`0` = available
    /// parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with the given per-query resource budget.
    pub fn with_budget(mut self, budget: BudgetSpec) -> Self {
        self.budget = budget;
        self
    }

    /// Returns a copy recording spans through the given telemetry handle
    /// (used to re-parent nested extractions under a caller's span).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The effective worker-thread count.
    pub fn effective_threads(&self) -> usize {
        gfab_netlist::sim::resolve_threads(self.threads)
    }

    /// Runs `f` under a labelled `phase` span, with options whose spans
    /// nest beneath it. The span opens whether or not a collector is
    /// attached, so the live event stream sees it either way.
    pub(crate) fn in_span<T>(
        &self,
        phase: Phase,
        label: &str,
        f: impl FnOnce(&ExtractOptions) -> T,
    ) -> T {
        let span = self.telemetry.span_labeled(phase, label);
        let out = f(&self.clone().with_telemetry(span.telemetry()));
        let _ = span.finish();
        out
    }
}

/// Effort statistics of one extraction.
#[derive(Debug, Clone, Default)]
pub struct ExtractionStats {
    /// Gates in the circuit.
    pub gates: usize,
    /// Variables in the RATO ring.
    pub ring_vars: usize,
    /// Leading-term cancellations during the guided reduction.
    pub reduction_steps: u64,
    /// Peak live terms in the working polynomial.
    pub peak_terms: usize,
    /// Coefficient cancellations during the guided reduction (terms that
    /// vanished when equal monomials merged to a zero coefficient).
    pub cancellations: u64,
    /// Terms in the remainder `r`.
    pub remainder_terms: usize,
    /// Whether the Case-2 completion ran.
    pub case2_completion: bool,
    /// Wall-clock time of the whole extraction.
    pub duration: Duration,
    /// Wall-clock time of building the polynomial model (RATO ring, gate
    /// polynomials, word definitions).
    pub model_time: Duration,
    /// Wall-clock time of the guided normal-form reduction.
    pub reduce_time: Duration,
    /// Wall-clock time of the Case-2 completion (zero when it did not run).
    pub case2_time: Duration,
    /// Set when a resource budget cut the extraction short: which phase
    /// was interrupted and which resource ran out.
    pub budget_exhausted: Option<String>,
}

/// The outcome of an extraction.
#[derive(Debug, Clone)]
pub enum Extraction {
    /// The canonical word-level polynomial was identified.
    Canonical(WordFunction),
    /// The remainder retains primary-input bits and no completion was
    /// performed (disabled, too large a field, or resource-limited — see
    /// the accompanying note).
    Residual {
        /// The remainder `r` over the model ring.
        remainder: Poly,
        /// Why no canonical form was produced.
        note: String,
    },
    /// The resource budget ran out mid-phase, before even a residual was
    /// available. A structured partial outcome, not an error: the stats
    /// carry the per-phase accounting up to the interruption.
    TimedOut {
        /// The phase that was interrupted (e.g. [`Phase::GuidedReduction`]).
        phase: Phase,
        /// Which resource ran out.
        reason: ExhaustedReason,
    },
}

impl Extraction {
    /// The one-word outcome shown on result lines, on a query's root
    /// span and in live `query-done` events: `extracted`, `residual` or
    /// `timeout`.
    #[must_use]
    pub fn word(&self) -> &'static str {
        match self {
            Extraction::Canonical(_) => "extracted",
            Extraction::Residual { .. } => "residual",
            Extraction::TimedOut { .. } => "timeout",
        }
    }
}

/// An extraction outcome plus the model it was computed in.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// The circuit's polynomial model (ring, gate polynomials, word maps).
    pub model: CircuitModel,
    /// Canonical polynomial or residual.
    pub outcome: Extraction,
    /// Effort statistics.
    pub stats: ExtractionStats,
}

impl ExtractionResult {
    /// The canonical word function, if one was identified.
    pub fn canonical(&self) -> Option<&WordFunction> {
        match &self.outcome {
            Extraction::Canonical(f) => Some(f),
            Extraction::Residual { .. } | Extraction::TimedOut { .. } => None,
        }
    }

    /// How the extraction ended, as a query's root span names it:
    /// `case1` (the guided reduction alone reached the canonical form),
    /// `case2` (the Case-2 completion did), `residual` or `timed-out`.
    #[must_use]
    pub fn case(&self) -> &'static str {
        match (&self.outcome, self.stats.case2_completion) {
            (Extraction::Canonical(_), false) => "case1",
            (Extraction::Canonical(_), true) => "case2",
            (Extraction::Residual { .. }, _) => "residual",
            (Extraction::TimedOut { .. }, _) => "timed-out",
        }
    }

    /// The Case-2 residual, if no canonical form was produced.
    pub fn residual(&self) -> Option<&Poly> {
        match &self.outcome {
            Extraction::Residual { remainder, .. } => Some(remainder),
            Extraction::Canonical(_) | Extraction::TimedOut { .. } => None,
        }
    }
}

/// Extracts the canonical word-level polynomial `Z = F(A, B, …)` from a
/// gate-level netlist with default options.
///
/// # Errors
///
/// See [`extract_word_polynomial_with`].
pub fn extract_word_polynomial(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
) -> Result<ExtractionResult, CoreError> {
    extract_word_polynomial_with(nl, ctx, &ExtractOptions::default())
}

/// Extracts the canonical word-level polynomial with explicit options.
///
/// # Errors
///
/// * [`CoreError::Netlist`] / [`CoreError::WidthMismatch`] from model
///   construction;
/// * [`CoreError::Poly`] on exponent overflow (pathological inputs).
///
/// A Case-2 circuit whose completion is disabled or resource-limited is
/// **not** an error: the result carries the residual.
pub fn extract_word_polynomial_with(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
) -> Result<ExtractionResult, CoreError> {
    extract_word_polynomial_budgeted(nl, ctx, options, &options.budget.start())
}

/// [`extract_word_polynomial_with`] under an already-running cooperative
/// [`Budget`] — the entry point used when one budget spans several
/// extractions (both sides of an equivalence query, all blocks of a
/// hierarchical design). The budget is polled in the division hot loop
/// and throughout the Case-2 completion; exhaustion mid-reduction yields
/// [`Extraction::TimedOut`], exhaustion during Case 2 a residual.
///
/// # Errors
///
/// * [`CoreError::Netlist`] / [`CoreError::WidthMismatch`] from model
///   construction;
/// * [`CoreError::BudgetExhausted`] when the budget is already spent
///   before the model exists (no partial result to return);
/// * [`CoreError::Poly`] on exponent overflow (pathological inputs).
pub fn extract_word_polynomial_budgeted(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
    budget: &Budget,
) -> Result<ExtractionResult, CoreError> {
    let start = Instant::now();
    let tele = &options.telemetry;
    // Phase spans are the single timing source: each stats duration below
    // is the value returned by `Span::finish`, not a second clock.
    let mut model_span = tele.span(Phase::ModelBuild);
    let model = CircuitModel::build_budgeted(nl, ctx, budget)?;
    model_span.counter(Counter::Gates, nl.num_gates() as u64);
    if model.absorbed_gates() > 0 {
        model_span.counter(Counter::AbsorbedGates, model.absorbed_gates() as u64);
    }
    let mut stats = ExtractionStats {
        gates: nl.num_gates(),
        ring_vars: model.ring.num_vars(),
        model_time: model_span.finish(),
        ..ExtractionStats::default()
    };

    // The guided reduction: one normal form of f_w against F ∪ J_0.
    let mut reduce_span = tele.span(Phase::GuidedReduction);
    let reducer = Reducer::new(&model.ring, model.divisors());
    let (r, rstats) = match reducer.normal_form_budgeted(&model.output_word_poly, budget) {
        Ok(ok) => ok,
        Err(PolyError::BudgetExceeded(e)) => {
            // Graceful degradation: the interruption is a structured
            // outcome carrying per-phase accounting, not an error.
            stats.reduce_time = reduce_span.finish();
            stats.budget_exhausted = Some(format!("{}: {}", Phase::GuidedReduction, e.reason));
            stats.duration = start.elapsed();
            return Ok(ExtractionResult {
                model,
                outcome: Extraction::TimedOut {
                    phase: Phase::GuidedReduction,
                    reason: e.reason,
                },
                stats,
            });
        }
        Err(e) => return Err(e.into()),
    };
    reduce_span.counter(Counter::ReductionSteps, rstats.steps);
    reduce_span.counter(Counter::PeakTerms, rstats.peak_terms as u64);
    reduce_span.counter(Counter::Cancellations, rstats.cancellations);
    reduce_span.counter(Counter::BudgetPolls, rstats.polls);
    reduce_span.counter(Counter::RemainderTerms, r.num_terms() as u64);
    reduce_span.counter(Counter::CoeffMuls, rstats.kernel.coeff_muls);
    reduce_span.counter(Counter::CoeffSquares, rstats.kernel.coeff_squares);
    reduce_span.counter(Counter::ReductionFolds, rstats.kernel.reduction_folds);
    reduce_span.counter(Counter::CoeffsInline, rstats.kernel.inline_results);
    reduce_span.counter(Counter::CoeffsHeap, rstats.kernel.heap_results);
    reduce_span.counter(Counter::SpilledTerms, rstats.spilled_terms);
    reduce_span.observe(Hist::DivisionChainLen, rstats.steps);
    reduce_span.observe_hist(Hist::ReductionPolySize, &rstats.size_hist);
    stats.reduce_time = reduce_span.finish();
    stats.reduction_steps = rstats.steps;
    stats.peak_terms = rstats.peak_terms;
    stats.cancellations = rstats.cancellations;
    stats.remainder_terms = r.num_terms();

    let has_bits = r
        .variables()
        .iter()
        .any(|&v| model.ring.var_info(v).kind == VarKind::Bit);

    let outcome = if !has_bits {
        // Case 1: r = Z + G(A, B, …).
        let (ring, z, inputs) = (&model.ring, model.z_var, &model.input_vars);
        Extraction::Canonical(word_function(ring, z, inputs, std::slice::from_ref(&r))?)
    } else if !options.complete_case2 {
        Extraction::Residual {
            remainder: r,
            note: "case-2 completion disabled".into(),
        }
    } else if ctx.order_u64().is_none() {
        Extraction::Residual {
            remainder: r,
            note: beyond_k63(ctx),
        }
    } else {
        stats.case2_completion = true;
        let mut case2_span = tele.span(Phase::Case2Completion);
        let (case2, products) = case2_by_substitution(&model, &r, budget)?;
        case2_span.counter(Counter::TermProducts, products);
        stats.case2_time = case2_span.finish();
        match case2 {
            Case2Outcome::Canonical(f) => Extraction::Canonical(f),
            Case2Outcome::GaveUp(note) => {
                if let Some(reason) = budget.exhausted() {
                    stats.budget_exhausted = Some(format!("{}: {reason}", Phase::Case2Completion));
                }
                Extraction::Residual { remainder: r, note }
            }
        }
    };

    stats.duration = start.elapsed();
    Ok(ExtractionResult {
        model,
        outcome,
        stats,
    })
}

/// Reduces an arbitrary polynomial to its canonical exponent form in a
/// Quotient-mode ring (helper shared with the interpolation oracle).
pub(crate) fn quotient_normalize(ring: &Ring, p: &Poly) -> Poly {
    Poly::from_terms(
        p.terms()
            .iter()
            .map(|(m, c)| {
                let reduced = Monomial::from_factors(
                    m.factors()
                        .iter()
                        .map(|&(v, e)| {
                            let e = match ring.var_info(v).kind {
                                VarKind::Bit => e.min(1),
                                VarKind::Word => ring.reduce_word_exponent(e),
                            };
                            (v, e)
                        })
                        .collect(),
                );
                (reduced, c.clone())
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_field::Gf2Poly;
    use gfab_netlist::{GateKind, NetId};
    use gfab_poly::VarId;

    fn f4() -> Arc<GfContext> {
        GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap()
    }

    /// The Fig. 2 multiplier.
    fn fig2() -> Netlist {
        let mut nl = Netlist::new("fig2");
        let a = nl.add_input_word("A", 2);
        let b = nl.add_input_word("B", 2);
        let s0 = nl.and(a[0], b[0]);
        let s1 = nl.and(a[0], b[1]);
        let s2 = nl.and(a[1], b[0]);
        let s3 = nl.and(a[1], b[1]);
        let r0 = nl.xor(s1, s2);
        let z0 = nl.xor(s0, s3);
        let z1 = nl.xor(r0, s3);
        nl.set_output_word("Z", vec![z0, z1]);
        nl
    }

    #[test]
    fn example_5_1_correct_circuit_gives_z_plus_ab() {
        // Example 5.1 (correct circuit): r = Z + A·B, i.e. F = A·B.
        let ctx = f4();
        let result = extract_word_polynomial(&fig2(), &ctx).unwrap();
        let f = result.canonical().expect("Case 1");
        assert_eq!(format!("{}", f.display()), "A*B");
        assert!(!result.stats.case2_completion);
    }

    #[test]
    fn example_5_1_buggy_circuit_matches_paper() {
        // Example 5.1 (bug injected): replace f8 : r0 = s1 + s2 by
        // r0 = s0 + s2. The paper derives the buggy canonical polynomial
        //   Z + α·A²B² + A²B + (α+1)·A·B² + (α+1)·A·B.
        let ctx = f4();
        let mut nl = fig2();
        let r0_gate = gfab_netlist::GateId(4);
        let s0_net = nl.gate(gfab_netlist::GateId(0)).output;
        gfab_netlist::mutate::swap_wire(&mut nl, r0_gate, 0, s0_net);

        let result = extract_word_polynomial(&nl, &ctx).unwrap();
        assert!(result.stats.case2_completion, "bug forces Case 2");
        let f = result.canonical().expect("completion succeeds on F_4");

        // Build the paper's polynomial: α·A²B² + A²B + (α+1)·AB² + (α+1)·AB.
        let alpha = ctx.alpha();
        let a1 = ctx.add(&alpha, &ctx.one());
        let (a, b) = (VarId(0), VarId(1));
        let expected = Poly::from_terms(vec![
            (Monomial::from_factors(vec![(a, 2), (b, 2)]), alpha.clone()),
            (Monomial::from_factors(vec![(a, 2), (b, 1)]), ctx.one()),
            (Monomial::from_factors(vec![(a, 1), (b, 2)]), a1.clone()),
            (Monomial::from_factors(vec![(a, 1), (b, 1)]), a1),
        ]);
        assert_eq!(
            f.poly(),
            &expected,
            "got {} (paper Example 5.1)",
            f.display()
        );
    }

    #[test]
    fn canonical_function_agrees_with_simulation_exhaustively() {
        let ctx = f4();
        let nl = fig2();
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                let sim = gfab_netlist::sim::simulate_word(&nl, &ctx, &[a.clone(), b.clone()]);
                assert_eq!(f.eval(&[a.clone(), b.clone()]), sim);
            }
        }
    }

    #[test]
    fn buggy_case2_function_agrees_with_simulation() {
        let ctx = f4();
        for seed in 0..8 {
            let (bad, what) = gfab_netlist::mutate::inject_random_bug(&fig2(), seed);
            let result = extract_word_polynomial(&bad, &ctx).unwrap();
            let f = result
                .canonical()
                .unwrap_or_else(|| panic!("completion must succeed on F_4 ({what})"));
            for a in ctx.iter_elements() {
                for b in ctx.iter_elements() {
                    let sim = gfab_netlist::sim::simulate_word(&bad, &ctx, &[a.clone(), b.clone()]);
                    assert_eq!(f.eval(&[a.clone(), b.clone()]), sim, "seed {seed}: {what}");
                }
            }
        }
    }

    #[test]
    fn residual_mode_reports_case2_without_completing() {
        let ctx = f4();
        let mut nl = fig2();
        gfab_netlist::mutate::swap_gate_kind(&mut nl, gfab_netlist::GateId(4), GateKind::Or);
        let opts = ExtractOptions {
            complete_case2: false,
            ..ExtractOptions::default()
        };
        let result = extract_word_polynomial_with(&nl, &ctx, &opts).unwrap();
        let res = result.residual().expect("residual kept");
        assert!(res.num_terms() > 0);
        assert!(matches!(
            &result.outcome,
            Extraction::Residual { note, .. } if note.contains("disabled")
        ));
    }

    #[test]
    fn single_input_circuits_work() {
        // Z = NOT applied bitwise: Z = A + (1 + α) … actually per-bit NOT
        // is Z = A + (1 + α + … + α^{k-1}).
        let ctx = f4();
        let mut nl = Netlist::new("inv");
        let a = nl.add_input_word("A", 2);
        let z0 = nl.not(a[0]);
        let z1 = nl.not(a[1]);
        nl.set_output_word("Z", vec![z0, z1]);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        let ones = ctx.add(&ctx.one(), &ctx.alpha());
        for a in ctx.iter_elements() {
            assert_eq!(f.eval(std::slice::from_ref(&a)), ctx.add(&a, &ones));
        }
    }

    #[test]
    fn constant_circuit_extracts_constant() {
        let ctx = f4();
        let mut nl = Netlist::new("const");
        nl.add_input_word("A", 2);
        let c0 = nl.constant(true);
        let c1 = nl.constant(false);
        nl.set_output_word("Z", vec![c0, c1]);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        assert_eq!(f.num_terms(), 1);
        for a in ctx.iter_elements() {
            assert_eq!(f.eval(std::slice::from_ref(&a)), ctx.one());
        }
    }

    #[test]
    fn output_bound_directly_to_input_net() {
        // Identity circuit: output word IS the input nets (plus one buffer
        // to exercise mixed binding).
        let ctx = f4();
        let mut nl = Netlist::new("id");
        let a = nl.add_input_word("A", 2);
        let z1 = nl.add_gate(GateKind::Buf, &[a[1]]);
        nl.set_output_word("Z", vec![a[0], z1]);
        let f = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        for a in ctx.iter_elements() {
            assert_eq!(f.eval(std::slice::from_ref(&a)), a);
        }
        let _ = NetId(0);
    }
}
