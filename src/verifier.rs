//! The unified verification session API.
//!
//! [`Verifier`] is a small builder that bundles a field context with an
//! [`ExtractOptions`] configuration (thread count, resource budget,
//! Case-2 completion, …) and exposes the whole abstraction/equivalence surface behind
//! two methods, each taking a flat netlist or a hierarchical design as a
//! [`Circuit`]:
//!
//! * [`Verifier::extract`] — gate-level → word-level abstraction;
//! * [`Verifier::check`] — equivalence of a flat spec against a flat or
//!   hierarchical implementation through the one ladder of
//!   [`check_equivalence_budgeted_with`], with a SAT fallback rung when
//!   the word level cannot decide.
//!
//! ```
//! use gfab::field::{GfContext, Gf2Poly};
//! use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
//! use gfab::Verifier;
//!
//! let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
//! let v = Verifier::new(&ctx).threads(2);
//!
//! // Extraction: flat netlists and hierarchical designs take the same call.
//! let mult = mastrovito_multiplier(&ctx);
//! let f = v.extract(&mult).unwrap();
//! assert_eq!(format!("{}", f.function().unwrap().display()), "A*B");
//!
//! let mont = montgomery_multiplier_hier(&ctx);
//! let g = v.extract(&mont).unwrap();
//! assert!(f.function().unwrap().matches(g.function().unwrap()));
//!
//! // Equivalence: Mastrovito spec vs. hierarchical Montgomery impl.
//! let report = v.check(&mult, &mont).unwrap();
//! assert!(report.verdict.is_equivalent());
//! ```

use crate::core::equiv::{check_equivalence_budgeted_with, EquivReport, SatStats, Verdict};
use crate::core::hier::{extract_hierarchical_budgeted_with, HierExtraction};
pub use crate::core::Circuit;
use crate::core::{
    CoreError, DirectExtract, ExtractOptions, ExtractProvider, ExtractionResult, ExtractionStats,
    WordFunction,
};
use crate::field::budget::{Budget, BudgetObserver, BudgetSpec};
use crate::field::{Gf, GfContext};
use crate::netlist::Netlist;
use crate::sat::equiv::{check_equivalence_sat_traced, SatVerdict};
use crate::telemetry::{Attr, Collector, EventBus, EventKind, Phase, Span, Telemetry, Trace};
use std::sync::Arc;
use std::time::Duration;

/// Work-unit cadence of live budget-drain events: one
/// [`EventKind::BudgetTick`] each time the query's charged work crosses
/// a multiple of this stride.
const BUDGET_EVENT_STRIDE: u64 = 2048;

/// The [`BudgetObserver`] → [`EventBus`] adapter. It lives here rather
/// than in `gfab_field` because both `gfab-field` and `gfab-telemetry`
/// are deliberately dependency-free leaf crates; the binary layer is
/// the first place that sees both.
struct BudgetEvents(EventBus);

impl BudgetObserver for BudgetEvents {
    fn budget_tick(&self, work_done: u64, remaining: Option<Duration>) {
        self.0.publish(EventKind::BudgetTick {
            work_done,
            remaining_us: remaining.map(|r| r.as_micros().min(u128::from(u64::MAX)) as u64),
        });
    }
}

/// The extraction outcome of [`Verifier::extract`], covering both the
/// flat and the hierarchical flow.
#[derive(Debug, Clone)]
pub enum ExtractOutcome {
    /// Result of extracting a flat netlist (may be a Case-2 residual).
    /// Boxed: flat results carry the full residual/stats payload and would
    /// otherwise dwarf the hierarchical variant.
    Flat(Box<ExtractionResult>),
    /// Result of extracting a hierarchical design (always canonical —
    /// composition requires canonical block polynomials).
    Hier(HierExtraction),
}

/// The result of [`Verifier::extract`]: the extraction outcome plus, when
/// the session has [`Verifier::trace`] enabled, the telemetry span tree
/// of the query.
#[derive(Debug, Clone)]
pub struct ExtractReport {
    /// What the extraction produced.
    pub outcome: ExtractOutcome,
    /// The query's span tree (`None` unless tracing is enabled).
    pub trace: Option<Trace>,
}

impl ExtractReport {
    /// The canonical word-level function `Z = F(A, B, …)`, if one was
    /// reached (`None` when a flat extraction ended in a Case-2 residual).
    pub fn function(&self) -> Option<&WordFunction> {
        match &self.outcome {
            ExtractOutcome::Flat(r) => r.canonical(),
            ExtractOutcome::Hier(h) => Some(&h.function),
        }
    }

    /// Extraction statistics: the flat stats, or the aggregate over all
    /// blocks of a hierarchical design ([`HierExtraction::stats`]).
    pub fn stats(&self) -> ExtractionStats {
        match &self.outcome {
            ExtractOutcome::Flat(r) => r.stats.clone(),
            ExtractOutcome::Hier(h) => h.stats(),
        }
    }

    /// The flat extraction result, if this report came from a flat netlist.
    pub fn as_flat(&self) -> Option<&ExtractionResult> {
        match &self.outcome {
            ExtractOutcome::Flat(r) => Some(r),
            ExtractOutcome::Hier(_) => None,
        }
    }

    /// The hierarchical extraction, if this report came from a design.
    pub fn as_hier(&self) -> Option<&HierExtraction> {
        match &self.outcome {
            ExtractOutcome::Flat(_) => None,
            ExtractOutcome::Hier(h) => Some(h),
        }
    }
}

/// A verification session: a field context plus extraction configuration,
/// built in fluent style and reused across any number of
/// [`extract`](Verifier::extract) / [`check`](Verifier::check) calls.
#[derive(Clone)]
pub struct Verifier {
    ctx: Arc<GfContext>,
    options: ExtractOptions,
    sat_conflicts: u64,
    trace: bool,
    mem_stats: bool,
    events: EventBus,
    provider: Option<Arc<dyn ExtractProvider>>,
}

impl std::fmt::Debug for Verifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Verifier")
            .field("ctx", &self.ctx)
            .field("options", &self.options)
            .field("sat_conflicts", &self.sat_conflicts)
            .field("trace", &self.trace)
            .field("mem_stats", &self.mem_stats)
            .field("events", &self.events.is_enabled())
            .field("provider", &self.provider.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl Verifier {
    /// Starts a session over the given field with default options
    /// (thread count = available parallelism, no resource budget,
    /// tracing off).
    pub fn new(ctx: &Arc<GfContext>) -> Self {
        Verifier {
            ctx: ctx.clone(),
            options: ExtractOptions::default(),
            sat_conflicts: 1_000_000,
            trace: false,
            mem_stats: false,
            events: EventBus::default(),
            provider: None,
        }
    }

    /// Publishes live events (phase enter/exit with work units,
    /// budget-drain ticks) into `bus` while queries run — the
    /// channel behind `--progress` and `--events`. Publishing is
    /// non-blocking and display-only: it never perturbs deterministic
    /// work-unit counters or verdicts. Off by default.
    #[must_use]
    pub fn events(mut self, bus: &EventBus) -> Self {
        self.events = bus.clone();
        self
    }

    /// Enables per-query telemetry: every [`extract`](Verifier::extract) /
    /// [`check`](Verifier::check) call records a span tree (phase
    /// durations, per-block spans, effort counters) surfaced on the
    /// report's `trace` field. Off by default — the disabled path is a
    /// single branch per phase, so untraced runs pay nothing.
    #[must_use]
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Enables per-phase memory accounting for traced queries: every span
    /// additionally records live-bytes peak, total bytes allocated and
    /// allocation count as gauges (shown by `--stats`/`--trace` and
    /// serialized into the JSONL trace).
    ///
    /// Accounting needs the process's global allocator to be instrumented
    /// (the `gfab` binary installs [`mem`](crate::telemetry::mem)-aware
    /// hooks). Without such hooks this knob records
    /// all-zero gauges. It has no effect unless [`trace`](Verifier::trace)
    /// is also enabled, and untracked runs pay a single relaxed atomic
    /// load per allocation — nothing else.
    #[must_use]
    pub fn mem_stats(mut self, enabled: bool) -> Self {
        self.mem_stats = enabled;
        self
    }

    /// Sets the worker-thread budget (`0` = available parallelism, `1` =
    /// fully serial). Parallel runs produce bit-identical results to
    /// serial ones.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Sets a wall-clock deadline per [`check`](Verifier::check) /
    /// [`extract`](Verifier::extract) query. The clock starts when the
    /// query starts, and every pipeline phase (guided reduction, Case-2
    /// completion, hierarchical blocks, simulation sweeps, the SAT
    /// fallback) polls it cooperatively. In [`check`](Verifier::check),
    /// the word-level phase is given *half* the deadline so the SAT
    /// fallback rung is guaranteed room to run.
    #[must_use]
    pub fn deadline(mut self, wall: Duration) -> Self {
        self.options.budget.wall = Some(wall);
        self
    }

    /// Caps the word-level algebraic work per query, measured in division
    /// iterations / Gröbner pair reductions. Unlike a wall-clock deadline,
    /// a work cap is fully deterministic: whether it trips depends only on
    /// the total work a query needs, never on thread count or machine
    /// speed.
    ///
    /// The guided reduction charges and polls the cap once every 1,024
    /// division iterations (`BUDGET_STRIDE` in `gfab_poly::reduce`), so a
    /// normal form shorter than that runs to its end under any cap, and a
    /// cap below 1,024 acts as 1,024 at each poll site. ROADMAP.md item 3
    /// records this. The k = 5 Mastrovito multiplier against the
    /// flattened Montgomery multiplier (56 and 191 division steps) is
    /// still decided at the word level under a cap of one unit:
    ///
    /// ```
    /// use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
    /// use gfab::core::equiv::Verdict;
    /// use gfab::field::{nist::irreducible_polynomial, GfContext};
    /// use gfab::Verifier;
    ///
    /// let ctx = GfContext::shared(irreducible_polynomial(5).unwrap()).unwrap();
    /// let spec = mastrovito_multiplier(&ctx);
    /// let impl_ = montgomery_multiplier_hier(&ctx).flatten();
    /// let report = Verifier::new(&ctx).work_cap(1).check(&spec, &impl_).unwrap();
    /// assert!(matches!(report.verdict, Verdict::Equivalent { .. }));
    /// ```
    #[must_use]
    pub fn work_cap(mut self, units: u64) -> Self {
        self.options.budget.work = Some(units);
        self
    }

    /// Sets the conflict cap of the SAT fallback rung of
    /// [`check`](Verifier::check) (default one million, matching the
    /// `gfab sat-equiv` CLI default).
    #[must_use]
    pub fn sat_conflicts(mut self, conflicts: u64) -> Self {
        self.sat_conflicts = conflicts;
        self
    }

    /// Replaces the whole [`ExtractOptions`] block (Case-2 completion,
    /// budget, telemetry, …) for full control.
    #[must_use]
    pub fn options(mut self, options: ExtractOptions) -> Self {
        self.options = options;
        self
    }

    /// Routes every flat extraction (per side, per hierarchical block)
    /// through the given [`ExtractProvider`] — the hook `gfab::Engine`
    /// uses to share an artifact cache across a whole batch. Providers
    /// must honour the determinism contract documented on the trait;
    /// `None` (the default) extracts directly.
    #[must_use]
    pub fn extract_provider(mut self, provider: Arc<dyn ExtractProvider>) -> Self {
        self.provider = Some(provider);
        self
    }

    /// The session's field context.
    pub fn ctx(&self) -> &Arc<GfContext> {
        &self.ctx
    }

    /// The session's extraction options.
    pub fn extract_options(&self) -> &ExtractOptions {
        &self.options
    }

    /// Starts a fresh per-query collector when tracing is enabled; returns
    /// the collector (for the final snapshot), the options to run the
    /// query with, and — when memory accounting is on — the RAII guard
    /// that keeps allocator tracking alive for the query's duration.
    fn query_setup(
        &self,
    ) -> (
        Option<Arc<Collector>>,
        ExtractOptions,
        Option<crate::telemetry::mem::MemGuard>,
    ) {
        if self.trace {
            let collector = Collector::new();
            let options = self
                .options
                .clone()
                .with_telemetry(Telemetry::attached(&collector).with_events(&self.events));
            let mem = self.mem_stats.then(crate::telemetry::mem::track);
            (Some(collector), options, mem)
        } else if self.events.is_enabled() {
            // Events without tracing: spans still open (for live phase
            // publishing) but record nothing.
            let options = self
                .options
                .clone()
                .with_telemetry(Telemetry::disabled().with_events(&self.events));
            (None, options, None)
        } else {
            (None, self.options.clone(), None)
        }
    }

    /// Attaches the live budget-drain observer to a freshly started
    /// query budget when events are on (the identity otherwise).
    fn observed(&self, budget: Budget) -> Budget {
        if self.events.is_enabled() {
            budget.with_observer(
                Arc::new(BudgetEvents(self.events.clone())),
                BUDGET_EVENT_STRIDE,
            )
        } else {
            budget
        }
    }

    /// Abstracts a circuit to its word-level polynomial. Accepts a flat
    /// [`Netlist`] or a hierarchical
    /// [`HierDesign`](crate::netlist::hierarchy::HierDesign) (blocks extracted
    /// concurrently, then composed at word level). With tracing on, the
    /// root `extract` span names the `verdict` and the `case` the
    /// extraction ended in.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] from the underlying extraction.
    pub fn extract<'a>(&self, circuit: impl Into<Circuit<'a>>) -> Result<ExtractReport, CoreError> {
        let circuit = circuit.into();
        let (collector, mut options, _mem) = self.query_setup();
        let name = match circuit {
            Circuit::Flat(nl) => nl.name().to_string(),
            Circuit::Hier(design) => design.name.clone(),
        };
        let mut root = options.telemetry.span_labeled(Phase::Extract, &name);
        options.telemetry = root.telemetry();
        let provider = self.provider.as_deref().unwrap_or(&DirectExtract);
        let budget = self.observed(options.budget.start());
        let outcome = match circuit {
            Circuit::Flat(nl) => provider
                .extract(nl, &self.ctx, &options, &budget)
                .map(|r| ExtractOutcome::Flat(Box::new(r))),
            Circuit::Hier(design) => {
                extract_hierarchical_budgeted_with(provider, design, &self.ctx, &options, &budget)
                    .map(ExtractOutcome::Hier)
            }
        };
        if let (true, Ok(outcome)) = (root.is_enabled(), &outcome) {
            let (verdict, case) = match outcome {
                ExtractOutcome::Flat(r) => (r.outcome.word(), r.case()),
                ExtractOutcome::Hier(h) => ("extracted", h.case()),
            };
            root.attr(Attr::Verdict, verdict);
            root.attr(Attr::Case, case);
        }
        let _ = root.finish();
        let outcome = outcome?;
        Ok(ExtractReport {
            outcome,
            trace: collector.map(|c| c.snapshot()),
        })
    }

    /// Checks a flat spec netlist against a flat or hierarchical
    /// implementation. The two sides are extracted concurrently when the
    /// thread budget allows, and the verdict carries counterexamples on
    /// inequivalence.
    ///
    /// When the word-level pipeline cannot decide — a Case-2 residual on a
    /// large field, or budget exhaustion — the query automatically falls
    /// back to the SAT miter check with whatever wall clock remains of the
    /// session budget, so every query yields a *sound* verdict: proven
    /// equivalent, refuted with a counterexample, or `Unknown` naming the
    /// exhausted resource.
    ///
    /// With tracing on, the root `check` span names the outcome in its
    /// attributes: the `verdict`, the `rung` that decided (`pre-check`,
    /// `word`, `refute`, `sat` or `none`), how the `spec` and `impl`
    /// extractions ended ([`EquivReport::cases`]) and, when there is a
    /// counterexample, where it came from (`cex`).
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] from the underlying extraction (budget exhaustion
    /// is *not* an error here: it degrades into the SAT fallback).
    pub fn check<'a>(
        &self,
        spec: &Netlist,
        impl_: impl Into<Circuit<'a>>,
    ) -> Result<EquivReport, CoreError> {
        let impl_ = impl_.into();
        let (collector, mut options, _mem) = self.query_setup();
        let root = options.telemetry.span_labeled(Phase::Check, spec.name());
        options.telemetry = root.telemetry();
        let finish = |mut root: Span, mut report: EquivReport| {
            if root.is_enabled() {
                record_outcome(&mut root, &report);
            }
            let _ = root.finish();
            report.trace = collector.as_ref().map(|c| c.snapshot());
            Ok(report)
        };
        // The full budget spans the whole ladder; the word-level phase is
        // run under half the wall clock so the SAT fallback always has
        // room. Work caps bound only the word-level algebra (the SAT rung
        // polls wall/cancellation, keeping work-cap runs deterministic).
        let spec_budget = self.options.budget;
        // The SAT rung shares the wall clock but gets its own cancellation
        // flag and no work cap: a tripped word-level cap must not poison
        // the fallback that exists to absorb it.
        let sat_budget = self.observed(
            BudgetSpec {
                work: None,
                ..spec_budget
            }
            .start(),
        );
        let word_budget = self.observed(match spec_budget.wall {
            Some(w) => BudgetSpec {
                wall: Some(w / 2),
                ..spec_budget
            }
            .start(),
            None => spec_budget.start(),
        });
        let provider = self.provider.as_deref().unwrap_or(&DirectExtract);
        let word = check_equivalence_budgeted_with(
            provider,
            spec,
            impl_,
            &self.ctx,
            &options,
            &word_budget,
        );
        let (word_report, reason) = match word {
            Ok(r) => match &r.verdict {
                Verdict::Unknown { reason } => {
                    let reason = reason.clone();
                    (Some(r), reason)
                }
                _ => return finish(root, r),
            },
            Err(e @ CoreError::BudgetExhausted { .. }) => (None, e.to_string()),
            Err(e) => return Err(e),
        };
        // SAT fallback rung: the miter decides what the word level could
        // not, on flattened netlists, under the remaining wall clock.
        let flat_impl;
        let impl_nl: &Netlist = match impl_ {
            Circuit::Flat(nl) => nl,
            Circuit::Hier(design) => {
                flat_impl = design.flatten();
                &flat_impl
            }
        };
        let sat = check_equivalence_sat_traced(
            spec,
            impl_nl,
            self.sat_conflicts,
            &sat_budget,
            &options.telemetry,
        );
        let verdict = match sat.verdict {
            SatVerdict::Equivalent => Verdict::EquivalentBySat {
                conflicts: sat.stats.conflicts,
            },
            SatVerdict::Counterexample(bits) => Verdict::InequivalentBySat {
                counterexample: input_words_from_bits(&self.ctx, spec, &bits),
                conflicts: sat.stats.conflicts,
            },
            SatVerdict::Unknown(i) => Verdict::Unknown {
                reason: format!("{reason}; SAT fallback also inconclusive: {i}"),
            },
        };
        // A word level that stopped on its budget before either side
        // returned leaves both sides timed out.
        let (spec_stats, impl_stats, cases) = match word_report {
            Some(r) => (r.spec_stats, r.impl_stats, r.cases),
            None => (Default::default(), Default::default(), ["timed-out"; 2]),
        };
        let report = EquivReport {
            verdict,
            spec_stats,
            impl_stats,
            cases,
            sat: Some(SatStats {
                conflicts: sat.stats.conflicts,
                decisions: sat.stats.decisions,
                propagations: sat.stats.propagations,
                restarts: sat.stats.restarts,
                learned: sat.stats.learned,
                cnf_vars: sat.cnf_vars as usize,
                cnf_clauses: sat.cnf_clauses,
            }),
            trace: None,
        };
        finish(root, report)
    }
}

/// Names a check's outcome on its root span: the verdict, the rung of
/// the ladder that decided, how each side's extraction ended, and where
/// a counterexample came from.
fn record_outcome(root: &mut Span, report: &EquivReport) {
    let [spec, impl_] = report.cases;
    let (rung, cex) = match &report.verdict {
        Verdict::Inequivalent {
            spec: f,
            counterexample: Some(_),
            ..
        } => (
            "word",
            Some(if f.exhaustive_search() {
                "exhaustive"
            } else {
                "sampled"
            }),
        ),
        Verdict::InequivalentBySimulation { .. } if spec == "not-run" => {
            ("pre-check", Some("pre-check"))
        }
        Verdict::InequivalentBySimulation { .. } => ("refute", Some("refute")),
        v => (v.method(), v.counterexample().map(|_| v.method())),
    };
    root.attr(Attr::Verdict, report.verdict.word());
    root.attr(Attr::Rung, rung);
    root.attr(Attr::Spec, spec);
    root.attr(Attr::Impl, impl_);
    if let Some(cex) = cex {
        root.attr(Attr::Cex, cex);
    }
}

/// Decodes a SAT counterexample (all primary input bits, word declaration
/// order, LSB first) into one field element per input word.
fn input_words_from_bits(ctx: &GfContext, spec: &Netlist, bits: &[bool]) -> Vec<Gf> {
    let mut out = Vec::new();
    let mut off = 0;
    for w in spec.input_words() {
        out.push(ctx.from_bits(&bits[off..off + w.width()]));
        off += w.width();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
    use crate::field::nist::irreducible_polynomial;
    use crate::netlist::mutate::inject_random_bug;

    fn f16() -> Arc<GfContext> {
        GfContext::shared(irreducible_polynomial(4).unwrap()).unwrap()
    }

    #[test]
    fn extract_dispatches_on_argument_type() {
        let ctx = f16();
        let v = Verifier::new(&ctx);
        let flat = v.extract(&mastrovito_multiplier(&ctx)).unwrap();
        assert!(flat.as_flat().is_some());
        assert_eq!(format!("{}", flat.function().unwrap().display()), "A*B");
        let hier = v.extract(&montgomery_multiplier_hier(&ctx)).unwrap();
        assert!(hier.as_hier().is_some());
        assert_eq!(format!("{}", hier.function().unwrap().display()), "A*B");
    }

    #[test]
    fn check_flat_and_hier() {
        let ctx = f16();
        let v = Verifier::new(&ctx).threads(2);
        let spec = mastrovito_multiplier(&ctx);
        let report = v.check(&spec, &montgomery_multiplier_hier(&ctx)).unwrap();
        assert!(report.verdict.is_equivalent());
        let (buggy, _) = inject_random_bug(&spec, 1);
        let report = v.check(&spec, &buggy).unwrap();
        assert!(!report.verdict.is_equivalent());
    }

    #[test]
    fn hier_stats_aggregate_blocks() {
        let ctx = GfContext::shared(irreducible_polynomial(8).unwrap()).unwrap();
        let design = montgomery_multiplier_hier(&ctx);
        let v = Verifier::new(&ctx);
        let stats = v.extract(&design).unwrap().stats();
        assert!(stats.gates > 0);
        assert!(stats.reduction_steps > 0);
        assert!(stats.cancellations > 0);
        // An equivalence check reports the same aggregate for its impl.
        let report = v.check(&mastrovito_multiplier(&ctx), &design).unwrap();
        let checked = &report.impl_stats;
        assert_eq!(
            (checked.gates, checked.reduction_steps),
            (stats.gates, stats.reduction_steps)
        );
        assert_eq!(
            (checked.cancellations, checked.peak_terms),
            (stats.cancellations, stats.peak_terms)
        );
    }
}
