//! Structured tracing for the GFAB verification pipeline.
//!
//! The pipeline spends its time in a handful of long-running phases —
//! circuit-model construction, the RATO guided-reduction division chain,
//! Buchberger completion, simulation sweeps, Tseitin encoding and CDCL
//! search — and this crate gives every one of them a uniform accounting
//! vocabulary:
//!
//! * [`Phase`] — the closed set of pipeline phases. The same enum names
//!   phases in telemetry spans, in budget-exhaustion errors
//!   (`CoreError::BudgetExhausted`) and in timed-out extraction outcomes,
//!   so a phase is spelled identically everywhere it can appear.
//! * [`Counter`] — typed work counters (division steps, S-polynomials,
//!   conflicts, …) attached to the span that performed the work.
//! * [`Telemetry`] / [`Span`] — a cheaply cloneable handle that either
//!   records hierarchical spans into a [`Collector`] or does nothing at
//!   all. The disabled path is a single branch on an `Option`, so code
//!   instrumented with spans costs nothing measurable when tracing is off.
//! * [`Trace`] — the queryable span tree snapshot: per-phase totals,
//!   parent/child navigation, a human-readable renderer (the CLI
//!   `--trace` / `--stats` table) and a line-delimited JSON codec (the
//!   CLI `--trace-json` sink) with a strict, tested schema.
//!
//! # Span model
//!
//! A span is one timed region of one phase on one thread: it records a
//! monotonic start offset (relative to the collector's epoch), a
//! duration, the phase, an optional free-form label (block instance
//! name, "spec"/"impl" side, …), the recording thread and its parent
//! span. Parenthood is explicit — a [`Span`] hands out re-parented
//! [`Telemetry`] handles via [`Span::telemetry`], which callers pass down
//! (including across threads, e.g. one handle per hierarchical block),
//! so the tree never depends on thread-local ambient state.
//!
//! Spans are the *single* timing source: pipeline stats structs
//! (`ExtractionStats` durations and friends) are filled from the value
//! returned by [`Span::finish`], not from a second clock.
//!
//! # JSONL schema
//!
//! See [`Trace::to_jsonl`] for the documented line format. One strict
//! reader frames every JSONL file gfab writes — traces, `agg` summaries,
//! `--events` streams and `--ledger` run ledgers — and
//! [`check_jsonl`] is what `gfab trace-check` and CI use to validate
//! emitted files of any of the four kinds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod diff;
pub mod events;
pub mod flame;
pub mod json;
mod jsonl;
pub mod ledger;
pub mod mem;
mod metrics;
mod span;
mod trace;

pub use agg::{AggGroup, GroupBy, TraceAgg};
pub use diff::{DiffRow, Regression, TraceDiff};
pub use events::{Event, EventBus, EventKind, EventReceiver, EventStream, Recv};
pub use flame::{critical_path, folded, parse_folded, speedscope, CriticalPath};
pub use jsonl::{check_jsonl, ParseError, JSONL_VERSION};
pub use ledger::{fingerprint, Ledger, LedgerRow};
pub use metrics::{Gauge, Hist, HistData, HIST_BUCKETS};
pub use span::{Collector, Span, SpanRecord, Telemetry};
pub use trace::Trace;

/// A phase of the verification pipeline.
///
/// The closed vocabulary shared by telemetry spans, budget-exhaustion
/// errors and timed-out extraction outcomes. [`std::fmt::Display`] gives
/// the human-readable name used in error messages and tables;
/// [`Phase::slug`] gives the stable kebab-case identifier used in the
/// JSONL trace schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// A whole `Verifier::check` equivalence query (root span).
    Check,
    /// A whole word-level extraction of one netlist (flat root span, or
    /// the per-side "spec"/"impl" span inside an equivalence check).
    Extract,
    /// Extraction of one hierarchical block (label = instance name).
    Block,
    /// Word-level composition of extracted block functions.
    Compose,
    /// Circuit-model construction (ring, gate polynomials, word relations).
    ModelBuild,
    /// The RATO guided reduction: one division chain to a normal form.
    GuidedReduction,
    /// Case-2 completion of a residual: trace substitution on the query
    /// path, the bounded Gröbner basis of Section 5 as its reference.
    Case2Completion,
    /// Buchberger pair processing inside a Gröbner-basis computation.
    Buchberger,
    /// Inter-reduction of a completed basis.
    BasisReduction,
    /// A bit-parallel random simulation sweep.
    Simulation,
    /// Miter construction for the SAT fallback.
    MiterBuild,
    /// Tseitin CNF encoding of the miter.
    TseitinEncode,
    /// CDCL solver construction (watch lists, clause database).
    SolverBuild,
    /// The CDCL search itself.
    SatSolve,
    /// Generic polynomial algebra outside any more specific phase.
    Algebra,
    /// An artifact-cache probe by the batch engine (hit or miss).
    CacheLookup,
    /// One fuzz-campaign case: generate, fault, run the differential
    /// oracle (label = `arch/k/fault`).
    FuzzCase,
    /// Delta-debugging shrink of one failing fuzz specimen.
    Shrink,
}

impl Phase {
    /// Stable kebab-case identifier used in the JSONL schema.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Phase::Check => "check",
            Phase::Extract => "extract",
            Phase::Block => "block",
            Phase::Compose => "compose",
            Phase::ModelBuild => "model-build",
            Phase::GuidedReduction => "guided-reduction",
            Phase::Case2Completion => "case2-completion",
            Phase::Buchberger => "buchberger",
            Phase::BasisReduction => "basis-reduction",
            Phase::Simulation => "simulation",
            Phase::MiterBuild => "miter-build",
            Phase::TseitinEncode => "tseitin-encode",
            Phase::SolverBuild => "solver-build",
            Phase::SatSolve => "sat-solve",
            Phase::Algebra => "algebra",
            Phase::CacheLookup => "cache-lookup",
            Phase::FuzzCase => "fuzz-case",
            Phase::Shrink => "shrink",
        }
    }

    /// Inverse of [`Phase::slug`]; `None` for unknown identifiers.
    #[must_use]
    pub fn from_slug(s: &str) -> Option<Phase> {
        Some(match s {
            "check" => Phase::Check,
            "extract" => Phase::Extract,
            "block" => Phase::Block,
            "compose" => Phase::Compose,
            "model-build" => Phase::ModelBuild,
            "guided-reduction" => Phase::GuidedReduction,
            "case2-completion" => Phase::Case2Completion,
            "buchberger" => Phase::Buchberger,
            "basis-reduction" => Phase::BasisReduction,
            "simulation" => Phase::Simulation,
            "miter-build" => Phase::MiterBuild,
            "tseitin-encode" => Phase::TseitinEncode,
            "solver-build" => Phase::SolverBuild,
            "sat-solve" => Phase::SatSolve,
            "algebra" => Phase::Algebra,
            "cache-lookup" => Phase::CacheLookup,
            "fuzz-case" => Phase::FuzzCase,
            "shrink" => Phase::Shrink,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Phase::Check => "equivalence check",
            Phase::Extract => "extraction",
            Phase::Block => "block extraction",
            Phase::Compose => "word-level composition",
            Phase::ModelBuild => "model construction",
            Phase::GuidedReduction => "guided reduction",
            Phase::Case2Completion => "case-2 completion",
            Phase::Buchberger => "Buchberger completion",
            Phase::BasisReduction => "basis reduction",
            Phase::Simulation => "simulation sweep",
            Phase::MiterBuild => "miter construction",
            Phase::TseitinEncode => "CNF encoding",
            Phase::SolverBuild => "solver construction",
            Phase::SatSolve => "SAT search",
            Phase::Algebra => "polynomial algebra",
            Phase::CacheLookup => "artifact-cache lookup",
            Phase::FuzzCase => "fuzz case",
            Phase::Shrink => "counterexample shrinking",
        })
    }
}

/// A typed work counter attached to the span that performed the work.
///
/// [`Counter::slug`] is the stable key used in the JSONL schema and the
/// human-readable renderers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Counter {
    /// Gates modelled into polynomials.
    Gates,
    /// Division steps taken by a reduction (lead-term rewrites).
    ReductionSteps,
    /// Peak number of live monomials during a reduction.
    PeakTerms,
    /// Coefficient cancellations observed during a reduction.
    Cancellations,
    /// Terms left in the remainder of a reduction.
    RemainderTerms,
    /// Cooperative-budget polls issued by a phase.
    BudgetPolls,
    /// S-polynomials formed and reduced by Buchberger.
    SPolynomials,
    /// Critical pairs discarded by the product/chain criteria.
    PairsSkipped,
    /// Size of the (reduced) Gröbner basis.
    BasisSize,
    /// Random vectors pushed through a simulation sweep.
    SimVectors,
    /// CNF variables produced by the Tseitin encoding.
    CnfVars,
    /// CNF clauses produced by the Tseitin encoding.
    CnfClauses,
    /// CDCL conflicts.
    Conflicts,
    /// CDCL decisions.
    Decisions,
    /// CDCL unit propagations.
    Propagations,
    /// CDCL restarts.
    Restarts,
    /// Clauses learned by the CDCL solver.
    LearnedClauses,
    /// Hierarchical blocks extracted.
    Blocks,
    /// Artifact-cache lookups that found a byte-verified entry.
    CacheHits,
    /// Artifact-cache lookups that fell through to a fresh computation.
    CacheMisses,
    /// Artifact-cache entries evicted under capacity pressure.
    CacheEvictions,
    /// Fuzz cases executed by a campaign.
    FuzzCases,
    /// Faults injected into fuzz specimens.
    FaultsInjected,
    /// Faulted specimens the differential oracle refuted (caught bugs).
    FuzzCaught,
    /// Oracle findings (engine disagreements, escapes, bogus
    /// counterexamples, unexpected Unknowns).
    FuzzFindings,
    /// Shrink candidates evaluated by the delta-debugging loop.
    ShrinkSteps,
    /// Field coefficient multiplications performed by the GF kernels.
    CoeffMuls,
    /// Field coefficient squarings performed by the GF kernels.
    CoeffSquares,
    /// Word-level modular-reduction folds performed by the precomputed
    /// reducer (one per folded overflow limb).
    ReductionFolds,
    /// Coefficient-kernel results that landed in inline (stack) limb
    /// storage — the zero-allocation fast path.
    CoeffsInline,
    /// Coefficient-kernel results that spilled to heap limb storage
    /// (only possible for k > 576).
    CoeffsHeap,
    /// Reduction terms kept whole in the working store's spill table
    /// because their packed key could not describe the monomial (three or
    /// more factors, an exponent of 255 or more).
    SpilledTerms,
    /// Term products multiplied out by the Case-2 trace substitution.
    TermProducts,
}

impl Counter {
    /// Stable kebab-case key used in the JSONL schema.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Counter::Gates => "gates",
            Counter::ReductionSteps => "reduction-steps",
            Counter::PeakTerms => "peak-terms",
            Counter::Cancellations => "cancellations",
            Counter::RemainderTerms => "remainder-terms",
            Counter::BudgetPolls => "budget-polls",
            Counter::SPolynomials => "s-polynomials",
            Counter::PairsSkipped => "pairs-skipped",
            Counter::BasisSize => "basis-size",
            Counter::SimVectors => "sim-vectors",
            Counter::CnfVars => "cnf-vars",
            Counter::CnfClauses => "cnf-clauses",
            Counter::Conflicts => "conflicts",
            Counter::Decisions => "decisions",
            Counter::Propagations => "propagations",
            Counter::Restarts => "restarts",
            Counter::LearnedClauses => "learned-clauses",
            Counter::Blocks => "blocks",
            Counter::CacheHits => "cache-hits",
            Counter::CacheMisses => "cache-misses",
            Counter::CacheEvictions => "cache-evictions",
            Counter::FuzzCases => "fuzz-cases",
            Counter::FaultsInjected => "faults-injected",
            Counter::FuzzCaught => "fuzz-caught",
            Counter::FuzzFindings => "fuzz-findings",
            Counter::ShrinkSteps => "shrink-steps",
            Counter::CoeffMuls => "coeff-muls",
            Counter::CoeffSquares => "coeff-squares",
            Counter::ReductionFolds => "reduction-folds",
            Counter::CoeffsInline => "coeff-inline",
            Counter::CoeffsHeap => "coeff-heap",
            Counter::SpilledTerms => "spilled-terms",
            Counter::TermProducts => "term-products",
        }
    }

    /// Whether this counter is a *work-unit* counter: a deterministic
    /// measure of algebraic/search effort that is bit-identical across
    /// thread counts and machines (division steps, Gröbner pairs, Case-2
    /// term products, gate models, simulation vectors, CDCL conflicts). Work units are what
    /// `gfab trace-diff` gates regressions on — never wall time.
    #[must_use]
    pub fn is_work(self) -> bool {
        matches!(
            self,
            Counter::Gates
                | Counter::ReductionSteps
                | Counter::SPolynomials
                | Counter::TermProducts
                | Counter::SimVectors
                | Counter::Conflicts
                | Counter::ShrinkSteps
        )
    }

    /// Inverse of [`Counter::slug`]; `None` for unknown keys.
    #[must_use]
    pub fn from_slug(s: &str) -> Option<Counter> {
        Some(match s {
            "gates" => Counter::Gates,
            "reduction-steps" => Counter::ReductionSteps,
            "peak-terms" => Counter::PeakTerms,
            "cancellations" => Counter::Cancellations,
            "remainder-terms" => Counter::RemainderTerms,
            "budget-polls" => Counter::BudgetPolls,
            "s-polynomials" => Counter::SPolynomials,
            "pairs-skipped" => Counter::PairsSkipped,
            "basis-size" => Counter::BasisSize,
            "sim-vectors" => Counter::SimVectors,
            "cnf-vars" => Counter::CnfVars,
            "cnf-clauses" => Counter::CnfClauses,
            "conflicts" => Counter::Conflicts,
            "decisions" => Counter::Decisions,
            "propagations" => Counter::Propagations,
            "restarts" => Counter::Restarts,
            "learned-clauses" => Counter::LearnedClauses,
            "blocks" => Counter::Blocks,
            "cache-hits" => Counter::CacheHits,
            "cache-misses" => Counter::CacheMisses,
            "cache-evictions" => Counter::CacheEvictions,
            "fuzz-cases" => Counter::FuzzCases,
            "faults-injected" => Counter::FaultsInjected,
            "fuzz-caught" => Counter::FuzzCaught,
            "fuzz-findings" => Counter::FuzzFindings,
            "shrink-steps" => Counter::ShrinkSteps,
            "coeff-muls" => Counter::CoeffMuls,
            "coeff-squares" => Counter::CoeffSquares,
            "reduction-folds" => Counter::ReductionFolds,
            "coeff-inline" => Counter::CoeffsInline,
            "coeff-heap" => Counter::CoeffsHeap,
            "spilled-terms" => Counter::SpilledTerms,
            "term-products" => Counter::TermProducts,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_PHASES: [Phase; 18] = [
        Phase::Check,
        Phase::Extract,
        Phase::Block,
        Phase::Compose,
        Phase::ModelBuild,
        Phase::GuidedReduction,
        Phase::Case2Completion,
        Phase::Buchberger,
        Phase::BasisReduction,
        Phase::Simulation,
        Phase::MiterBuild,
        Phase::TseitinEncode,
        Phase::SolverBuild,
        Phase::SatSolve,
        Phase::Algebra,
        Phase::CacheLookup,
        Phase::FuzzCase,
        Phase::Shrink,
    ];

    #[test]
    fn phase_slugs_round_trip() {
        for p in ALL_PHASES {
            assert_eq!(Phase::from_slug(p.slug()), Some(p));
            assert!(!p.to_string().is_empty());
        }
        assert_eq!(Phase::from_slug("no-such-phase"), None);
    }

    #[test]
    fn counter_slugs_round_trip() {
        const ALL: [Counter; 33] = [
            Counter::Gates,
            Counter::ReductionSteps,
            Counter::PeakTerms,
            Counter::Cancellations,
            Counter::RemainderTerms,
            Counter::BudgetPolls,
            Counter::SPolynomials,
            Counter::PairsSkipped,
            Counter::BasisSize,
            Counter::SimVectors,
            Counter::CnfVars,
            Counter::CnfClauses,
            Counter::Conflicts,
            Counter::Decisions,
            Counter::Propagations,
            Counter::Restarts,
            Counter::LearnedClauses,
            Counter::Blocks,
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheEvictions,
            Counter::FuzzCases,
            Counter::FaultsInjected,
            Counter::FuzzCaught,
            Counter::FuzzFindings,
            Counter::ShrinkSteps,
            Counter::CoeffMuls,
            Counter::CoeffSquares,
            Counter::ReductionFolds,
            Counter::CoeffsInline,
            Counter::CoeffsHeap,
            Counter::SpilledTerms,
            Counter::TermProducts,
        ];
        for c in ALL {
            assert_eq!(Counter::from_slug(c.slug()), Some(c));
        }
        assert_eq!(Counter::from_slug("no-such-counter"), None);
    }

    #[test]
    fn cache_counters_are_not_work_units() {
        // Hit/miss/eviction patterns depend on scheduling and capacity,
        // so they must never feed the trace-diff work-unit gate.
        for c in [
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::CacheEvictions,
        ] {
            assert!(!c.is_work());
        }
    }

    #[test]
    fn kernel_counters_are_informational() {
        // The coefficient-kernel counters are deterministic, but they are
        // *implementation* measures (they change whenever the arithmetic
        // kernels change), not algorithmic work units. Keeping them out of
        // is_work() means trace-diff gates stay comparable across kernel
        // generations; `kernel_counter_deltas_are_deterministic` in
        // tests/field_kernels.rs pins them exactly instead.
        for c in [
            Counter::CoeffMuls,
            Counter::CoeffSquares,
            Counter::ReductionFolds,
            Counter::CoeffsInline,
            Counter::CoeffsHeap,
        ] {
            assert!(!c.is_work());
        }
    }

    #[test]
    fn spilled_terms_are_informational() {
        // Whether a term spills depends on the working store's key
        // layout, not on the algebra: the same division chain must gate
        // identically whatever the store does with its terms.
        assert!(!Counter::SpilledTerms.is_work());
    }
}
