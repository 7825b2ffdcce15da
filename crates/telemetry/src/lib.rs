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
//! * [`Attr`] — the closed set of root-span attributes that name a
//!   query's outcome: its verdict, the rung that decided and the
//!   evidence (Case 1 or 2 per side, where a counterexample came from).
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
//! `--events` streams and `--ledger` run ledgers, whose lines are root
//! spans — and [`check_jsonl`] is what `gfab trace-check` and CI use to
//! validate emitted files of any of the four kinds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a closed vocabulary keyed by slugs: an enum whose variants
/// each name their stable kebab-case JSONL key, with `ALL`, `slug` and
/// `from_slug` generated from that one table.
macro_rules! slug_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $slug:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Every variant, in declaration order.
            pub(crate) const ALL: &'static [$name] = &[$($name::$variant),*];

            /// Stable kebab-case key used in the JSONL schema.
            #[must_use]
            pub fn slug(self) -> &'static str {
                match self {
                    $($name::$variant => $slug,)*
                }
            }

            /// Inverse of `slug`; `None` for unknown keys.
            #[must_use]
            pub fn from_slug(s: &str) -> Option<$name> {
                $name::ALL.iter().copied().find(|v| v.slug() == s)
            }
        }
    };
}

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
pub use ledger::{fingerprint, Ledger};
pub use metrics::{Gauge, Hist, HistData, HIST_BUCKETS};
pub use span::{Collector, Span, SpanRecord, Telemetry};
pub use trace::Trace;

slug_enum! {
    /// A phase of the verification pipeline.
    ///
    /// The closed vocabulary shared by telemetry spans, budget-exhaustion
    /// errors and timed-out extraction outcomes. [`std::fmt::Display`] gives
    /// the human-readable name used in error messages and tables;
    /// [`Phase::slug`] gives the stable kebab-case identifier used in the
    /// JSONL trace schema.
    pub enum Phase {
        /// A whole `Verifier::check` equivalence query (root span).
        Check = "check",
        /// A whole word-level extraction of one netlist (flat root span, or
        /// the per-side "spec"/"impl" span inside an equivalence check).
        Extract = "extract",
        /// Extraction of one hierarchical block (label = instance name).
        Block = "block",
        /// Word-level composition of extracted block functions.
        Compose = "compose",
        /// Circuit-model construction (ring, gate polynomials, word relations).
        ModelBuild = "model-build",
        /// The RATO guided reduction: one division chain to a normal form.
        GuidedReduction = "guided-reduction",
        /// Case-2 completion of a residual: trace substitution on the query
        /// path, the bounded Gröbner basis of Section 5 as its reference.
        Case2Completion = "case2-completion",
        /// Buchberger pair processing inside a Gröbner-basis computation.
        Buchberger = "buchberger",
        /// Inter-reduction of a completed basis.
        BasisReduction = "basis-reduction",
        /// A bit-parallel random simulation sweep.
        Simulation = "simulation",
        /// Miter construction for the SAT fallback.
        MiterBuild = "miter-build",
        /// Tseitin CNF encoding of the miter.
        TseitinEncode = "tseitin-encode",
        /// CDCL solver construction (watch lists, clause database).
        SolverBuild = "solver-build",
        /// The CDCL search itself.
        SatSolve = "sat-solve",
        /// Generic polynomial algebra outside any more specific phase.
        Algebra = "algebra",
        /// An artifact-cache probe by the batch engine (hit or miss).
        CacheLookup = "cache-lookup",
        /// One fuzz-campaign case: generate, fault, run the differential
        /// oracle (label = `arch/k/fault`).
        FuzzCase = "fuzz-case",
        /// Delta-debugging shrink of one failing fuzz specimen.
        Shrink = "shrink",
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

slug_enum! {
    /// A typed work counter attached to the span that performed the work.
    ///
    /// [`Counter::slug`] is the stable key used in the JSONL schema and the
    /// human-readable renderers.
    pub enum Counter {
        /// Gates modelled into polynomials.
        Gates = "gates",
        /// Division steps taken by a reduction (lead-term rewrites).
        ReductionSteps = "reduction-steps",
        /// Peak number of live monomials during a reduction.
        PeakTerms = "peak-terms",
        /// Coefficient cancellations observed during a reduction.
        Cancellations = "cancellations",
        /// Terms left in the remainder of a reduction.
        RemainderTerms = "remainder-terms",
        /// Cooperative-budget polls issued by a phase.
        BudgetPolls = "budget-polls",
        /// S-polynomials formed and reduced by Buchberger.
        SPolynomials = "s-polynomials",
        /// Critical pairs discarded by the product/chain criteria.
        PairsSkipped = "pairs-skipped",
        /// Size of the (reduced) Gröbner basis.
        BasisSize = "basis-size",
        /// Random vectors pushed through a simulation sweep.
        SimVectors = "sim-vectors",
        /// CNF variables produced by the Tseitin encoding.
        CnfVars = "cnf-vars",
        /// CNF clauses produced by the Tseitin encoding.
        CnfClauses = "cnf-clauses",
        /// CDCL conflicts.
        Conflicts = "conflicts",
        /// CDCL decisions.
        Decisions = "decisions",
        /// CDCL unit propagations.
        Propagations = "propagations",
        /// CDCL restarts.
        Restarts = "restarts",
        /// Clauses learned by the CDCL solver.
        LearnedClauses = "learned-clauses",
        /// Hierarchical blocks extracted.
        Blocks = "blocks",
        /// Artifact-cache lookups that found a byte-verified entry.
        CacheHits = "cache-hits",
        /// Artifact-cache lookups that fell through to a fresh computation.
        CacheMisses = "cache-misses",
        /// Artifact-cache entries evicted under capacity pressure.
        CacheEvictions = "cache-evictions",
        /// Fuzz cases executed by a campaign.
        FuzzCases = "fuzz-cases",
        /// Faults injected into fuzz specimens.
        FaultsInjected = "faults-injected",
        /// Faulted specimens the differential oracle refuted (caught bugs).
        FuzzCaught = "fuzz-caught",
        /// Oracle findings (engine disagreements, escapes, bogus
        /// counterexamples, unexpected Unknowns).
        FuzzFindings = "fuzz-findings",
        /// Shrink candidates evaluated by the delta-debugging loop.
        ShrinkSteps = "shrink-steps",
        /// Field coefficient multiplications performed by the GF kernels.
        CoeffMuls = "coeff-muls",
        /// Field coefficient squarings performed by the GF kernels.
        CoeffSquares = "coeff-squares",
        /// Word-level modular-reduction folds performed by the precomputed
        /// reducer (one per folded overflow limb).
        ReductionFolds = "reduction-folds",
        /// Coefficient-kernel results that landed in inline (stack) limb
        /// storage — the zero-allocation fast path.
        CoeffsInline = "coeff-inline",
        /// Coefficient-kernel results that spilled to heap limb storage
        /// (only possible for k > 576).
        CoeffsHeap = "coeff-heap",
        /// Reduction terms kept whole in the working store's spill table
        /// because their packed key could not describe the monomial (three or
        /// more factors, an exponent of 255 or more).
        SpilledTerms = "spilled-terms",
        /// Term products multiplied out by the Case-2 trace substitution.
        TermProducts = "term-products",
        /// Gates absorbed into the linear divisors of a circuit model:
        /// the intermediate gates of the XOR trees it divides by one
        /// linear divisor each. Recorded only when non-zero.
        AbsorbedGates = "absorbed-gates",
    }
}

impl Counter {
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
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

slug_enum! {
    /// A root-span attribute: the closed set of keys that name a query's
    /// outcome on its root span and, on a ledger line, the run the line
    /// belongs to. Only root spans carry attributes. Each key has a fixed
    /// value type ([`Attr::is_int`]); [`Attr::slug`] is its JSONL key.
    pub enum Attr {
        /// The verdict word (`equivalent`, `extracted`, `timeout`, …).
        Verdict = "verdict",
        /// The rung of the equivalence ladder that decided: `pre-check`,
        /// `word`, `refute`, `sat` or `none`.
        Rung = "rung",
        /// How the spec side's extraction ended: `case1`, `case2`,
        /// `residual`, `timed-out` or `not-run`.
        Spec = "spec",
        /// How the impl side's extraction ended, as [`Attr::Spec`] says.
        Impl = "impl",
        /// How an `extract` query's extraction ended, as [`Attr::Spec`] says.
        Case = "case",
        /// Where the counterexample came from: `exhaustive` or `sampled`
        /// (word-level search), `pre-check`, `refute` or `sat`.
        Cex = "cex",
        /// The subcommand that appended a ledger line.
        Cmd = "cmd",
        /// The command-line fingerprint of a ledger line.
        Fp = "fp",
        /// The id shared by the ledger lines of one invocation.
        Run = "run",
        /// The exit code (0–3) a ledger line's outcome maps to.
        Exit = "exit",
        /// The field width `k` of a ledger line (0 when mixed).
        K = "k",
        /// When a ledger line was appended, in ms since the Unix epoch.
        TsMs = "ts-ms",
        /// The build that appended a ledger line.
        Producer = "producer",
    }
}

impl Attr {
    /// Whether the key's value is an unsigned integer; every other
    /// key's value is a string.
    #[must_use]
    pub fn is_int(self) -> bool {
        matches!(self, Attr::Exit | Attr::K | Attr::TsMs)
    }
}

/// The value of an [`Attr`]: an integer for the keys whose
/// [`Attr::is_int`] holds, a string for the others.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// A string value.
    Str(String),
    /// An unsigned integer value.
    Int(u64),
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::Int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_slugs_round_trip() {
        assert_eq!(Phase::ALL.len(), 18);
        for &p in Phase::ALL {
            assert_eq!(Phase::from_slug(p.slug()), Some(p));
            assert!(!p.to_string().is_empty());
        }
        assert_eq!(Phase::from_slug("no-such-phase"), None);
    }

    #[test]
    fn counter_slugs_round_trip() {
        assert_eq!(Counter::ALL.len(), 34);
        for &c in Counter::ALL {
            assert_eq!(Counter::from_slug(c.slug()), Some(c));
        }
        assert_eq!(Counter::from_slug("no-such-counter"), None);
    }

    #[test]
    fn attr_slugs_round_trip() {
        for &a in Attr::ALL {
            assert_eq!(Attr::from_slug(a.slug()), Some(a));
        }
        assert_eq!(Attr::from_slug("no-such-attr"), None);
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
    fn absorbed_gates_are_informational() {
        // The collapse shows in the division steps it saves; the count of
        // absorbed gates describes the divisor set, not work done, so a
        // circuit whose model changes gates no differently.
        assert!(!Counter::AbsorbedGates.is_work());
    }

    #[test]
    fn spilled_terms_are_informational() {
        // Whether a term spills depends on the working store's key
        // layout, not on the algebra: the same division chain must gate
        // identically whatever the store does with its terms.
        assert!(!Counter::SpilledTerms.is_work());
    }
}
