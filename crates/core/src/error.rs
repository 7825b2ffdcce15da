//! Error type for the abstraction engine.

use gfab_field::budget::ExhaustedReason;
use gfab_netlist::NetlistError;
use gfab_poly::PolyError;
use gfab_telemetry::Phase;
use std::fmt;

/// Errors produced by the word-level abstraction and equivalence engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The netlist failed structural validation.
    Netlist(NetlistError),
    /// Polynomial arithmetic failed (exponent overflow, vanishing
    /// polynomial unavailable for this field size).
    Poly(PolyError),
    /// The circuit's output word width does not match the field degree `k`.
    WidthMismatch {
        /// The field degree.
        k: usize,
        /// The offending word name.
        word: String,
        /// Its actual width.
        width: usize,
    },
    /// A canonical polynomial was required (hierarchical composition), but
    /// a Case-2 residual stayed one: its completion was disabled, ran out
    /// of budget, or k > 63.
    CompletionLimit(String),
    /// No `Z + G(A)` polynomial where the Abstraction Theorem guarantees
    /// one (a Case-1 remainder, a Case-2 completion, a full Gröbner
    /// basis) — this indicates an internal bug, so it is surfaced loudly
    /// rather than silently.
    MissingAbstractionPolynomial,
    /// Two designs cannot be compared (different input signatures).
    SignatureMismatch(String),
    /// A cooperative resource budget ran out in a phase with no partial
    /// result worth keeping (model construction, hierarchical block
    /// extraction). Phases that *can* degrade gracefully report through
    /// `Extraction::TimedOut` / `Verdict::Unknown` instead.
    BudgetExhausted {
        /// The pipeline phase that was cut short — the same [`Phase`]
        /// vocabulary telemetry spans use, so errors, stats and traces
        /// all name phases identically.
        phase: Phase,
        /// The hierarchical block being extracted when the budget ran
        /// out, if the trip happened inside one.
        block: Option<String>,
        /// Which resource ran out.
        reason: ExhaustedReason,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::Poly(e) => write!(f, "polynomial error: {e}"),
            CoreError::WidthMismatch { k, word, width } => {
                write!(f, "word {word} has width {width} but the field is F_2^{k}")
            }
            CoreError::CompletionLimit(msg) => {
                write!(f, "case-2 canonical completion gave up: {msg}")
            }
            CoreError::MissingAbstractionPolynomial => write!(
                f,
                "no Z + G(A) polynomial where the abstraction theorem guarantees one (internal error)"
            ),
            CoreError::SignatureMismatch(msg) => write!(f, "signature mismatch: {msg}"),
            CoreError::BudgetExhausted {
                phase,
                block,
                reason,
            } => match block {
                Some(b) => {
                    write!(f, "budget exhausted during {phase} (block {b}): {reason}")
                }
                None => write!(f, "budget exhausted during {phase}: {reason}"),
            },
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Netlist(e) => Some(e),
            CoreError::Poly(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

impl From<PolyError> for CoreError {
    fn from(e: PolyError) -> Self {
        match e {
            // Budget trips surface as a first-class outcome, not as an
            // opaque polynomial error: callers match on them to trigger
            // the SAT fallback ladder.
            PolyError::BudgetExceeded(b) => CoreError::BudgetExhausted {
                phase: Phase::Algebra,
                block: None,
                reason: b.reason,
            },
            e => CoreError::Poly(e),
        }
    }
}
