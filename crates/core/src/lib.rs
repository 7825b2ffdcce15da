//! # gfab-core
//!
//! The word-level abstraction engine of
//! *"Equivalence Verification of Large Galois Field Arithmetic Circuits
//! using Word-Level Abstraction via Gröbner Bases"*
//! (Pruss, Kalla, Enescu — DAC 2014).
//!
//! Given a combinational circuit with `k`-bit input words `A, B, …` and a
//! `k`-bit output word `Z` over `F_{2^k}`, this crate derives the **unique
//! canonical polynomial** `Z = F(A, B, …)` the circuit implements, and uses
//! it for equivalence checking:
//!
//! 1. [`model`] turns the netlist into a polynomial system under **RATO**
//!    (the Refined Abstraction Term Order of Definition 5.1: circuit
//!    variables in reverse topological order > output word `Z` > input
//!    words).
//! 2. [`extract_word_polynomial`] performs the paper's guided Gröbner-basis
//!    step: under RATO exactly one critical pair survives the product
//!    criterion, so the whole computation collapses to one S-polynomial
//!    followed by a chain of divisions. Case 1 yields the canonical
//!    polynomial directly; Case 2 (buggy circuits) leaves primary-input
//!    bits in the remainder. The paper completes it by a small reduced
//!    Gröbner basis over `{r, input word definitions} ∪ J_0` (Section 5,
//!    kept as [`case2_by_groebner`]); the query path substitutes each bit's
//!    trace form `a_j = Tr(β_j·A)` instead ([`case2_by_substitution`]).
//! 3. [`hier`] extracts hierarchical designs block by block and composes
//!    the block polynomials at the word level (the paper's Table 2 flow).
//! 4. [`equiv`] proves or disproves `Spec ≡ Impl` by coefficient matching
//!    of the two canonical polynomials, with counterexample search on
//!    mismatch. One ladder serves flat and hierarchical implementations
//!    (a [`Circuit`]); when either side stays without a canonical form it
//!    refutes by random simulation or reports why it cannot decide.
//!
//! Each layer has one plain entry point (no budget, telemetry off) and
//! one full one taking a running [`Budget`](gfab_field::budget::Budget)
//! and a [`Telemetry`](gfab_telemetry::Telemetry) handle (through
//! [`ExtractOptions::telemetry`] where the layer takes options).
//!
//! Baselines for the paper's comparisons live here too:
//! [`ideal_membership`] (the Lv–Kalla–Enescu TCAD'13 method \[5\] that needs
//! the spec polynomial as an input), [`fullgb`] (the unguided full
//! Gröbner-basis route — the SINGULAR `slimgb` baseline that explodes), and
//! [`interpolate`] (exhaustive Lagrange interpolation, feasible only on
//! tiny fields and used as a testing oracle).
//!
//! # Example: recover `Z = A·B` from a Mastrovito multiplier
//!
//! ```
//! use gfab_field::{GfContext, Gf2Poly};
//! use gfab_circuits::mastrovito_multiplier;
//! use gfab_core::extract_word_polynomial;
//!
//! let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
//! let mult = mastrovito_multiplier(&ctx);
//! let result = extract_word_polynomial(&mult, &ctx).unwrap();
//! let f = result.canonical().expect("correct circuit gives Case 1");
//! assert_eq!(format!("{}", f.display()), "A*B");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case2;
pub mod equiv;
mod error;
mod extract;
pub mod fullgb;
pub mod hier;
pub mod ideal_membership;
pub mod interpolate;
pub mod model;
pub mod pool;
mod provider;
mod wordfn;

pub use case2::{case2_by_groebner, case2_by_substitution, Case2Outcome, CASE2_MAX_PRODUCTS};
pub use error::CoreError;
pub use extract::{
    extract_word_polynomial, extract_word_polynomial_budgeted, extract_word_polynomial_with,
    ExtractOptions, Extraction, ExtractionResult, ExtractionStats,
};
/// The telemetry types this crate's API exposes ([`ExtractOptions::telemetry`],
/// `EquivReport::trace`), re-exported so callers can record and write traces
/// without depending on `gfab-telemetry` directly.
pub use gfab_telemetry as telemetry;
pub use provider::{DirectExtract, ExtractProvider};
pub use wordfn::WordFunction;

use gfab_netlist::hierarchy::HierDesign;
use gfab_netlist::Netlist;

/// A circuit to abstract, or to check as the implementation side of an
/// equivalence query: a flat gate-level netlist or a hierarchical design.
#[derive(Debug, Clone, Copy)]
pub enum Circuit<'a> {
    /// A flat gate-level netlist.
    Flat(&'a Netlist),
    /// A hierarchical design (per-block extraction + word-level composition).
    Hier(&'a HierDesign),
}

impl<'a> From<&'a Netlist> for Circuit<'a> {
    fn from(nl: &'a Netlist) -> Self {
        Circuit::Flat(nl)
    }
}

impl<'a> From<&'a HierDesign> for Circuit<'a> {
    fn from(design: &'a HierDesign) -> Self {
        Circuit::Hier(design)
    }
}
