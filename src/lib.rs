//! # gfab — Galois Field circuit ABstraction
//!
//! Umbrella crate re-exporting the GFAB workspace: a reproduction of
//! *"Equivalence Verification of Large Galois Field Arithmetic Circuits
//! using Word-Level Abstraction via Gröbner Bases"* (Pruss, Kalla, Enescu —
//! DAC 2014).
//!
//! See the individual crates for details:
//!
//! * [`field`] — `F_{2^k}` arithmetic ([`gfab_field`])
//! * [`poly`] — multivariate polynomials and Gröbner bases ([`gfab_poly`])
//! * [`netlist`] — gate-level circuit IR ([`gfab_netlist`])
//! * [`circuits`] — Mastrovito/Montgomery generators ([`gfab_circuits`])
//! * [`core`] — the word-level abstraction engine ([`gfab_core`])
//! * [`sat`] — CDCL SAT baseline ([`gfab_sat`])
//! * [`telemetry`] — phase spans, counters, gauges, histograms,
//!   per-phase memory accounting, JSONL traces and trace diffing
//!   ([`gfab_telemetry`])
//! * [`bench`](mod@bench) — paper-table harness utilities ([`gfab_bench`])
//! * [`fuzz`] — deterministic fuzzing, fault injection, the
//!   cross-engine differential oracle and counterexample shrinking
//!   ([`gfab_fuzz`])
//!
//! # Quickstart
//!
//! The [`Verifier`] session API is the front door: build it once over a
//! field context, then extract or equivalence-check flat netlists and
//! hierarchical designs alike.
//!
//! ```
//! use gfab::field::{GfContext, Gf2Poly};
//! use gfab::circuits::mastrovito_multiplier;
//! use gfab::Verifier;
//!
//! // Build F_16 and a 4-bit Mastrovito multiplier, then recover Z = A*B.
//! let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
//! let mult = mastrovito_multiplier(&ctx);
//! let report = Verifier::new(&ctx).extract(&mult).unwrap();
//! let f = report.function().expect("correct circuit yields Case 1");
//! assert_eq!(format!("{}", f.display()), "A*B");
//! ```

#![forbid(unsafe_code)]

pub use gfab_bench as bench;
pub use gfab_circuits as circuits;
pub use gfab_core as core;
pub use gfab_field as field;
pub use gfab_fuzz as fuzz;
pub use gfab_netlist as netlist;
pub use gfab_poly as poly;
pub use gfab_sat as sat;
pub use gfab_telemetry as telemetry;

pub mod cache;
pub mod engine;
pub mod manifest;
pub mod prelude;
pub mod verifier;
pub mod version;
pub use cache::{ArtifactCache, CacheStats, CachingExtract};
pub use engine::{
    BatchOp, BatchQuery, BatchReport, Engine, EngineConfig, OwnedCircuit, QueryOutcome,
};
pub use verifier::{Circuit, ExtractOutcome, ExtractReport, Verifier};
