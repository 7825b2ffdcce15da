//! Pluggable flat-netlist extraction: the seam the batch engine's
//! artifact cache injects through.
//!
//! Every flat extraction in this crate — each side of an equivalence
//! query, each block of a hierarchical design — funnels
//! its gate-level → word-level abstraction through one
//! [`ExtractProvider`] call. The default provider ([`DirectExtract`])
//! simply runs [`extract_word_polynomial_budgeted`]; the batch engine
//! substitutes a caching provider that answers repeated structures from
//! memory.
//!
//! # Determinism contract
//!
//! A provider must be *extensionally equal* to [`DirectExtract`]: for
//! any input it either returns exactly what a fresh
//! [`extract_word_polynomial_budgeted`] call would return (same
//! outcome, same stats), or an error a fresh call could produce.
//! Extraction itself is deterministic whenever no wall-clock budget
//! trips, so a cache that only stores completed, budget-clean results
//! and verifies keys byte-for-byte satisfies the contract — which is
//! what makes batch verdicts bit-identical to sequential ones at any
//! thread count.

use crate::error::CoreError;
use crate::extract::{extract_word_polynomial_budgeted, ExtractOptions, ExtractionResult};
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::Netlist;
use std::sync::Arc;

/// A source of flat-netlist extraction results (see module docs).
pub trait ExtractProvider: Send + Sync {
    /// Extracts (or recalls) the word-level polynomial of `nl`.
    ///
    /// # Errors
    ///
    /// As [`extract_word_polynomial_budgeted`].
    fn extract(
        &self,
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        options: &ExtractOptions,
        budget: &Budget,
    ) -> Result<ExtractionResult, CoreError>;
}

/// The default provider: every call runs the extraction pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectExtract;

impl ExtractProvider for DirectExtract {
    fn extract(
        &self,
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        options: &ExtractOptions,
        budget: &Budget,
    ) -> Result<ExtractionResult, CoreError> {
        extract_word_polynomial_budgeted(nl, ctx, options, budget)
    }
}
