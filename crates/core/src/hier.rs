//! Hierarchical extraction: per-block abstraction plus word-level
//! composition (the paper's Table 2 flow).
//!
//! "First, a polynomial is extracted for each block (gate-level to
//! word-level abstraction), and then the approach is re-applied at word
//! level to derive the input-output relation (solved trivially in < 1
//! second)." — Section 6.

use crate::error::CoreError;
use crate::extract::{ExtractOptions, Extraction, ExtractionStats};
use crate::pool::run_indexed;
use crate::provider::{DirectExtract, ExtractProvider};
use crate::wordfn::WordFunction;
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::hierarchy::{HierDesign, Signal};
use gfab_poly::{ExponentMode, Monomial, Poly, RingBuilder, VarId, VarKind};
use gfab_telemetry::Phase;
use std::sync::Arc;
use std::time::Duration;

/// The result of extracting a hierarchical design.
#[derive(Debug, Clone)]
pub struct HierExtraction {
    /// The composed word-level function of the whole design.
    pub function: WordFunction,
    /// Per-block extraction results `(instance name, function, stats)`.
    pub blocks: Vec<(String, WordFunction, ExtractionStats)>,
    /// Wall-clock time of the word-level composition step alone.
    pub compose_time: Duration,
}

impl HierExtraction {
    /// How the design's extraction ended, in the words of
    /// [`ExtractionResult::case`](crate::ExtractionResult::case): `case2`
    /// when some block needed the Case-2 completion, `case1` otherwise.
    #[must_use]
    pub fn case(&self) -> &'static str {
        if self.blocks.iter().any(|(_, _, s)| s.case2_completion) {
            "case2"
        } else {
            "case1"
        }
    }

    /// Statistics of the whole design: block counts and times summed,
    /// peak terms of the largest block, and the composition time added
    /// to `duration`.
    #[must_use]
    pub fn stats(&self) -> ExtractionStats {
        let mut agg = ExtractionStats::default();
        for (_, _, s) in &self.blocks {
            agg.gates += s.gates;
            agg.reduction_steps += s.reduction_steps;
            agg.cancellations += s.cancellations;
            agg.peak_terms = agg.peak_terms.max(s.peak_terms);
            agg.duration += s.duration;
            agg.model_time += s.model_time;
            agg.reduce_time += s.reduce_time;
            agg.case2_time += s.case2_time;
        }
        agg.duration += self.compose_time;
        agg
    }
}

/// Extracts every block's word-level polynomial and composes them along
/// the design's word-level connections: the plain entry point of
/// [`extract_hierarchical_budgeted_with`] (direct extraction, the
/// options' own budget).
///
/// # Errors
///
/// As [`extract_hierarchical_budgeted_with`].
pub fn extract_hierarchical(
    design: &HierDesign,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
) -> Result<HierExtraction, CoreError> {
    let budget = options.budget.start();
    extract_hierarchical_budgeted_with(&DirectExtract, design, ctx, options, &budget)
}

/// Hierarchical extraction under an already-running cooperative
/// [`Budget`] shared by every block, with an explicit [`ExtractProvider`]
/// supplying every per-block flat extraction — the hook through which
/// the batch engine's artifact cache makes identical sub-blocks (within
/// one design or across a whole batch) extract once. Composition always
/// runs per design.
///
/// # Errors
///
/// Any block-level extraction error, plus:
/// * [`CoreError::BudgetExhausted`] naming the block when the budget
///   runs out inside one (composition needs *all* block polynomials, so
///   there is no useful partial result at this level);
/// * [`CoreError::CompletionLimit`] when a block lands in Case 2 and
///   cannot be completed (composition requires canonical polynomials).
pub fn extract_hierarchical_budgeted_with(
    provider: &dyn ExtractProvider,
    design: &HierDesign,
    ctx: &Arc<GfContext>,
    options: &ExtractOptions,
    budget: &Budget,
) -> Result<HierExtraction, CoreError> {
    design.validate()?;

    // 1. Per-block gate-level → word-level abstraction. Blocks are
    // independent at this stage (composition happens afterwards at word
    // level), so they run concurrently on the configured worker threads;
    // results come back in block order, which makes the output — and the
    // error reported when several blocks fail — identical to the serial
    // path. Each block runs under a labelled `Phase::Block` span, and the
    // provider receives the block's own netlist.
    let per_block = run_indexed(options.effective_threads(), design.blocks.len(), |_, i| {
        let inst = &design.blocks[i];
        options.in_span(Phase::Block, &inst.name, |opts| {
            provider.extract(&inst.netlist, ctx, opts, budget)
        })
    });
    let mut blocks: Vec<(String, WordFunction, ExtractionStats)> = Vec::new();
    for (inst, result) in design.blocks.iter().zip(per_block) {
        let result = result?;
        if let Extraction::TimedOut { phase, reason } = &result.outcome {
            return Err(CoreError::BudgetExhausted {
                phase: *phase,
                block: Some(inst.name.clone()),
                reason: *reason,
            });
        }
        let Some(f) = result.canonical() else {
            return Err(CoreError::CompletionLimit(format!(
                "block {} did not yield a canonical polynomial (Case 2)",
                inst.name
            )));
        };
        blocks.push((inst.name.clone(), f.clone(), result.stats));
    }

    // 2. Word-level composition over the design's primary input words.
    let compose_span = options.telemetry.span(Phase::Compose);

    // Polynomial of every signal, over the design's input words: input
    // word `i` is `VarId(i)`.
    let mut signal_poly: Vec<Poly> = Vec::with_capacity(design.blocks.len());
    let poly_of = |sig: Signal, signal_poly: &[Poly]| -> Poly {
        match sig {
            Signal::PrimaryInput(i) => {
                Poly::from_terms(vec![(Monomial::var(VarId(i as u32)), ctx.one())])
            }
            Signal::BlockOutput(i) => signal_poly[i].clone(),
        }
    };

    for (inst, (_, f, _)) in design.blocks.iter().zip(&blocks) {
        // The block polynomial's variables are VarId(0..m) for its input
        // words; substitute the connected signals' polynomials.
        //
        // Build a combined ring: placeholders for the block inputs
        // (greater), then the design input words.
        let m = inst.connections.len();
        let mut crb = RingBuilder::new(ctx.clone(), ExponentMode::Quotient);
        for j in 0..m {
            crb.add_var(format!("$in{j}"), VarKind::Word);
        }
        for (name, _) in &design.inputs {
            crb.add_var(name.clone(), VarKind::Word);
        }
        let cring = crb.build();
        let lift_design = |p: &Poly| p.relabel(|v| VarId(v.0 + m as u32));

        let mut acc = f.poly().clone(); // placeholders already at 0..m
        for (j, &sig) in inst.connections.iter().enumerate() {
            let rep = lift_design(&poly_of(sig, &signal_poly));
            acc = acc.substitute(VarId(j as u32), &rep, &cring)?;
        }
        debug_assert!(
            acc.variables().iter().all(|v| v.index() >= m),
            "all placeholders substituted"
        );
        signal_poly.push(acc.relabel(|v| VarId(v.0 - m as u32)));
    }

    let final_poly = poly_of(design.output, &signal_poly);
    let names = design.inputs.iter().map(|(n, _)| n.clone()).collect();
    let function = WordFunction::new(ctx.clone(), names, final_poly);
    let compose_time = compose_span.finish();

    Ok(HierExtraction {
        function,
        blocks,
        compose_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_circuits::montgomery_multiplier_hier;
    use gfab_field::nist::irreducible_polynomial;
    use gfab_field::Gf2Poly;

    #[test]
    fn montgomery_hierarchy_composes_to_ab() {
        // The headline hierarchical result: four MonPro blocks compose to
        // G = A·B (Fig. 1).
        for k in [4usize, 8] {
            let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
            let design = montgomery_multiplier_hier(&ctx);
            let result = extract_hierarchical(&design, &ctx, &ExtractOptions::default()).unwrap();
            assert_eq!(format!("{}", result.function.display()), "A*B", "k = {k}");
            assert_eq!(result.blocks.len(), 4);
        }
    }

    #[test]
    fn block_polynomials_carry_montgomery_factors() {
        // Blk A must abstract to R²·R⁻¹·A = R·A.
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
        let design = montgomery_multiplier_hier(&ctx);
        let result = extract_hierarchical(&design, &ctx, &ExtractOptions::default()).unwrap();
        let (name, blk_a, _) = &result.blocks[0];
        assert_eq!(name, "blk_a");
        let r = ctx.montgomery_r();
        for a in ctx.iter_elements() {
            assert_eq!(blk_a.eval(std::slice::from_ref(&a)), ctx.mul(&r, &a));
        }
        // Blk Mid abstracts to A·B·R⁻¹.
        let (_, blk_mid, _) = &result.blocks[2];
        let rinv = ctx.montgomery_r_inv();
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                assert_eq!(
                    blk_mid.eval(&[a.clone(), b.clone()]),
                    ctx.mul(&ctx.mul(&a, &b), &rinv)
                );
            }
        }
    }

    #[test]
    fn hier_matches_flattened_extraction() {
        let ctx = GfContext::shared(irreducible_polynomial(5).unwrap()).unwrap();
        let design = montgomery_multiplier_hier(&ctx);
        let hier = extract_hierarchical(&design, &ctx, &ExtractOptions::default()).unwrap();
        let flat = design.flatten();
        let direct = crate::extract_word_polynomial(&flat, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        assert!(hier.function.matches(&direct));
    }
}
