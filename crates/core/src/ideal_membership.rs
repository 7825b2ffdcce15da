//! The Lv–Kalla–Enescu TCAD'13 baseline (reference \[5\] of the paper):
//! verification by **ideal membership test** when the specification
//! polynomial is *given*.
//!
//! Unlike the abstraction flow — which derives the spec — this method
//! checks a known `f_spec : Z + F(A, B, …)` against the circuit by a
//! sequence of divisions: under a term order where the *word* variables
//! are greatest (`Z > A > B > circuit nets > primary-input bits`), the
//! normal form of `f_spec` modulo the circuit polynomials and `J_0`
//! vanishes iff the circuit implements `F`.
//!
//! Completeness follows because the divisor set is triangular (one
//! polynomial per non-PI variable) and reduction terminates in the unique
//! multilinear form over the primary-input bits — the circuit's bit-level
//! canonical form — which is zero iff the function matches. This is the
//! flow whose "size explosion of intermediate remainders" motivates the
//! paper's RATO refinement; the benches reproduce the comparison.

use crate::error::CoreError;
use crate::fullgb::CircuitVarOrder;
use crate::model::{CircuitModel, GateDivisors};
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::Netlist;
use gfab_poly::reduce::{Reducer, ReductionStats};
use gfab_poly::{ExponentMode, Monomial, Poly, Ring, RingBuilder, VarId, VarKind};
use std::sync::Arc;

/// The verdict of an ideal membership test.
#[derive(Debug, Clone)]
pub struct MembershipOutcome {
    /// Whether `Z + F(A,B,…)` reduced to zero (circuit implements `F`).
    pub verified: bool,
    /// The non-zero normal form on failure (over primary-input bits).
    pub remainder: Option<Poly>,
    /// Reduction effort.
    pub stats: ReductionStats,
}

/// A specification polynomial builder for the membership test: the ring
/// over `Z > A > B > …` word variables in which to express `F`.
#[derive(Debug)]
pub struct SpecRing {
    /// The word-variable ring (`Z` is `VarId(0)`, inputs follow).
    pub ring: Ring,
    /// The output variable `Z`.
    pub z: VarId,
    /// The input word variables in declaration order.
    pub inputs: Vec<VarId>,
}

/// Creates the word-variable ring matching `nl`'s interface, for writing
/// the specification polynomial `F(A, B, …)`.
pub fn spec_ring(nl: &Netlist, ctx: &Arc<GfContext>) -> SpecRing {
    let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Quotient);
    let z = rb.add_var(nl.output_word().name.clone(), VarKind::Word);
    let inputs: Vec<VarId> = nl
        .input_words()
        .iter()
        .map(|w| rb.add_var(w.name.clone(), VarKind::Word))
        .collect();
    SpecRing {
        ring: rb.build(),
        z,
        inputs,
    }
}

/// Tests whether the circuit implements `Z = spec_f(A, B, …)`, where
/// `spec_f` is expressed in [`spec_ring`]'s variables **without** `Z`
/// (the function body `F`, e.g. `A·B` for a multiplier).
///
/// # Errors
///
/// Model construction and polynomial arithmetic errors, as
/// [`crate::extract_word_polynomial_with`].
pub fn verify_against_spec(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    spec: &SpecRing,
    spec_f: &Poly,
) -> Result<MembershipOutcome, CoreError> {
    // Ring: Z > input words > internal nets (RATO) > PI bits. The word
    // definitions now lead with their WORD variable (Z > z_0 …, A > a_0 …).
    let rato = CircuitVarOrder::ReverseTopological;
    let unlimited = Budget::unlimited();
    let literal = GateDivisors::Literal;
    let m = CircuitModel::build_in(
        nl,
        ctx,
        ExponentMode::Quotient,
        rato,
        true,
        literal,
        &unlimited,
    )?;

    // f = Z + F(A, …): relabel the spec body into this ring.
    let spec_body = spec_f.relabel(|v| {
        let pos = spec
            .inputs
            .iter()
            .position(|&w| w == v)
            .expect("spec body uses input word variables only");
        m.input_vars[pos]
    });
    let f = spec_body.add(&m.ring.var_poly(m.z_var));

    let reducer = Reducer::new(&m.ring, m.all_divisors());
    let (nf, stats) = reducer.normal_form_with_stats(&f)?;
    Ok(MembershipOutcome {
        verified: nf.is_zero(),
        remainder: (!nf.is_zero()).then_some(nf),
        stats,
    })
}

/// Convenience: the multiplier specification `F = A·B` in `spec`'s ring.
pub fn multiplier_spec(spec: &SpecRing, ctx: &GfContext) -> Poly {
    Poly::from_terms(vec![(
        Monomial::from_factors(vec![(spec.inputs[0], 1), (spec.inputs[1], 1)]),
        ctx.one(),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_circuits::{mastrovito_multiplier, monpro, MonproOperand};
    use gfab_field::nist::irreducible_polynomial;
    use gfab_field::Gf2Poly;
    use gfab_netlist::mutate::inject_random_bug;

    #[test]
    fn mastrovito_passes_product_spec() {
        for k in [2usize, 3, 4, 8] {
            let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
            let nl = mastrovito_multiplier(&ctx);
            let sr = spec_ring(&nl, &ctx);
            let f = multiplier_spec(&sr, &ctx);
            let out = verify_against_spec(&nl, &ctx, &sr, &f).unwrap();
            assert!(out.verified, "k={k}");
        }
    }

    #[test]
    fn buggy_mastrovito_fails_product_spec() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
        let good = mastrovito_multiplier(&ctx);
        for seed in 0..6 {
            let (bad, what) = inject_random_bug(&good, seed);
            let sr = spec_ring(&bad, &ctx);
            let f = multiplier_spec(&sr, &ctx);
            let out = verify_against_spec(&bad, &ctx, &sr, &f).unwrap();
            // A mutation may coincidentally preserve the function; check
            // against simulation for agreement of verdicts.
            let sim_equal =
                gfab_netlist::sim::exhaustive_check(&bad, &ctx, |w| ctx.mul(&w[0], &w[1])).is_ok();
            assert_eq!(out.verified, sim_equal, "seed {seed}: {what}");
            if !out.verified {
                assert!(out.remainder.is_some());
            }
        }
    }

    #[test]
    fn montgomery_block_passes_abr_inverse_spec() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
        let nl = monpro(&ctx, "mm", MonproOperand::Word);
        let sr = spec_ring(&nl, &ctx);
        // F = R⁻¹ · A · B.
        let rinv = ctx.montgomery_r_inv();
        let f = multiplier_spec(&sr, &ctx).scale(&rinv, &sr.ring);
        let out = verify_against_spec(&nl, &ctx, &sr, &f).unwrap();
        assert!(out.verified);
    }

    #[test]
    fn wrong_spec_is_rejected() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = mastrovito_multiplier(&ctx);
        let sr = spec_ring(&nl, &ctx);
        // Claim the multiplier computes A + B.
        let f = Poly::from_terms(vec![
            (Monomial::var(sr.inputs[0]), ctx.one()),
            (Monomial::var(sr.inputs[1]), ctx.one()),
        ]);
        let out = verify_against_spec(&nl, &ctx, &sr, &f).unwrap();
        assert!(!out.verified);
    }
}
