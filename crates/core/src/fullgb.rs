//! The unguided full Gröbner-basis abstraction — the paper's SINGULAR
//! `slimgb` baseline (Section 6: "we find that the technique is infeasible
//! (memory explosion) beyond only 32-bit circuits; the full Gröbner basis
//! using elimination orders is extremely large").
//!
//! This computes `GB(J + J_0)` under the abstraction term order of
//! Definition 4.2 with **no** RATO guidance and **no** critical-pair
//! collapse, then reads the `Z + G(A)` polynomial off the reduced basis
//! (Theorem 4.2 / Corollary 4.1). It exists to validate the theorem on
//! small circuits and to measure how quickly the unguided route explodes.

use crate::error::CoreError;
use crate::model::{word_function, CircuitModel, GateDivisors};
use crate::wordfn::WordFunction;
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::Netlist;
use gfab_poly::buchberger::{reduced_groebner_basis_traced, GbLimits, GbOutcome, GbStats};
use gfab_poly::vanishing::vanishing_ideal_all;
use gfab_poly::{ExponentMode, Poly};
use gfab_telemetry::Telemetry;
use std::sync::Arc;

/// Variable-ordering policy for the circuit bits (Definition 4.2 allows an
/// arbitrary relative order; Definition 5.1 refines it to reverse
/// topological). Exposed to support the RATO-vs-arbitrary ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitVarOrder {
    /// Gate order (an "arbitrary" order in the sense of Def. 4.2).
    Declaration,
    /// Reverse topological order (RATO, Def. 5.1), ranked by
    /// [`gfab_netlist::topo::rato_order`].
    ReverseTopological,
}

/// Outcome of the full-GB abstraction.
#[derive(Debug, Clone)]
pub enum FullGbOutcome {
    /// The canonical word function, read off the reduced basis.
    Canonical {
        /// The extracted word function.
        function: WordFunction,
        /// Size of the reduced Gröbner basis.
        basis_size: usize,
        /// Buchberger effort statistics.
        stats: GbStats,
    },
    /// The computation hit its resource limits (the expected result beyond
    /// small k — this is the paper's "memory explosion" made graceful).
    GaveUp {
        /// Which limit was hit.
        reason: String,
        /// Effort statistics at the point of giving up.
        stats: GbStats,
    },
}

/// Runs the unguided full Gröbner-basis abstraction on `nl`: the plain
/// entry point of [`full_gb_abstraction_traced`] (no budget, telemetry
/// off).
///
/// # Errors
///
/// As [`full_gb_abstraction_traced`].
pub fn full_gb_abstraction(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    order: CircuitVarOrder,
    limits: &GbLimits,
) -> Result<FullGbOutcome, CoreError> {
    let (budget, tele) = (Budget::unlimited(), Telemetry::disabled());
    full_gb_abstraction_traced(nl, ctx, order, limits, &budget, &tele)
}

/// The unguided full Gröbner-basis abstraction under a cooperative
/// [`Budget`], polled in the Buchberger pair loop and the inner
/// reductions. Exhaustion degrades to [`FullGbOutcome::GaveUp`] — exactly
/// like the paper-facing resource limits, since for this deliberately
/// explosive baseline giving up *is* the expected result. The Buchberger
/// completion and basis reduction record spans and effort counters under
/// `tele`'s current span.
///
/// Requires `k ≤ 63` (the vanishing polynomials `X^q − X` for the word
/// variables must be explicit generators).
///
/// # Errors
///
/// * [`CoreError::Netlist`] if validation fails;
/// * [`CoreError::WidthMismatch`] if any word is wider than `k`;
/// * [`CoreError::Poly`] for `k > 63`;
/// * [`CoreError::MissingAbstractionPolynomial`] if a *completed* basis
///   lacks the `Z + G(A)` element (contradicting Theorem 4.2).
pub fn full_gb_abstraction_traced(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    order: CircuitVarOrder,
    limits: &GbLimits,
    budget: &Budget,
    tele: &Telemetry,
) -> Result<FullGbOutcome, CoreError> {
    // Circuit bits (per `order`) > PI bits > Z > input words, in Plain
    // mode: J_0 must be explicit generators.
    let unlimited = Budget::unlimited();
    let literal = GateDivisors::Literal;
    let m = CircuitModel::build_in(
        nl,
        ctx,
        ExponentMode::Plain,
        order,
        false,
        literal,
        &unlimited,
    )?;
    // Gates in topological order: Buchberger's pair order follows the
    // generator list, which must not depend on how the netlist was built.
    // The explicit gate polynomials are built here, from the records.
    let gates = gfab_netlist::topo::topological_gates(nl).expect("validated netlist is acyclic");
    let gate_polys = gates
        .iter()
        .map(|&g| m.gate_poly(m.net_var[nl.gate(g).output.index()]));
    let words = [&m.output_word_poly].into_iter().chain(&m.input_word_polys);
    let mut generators: Vec<Poly> = gate_polys.chain(words.cloned()).collect();
    generators.extend(vanishing_ideal_all(&m.ring)?);

    match reduced_groebner_basis_traced(&m.ring, &generators, limits, budget, tele)? {
        GbOutcome::LimitExceeded { reason, stats } => Ok(FullGbOutcome::GaveUp { reason, stats }),
        GbOutcome::Complete { basis, stats } => Ok(FullGbOutcome::Canonical {
            function: word_function(&m.ring, m.z_var, &m.input_vars, &basis)?,
            basis_size: basis.len(),
            stats,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_word_polynomial;
    use gfab_field::Gf2Poly;

    fn f4() -> Arc<GfContext> {
        GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap()
    }

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
    fn example_4_2_full_gb_contains_z_plus_ab() {
        // Example 4.2 of the paper: the GB of J + J_0 under the abstraction
        // order contains g7 : Z + A·B.
        let ctx = f4();
        let out = full_gb_abstraction(
            &fig2(),
            &ctx,
            CircuitVarOrder::ReverseTopological,
            &GbLimits::default(),
        )
        .unwrap();
        match out {
            FullGbOutcome::Canonical { function, .. } => {
                assert_eq!(format!("{}", function.display()), "A*B");
            }
            FullGbOutcome::GaveUp { reason, .. } => panic!("gave up: {reason}"),
        }
    }

    #[test]
    fn full_gb_agrees_with_guided_extraction() {
        let ctx = f4();
        let nl = fig2();
        let guided = extract_word_polynomial(&nl, &ctx)
            .unwrap()
            .canonical()
            .cloned()
            .unwrap();
        for order in [
            CircuitVarOrder::Declaration,
            CircuitVarOrder::ReverseTopological,
        ] {
            match full_gb_abstraction(&nl, &ctx, order, &GbLimits::default()).unwrap() {
                FullGbOutcome::Canonical { function, .. } => {
                    assert!(function.matches(&guided), "{order:?}");
                }
                FullGbOutcome::GaveUp { reason, .. } => panic!("{order:?} gave up: {reason}"),
            }
        }
    }

    #[test]
    fn limits_produce_graceful_giveup() {
        let ctx = f4();
        let limits = GbLimits {
            max_pair_reductions: 1,
            ..GbLimits::default()
        };
        match full_gb_abstraction(&fig2(), &ctx, CircuitVarOrder::Declaration, &limits).unwrap() {
            FullGbOutcome::GaveUp { .. } => {}
            FullGbOutcome::Canonical { .. } => {
                panic!("a 7-gate multiplier needs more than one pair reduction")
            }
        }
    }
}
