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
use crate::wordfn::WordFunction;
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::{NetId, Netlist};
use gfab_poly::buchberger::{reduced_groebner_basis_traced, GbLimits, GbOutcome, GbStats};
use gfab_poly::vanishing::vanishing_ideal_all;
use gfab_poly::{ExponentMode, Monomial, Poly, RingBuilder, VarId, VarKind};
use gfab_telemetry::Telemetry;
use std::sync::Arc;

/// Variable-ordering policy for the circuit bits (Definition 4.2 allows an
/// arbitrary relative order; Definition 5.1 refines it to reverse
/// topological). Exposed to support the RATO-vs-arbitrary ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitVarOrder {
    /// Net creation order (an "arbitrary" order in the sense of Def. 4.2).
    Declaration,
    /// Reverse topological order (RATO, Def. 5.1).
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
/// Netlist/model errors, [`CoreError::Poly`] for `k > 63`, and
/// [`CoreError::MissingAbstractionPolynomial`] if a *completed* basis
/// lacks the `Z + G(A)` element (contradicting Theorem 4.2).
pub fn full_gb_abstraction_traced(
    nl: &Netlist,
    ctx: &Arc<GfContext>,
    order: CircuitVarOrder,
    limits: &GbLimits,
    budget: &Budget,
    tele: &Telemetry,
) -> Result<FullGbOutcome, CoreError> {
    nl.validate()?;
    // Build a Plain-mode ring: circuit bits (per `order`) > PI bits > Z >
    // input words.
    let levels =
        gfab_netlist::topo::reverse_topological_levels(nl).expect("validated netlist is acyclic");
    let mut internal: Vec<NetId> = nl
        .gates()
        .iter()
        .map(|g| g.output)
        .filter(|&n| !nl.is_primary_input(n))
        .collect();
    if order == CircuitVarOrder::ReverseTopological {
        internal.sort_by_key(|&n| (levels[n.index()], n.0));
    }
    let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Plain);
    let mut net_var: Vec<Option<VarId>> = vec![None; nl.num_nets()];
    let mut used = std::collections::HashMap::new();
    for &n in &internal {
        let name = crate::model::unique_var_name(&mut used, nl.net_name(n));
        net_var[n.index()] = Some(rb.add_var(name, VarKind::Bit));
    }
    for w in nl.input_words() {
        for &b in &w.bits {
            let name = crate::model::unique_var_name(&mut used, nl.net_name(b));
            net_var[b.index()] = Some(rb.add_var(name, VarKind::Bit));
        }
    }
    let z_var = rb.add_var(nl.output_word().name.clone(), VarKind::Word);
    let input_vars: Vec<VarId> = nl
        .input_words()
        .iter()
        .map(|w| rb.add_var(w.name.clone(), VarKind::Word))
        .collect();
    let ring = rb.build();
    let nv = |n: NetId| net_var[n.index()].expect("net has a variable");

    // Generators: gate polynomials + word definitions + J_0 (explicit).
    let one = ctx.one();
    let mut generators: Vec<Poly> = nl
        .gates()
        .iter()
        .map(|g| crate::model::gate_polynomial(&ring, ctx, g, &nv))
        .collect();
    let word_poly = |bits: &[NetId], w: VarId| -> Poly {
        let mut terms: Vec<(Monomial, gfab_field::Gf)> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (Monomial::var(nv(b)), ctx.alpha_pow(i as u64)))
            .collect();
        terms.push((Monomial::var(w), one.clone()));
        Poly::from_terms(terms)
    };
    generators.push(word_poly(&nl.output_word().bits, z_var));
    for (w, &v) in nl.input_words().iter().zip(&input_vars) {
        generators.push(word_poly(&w.bits, v));
    }
    generators.extend(vanishing_ideal_all(&ring)?);

    match reduced_groebner_basis_traced(&ring, &generators, limits, budget, tele)? {
        GbOutcome::LimitExceeded { reason, stats } => Ok(FullGbOutcome::GaveUp { reason, stats }),
        GbOutcome::Complete { basis, stats } => {
            let hit = basis
                .iter()
                .find(|p| p.leading_monomial() == Some(&Monomial::var(z_var)));
            let Some(p) = hit else {
                return Err(CoreError::MissingAbstractionPolynomial);
            };
            let g = p.add(&Poly::from_terms(vec![(Monomial::var(z_var), one.clone())]));
            let ok = g.variables().iter().all(|&v| input_vars.contains(&v));
            if !ok {
                return Err(CoreError::MissingAbstractionPolynomial);
            }
            let relabeled = g.relabel(|v| {
                VarId(input_vars.iter().position(|&w| w == v).expect("input var") as u32)
            });
            let names = nl.input_words().iter().map(|w| w.name.clone()).collect();
            Ok(FullGbOutcome::Canonical {
                function: WordFunction::new(ctx.clone(), names, relabeled),
                basis_size: basis.len(),
                stats,
            })
        }
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
