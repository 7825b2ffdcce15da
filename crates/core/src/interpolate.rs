//! Exhaustive Lagrange interpolation over small fields.
//!
//! Section 1 of the paper notes the canonical polynomial "can be derived by
//! means of the Lagrange interpolation formula; however, this requires to
//! analyze f over the entire field, which is exhaustive and infeasible" at
//! scale. We implement it anyway: on tiny fields it is a perfect
//! *independent oracle* for the Gröbner-basis extraction (the two must
//! agree term by term by uniqueness of the canonical form, Definition 3.1).

use crate::error::CoreError;
use crate::extract::quotient_normalize;
use crate::wordfn::WordFunction;
use gfab_field::{Gf, GfContext};
use gfab_netlist::sim::simulate_word;
use gfab_netlist::Netlist;
use gfab_poly::{ExponentMode, Monomial, Poly, RingBuilder, VarId, VarKind};
use std::sync::Arc;

/// Maximum number of simulation points the interpolator accepts
/// (`q^inputs`); beyond this the method is "exhaustive and infeasible" by
/// the paper's own argument and we refuse rather than hang.
pub const MAX_POINTS: u64 = 1 << 14;

/// Interpolates the canonical polynomial of `nl` by exhaustive simulation:
///
/// `F(X₁, …, X_d) = Σ_a f(a) · Π_j (1 − (X_j − a_j)^{q−1})`
///
/// # Errors
///
/// [`CoreError::SignatureMismatch`] if `q^d > MAX_POINTS` (field/arity too
/// large for exhaustive interpolation) and [`CoreError::Poly`] on
/// arithmetic failure.
pub fn interpolate(nl: &Netlist, ctx: &Arc<GfContext>) -> Result<WordFunction, CoreError> {
    nl.validate()?;
    let d = nl.input_words().len();
    let Some(q) = ctx.order_u64() else {
        return Err(CoreError::SignatureMismatch(
            "interpolation requires k <= 63".into(),
        ));
    };
    let points = q.checked_pow(d as u32).filter(|&p| p <= MAX_POINTS);
    let Some(total) = points else {
        return Err(CoreError::SignatureMismatch(format!(
            "interpolation over q^d = {q}^{d} points exceeds the {MAX_POINTS} limit"
        )));
    };

    // Ring over the input words only.
    let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Quotient);
    let vars: Vec<VarId> = nl
        .input_words()
        .iter()
        .map(|w| rb.add_var(w.name.clone(), VarKind::Word))
        .collect();
    let ring = rb.build();
    let one = ctx.one();

    // Precompute, per variable, the indicator polynomials
    // 1 − (X − a)^{q−1} for every field point a. (X − a)^{q−1} expands by
    // repeated multiplication — fine for tiny q.
    let mut indicators: Vec<Vec<Poly>> = Vec::with_capacity(d);
    for &v in &vars {
        let mut per_point = Vec::with_capacity(q as usize);
        for bits in 0..q {
            let a = ctx.from_u64(bits);
            // base = X + a (characteristic 2).
            let base =
                Poly::from_terms(vec![(Monomial::var(v), one.clone()), (Monomial::one(), a)]);
            let mut pow = ring.constant(one.clone());
            for _ in 0..(q - 1) {
                pow = pow.mul(&base, &ring)?;
            }
            // 1 − pow = 1 + pow.
            let indicator = pow.add(&ring.constant(one.clone()));
            per_point.push(indicator);
        }
        indicators.push(per_point);
    }

    let mut acc = Poly::zero();
    for pattern in 0..total {
        // Decode the point (a_1, …, a_d) in base q.
        let mut rem = pattern;
        let mut point_bits = Vec::with_capacity(d);
        for _ in 0..d {
            point_bits.push(rem % q);
            rem /= q;
        }
        let words: Vec<Gf> = point_bits.iter().map(|&b| ctx.from_u64(b)).collect();
        let value = simulate_word(nl, ctx, &words);
        if value.is_zero() {
            continue;
        }
        let mut term = ring.constant(value);
        for (j, &b) in point_bits.iter().enumerate() {
            term = term.mul(&indicators[j][b as usize], &ring)?;
        }
        acc = acc.add(&term);
    }
    let acc = quotient_normalize(&ring, &acc);
    let names = nl.input_words().iter().map(|w| w.name.clone()).collect();
    Ok(WordFunction::new(ctx.clone(), names, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract_word_polynomial;
    use gfab_circuits::registry::{build_pair, ALL_ARCHES};
    use gfab_field::nist::irreducible_polynomial;
    use gfab_field::Gf2Poly;
    use gfab_netlist::mutate::inject_random_bug;
    use gfab_netlist::random::{random_circuit, RandomCircuitSpec};

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
    fn interpolation_recovers_product() {
        let ctx = f4();
        let f = interpolate(&fig2(), &ctx).unwrap();
        assert_eq!(format!("{}", f.display()), "A*B");
    }

    #[test]
    fn interpolation_matches_extraction_on_random_circuits() {
        // The decisive cross-check: two completely independent derivations
        // of the canonical polynomial must agree exactly (uniqueness).
        // Random logic and faulted registry circuits mostly land in Case 2.
        let mut circuits = Vec::new();
        for seed in 0..15 {
            let nl = random_circuit(&RandomCircuitSpec {
                num_input_words: 2,
                width: 2,
                num_gates: 20,
                seed,
            });
            circuits.push((format!("random seed {seed}"), f4(), nl));
        }
        for k in [2usize, 3] {
            let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
            for arch in ALL_ARCHES.into_iter().filter(|a| a.supports_k(k)) {
                for seed in 0..4 {
                    let (_, impl_) = build_pair(arch, &ctx, seed);
                    // A squarer or constant multiplier can be all XORs and
                    // buffers at this size, with no 2-input gate to fault.
                    if impl_.gates().iter().all(|g| g.kind.arity() != 2) {
                        continue;
                    }
                    let (bad, what) = inject_random_bug(&impl_, seed);
                    circuits.push((format!("k={k} {arch} {what}"), ctx.clone(), bad));
                }
            }
        }
        let mut case2 = 0;
        for (label, ctx, nl) in circuits {
            let result = extract_word_polynomial(&nl, &ctx).unwrap();
            case2 += usize::from(result.stats.case2_completion);
            let via_extraction = result
                .canonical()
                .cloned()
                .unwrap_or_else(|| panic!("{label}: completion failed"));
            let via_lagrange = interpolate(&nl, &ctx).unwrap();
            assert!(
                via_extraction.matches(&via_lagrange),
                "{label}: extraction {} != Lagrange {}",
                via_extraction.display(),
                via_lagrange.display()
            );
        }
        assert!(case2 >= 40, "only {case2} circuits reached Case 2");
    }

    #[test]
    fn oversized_instances_are_refused() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[8, 4, 3, 1, 0])).unwrap();
        let mut nl = Netlist::new("big");
        let a = nl.add_input_word("A", 8);
        let b = nl.add_input_word("B", 8);
        let z: Vec<_> = (0..8).map(|i| nl.xor(a[i], b[i])).collect();
        nl.set_output_word("Z", z);
        assert!(matches!(
            interpolate(&nl, &ctx),
            Err(CoreError::SignatureMismatch(_))
        ));
    }
}
