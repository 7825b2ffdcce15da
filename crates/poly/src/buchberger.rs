//! S-polynomials and Buchberger's algorithm (Algorithm 1 of the paper),
//! with the product criterion (Lemma 5.1) and the chain criterion, plus
//! reduced Gröbner bases (Corollary 4.1 relies on reducedness for
//! canonicity).
//!
//! This module is deliberately the *textbook* engine: it is used to
//! validate the guided extraction of `gfab-core` on small instances and to
//! reproduce the paper's negative result that a full elimination-order GB
//! (the SINGULAR `slimgb` baseline) blows up beyond small datapaths.

use crate::monomial::Monomial;
use crate::poly::Poly;
use crate::reduce::Reducer;
use crate::ring::{PolyError, Ring};
use gfab_field::budget::{Budget, BudgetExceeded};
use gfab_telemetry::{Counter, Hist, HistData, Phase, Telemetry};
use std::time::Duration;

/// Statistics of one Gröbner basis computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GbStats {
    /// Pairs considered (after criteria pruning).
    pub pairs_reduced: u64,
    /// Pairs skipped by the product criterion.
    pub pairs_skipped_product: u64,
    /// Pairs skipped by the chain criterion.
    pub pairs_skipped_chain: u64,
    /// Number of basis polynomials at the end (before reduction).
    pub basis_size: usize,
    /// Division steps across all inner S-polynomial reductions.
    pub division_steps: u64,
    /// Distribution of division-chain lengths (one sample per reduced
    /// S-polynomial; the `division-chain-len` telemetry histogram).
    pub chain_hist: HistData,
    /// Distribution of S-polynomial sizes in terms (one sample per
    /// reduced pair; the `s-poly-terms` telemetry histogram).
    pub spoly_hist: HistData,
    /// Merged working-store size samples from all inner reductions (the
    /// `reduction-poly-size` telemetry histogram).
    pub size_hist: HistData,
}

/// Resource limits for a Gröbner basis computation. The paper's full-GB
/// baseline is *expected* to explode; limits turn that into a clean
/// "gave up" result instead of an OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GbLimits {
    /// Maximum number of S-polynomial reductions.
    pub max_pair_reductions: u64,
    /// Maximum number of polynomials in the working basis.
    pub max_basis: usize,
    /// Maximum number of terms in any single basis polynomial.
    pub max_poly_terms: usize,
    /// Wall-clock budget in milliseconds (`0` = unlimited). The paper's
    /// baselines ran under a 24-hour timeout; this is the same knob. It
    /// binds at every budget poll of the pair loop and of the basis
    /// inter-reduction, inside each normal form too, without stopping the
    /// caller's budget.
    pub max_wall_ms: u64,
}

impl Default for GbLimits {
    fn default() -> Self {
        GbLimits {
            max_pair_reductions: 2_000_000,
            max_basis: 100_000,
            max_poly_terms: 10_000_000,
            max_wall_ms: 0,
        }
    }
}

/// The budget one Gröbner computation runs under: the caller's, narrowed
/// to [`GbLimits::max_wall_ms`] by a child budget when that is set. The
/// child charges all work to the caller's budget, and its own deadline
/// stops only the Gröbner computation.
struct GbBudget<'a> {
    caller: &'a Budget,
    scoped: Budget,
    wall_ms: u64,
}

impl<'a> GbBudget<'a> {
    fn new(caller: &'a Budget, limits: &GbLimits) -> Self {
        let wall_ms = limits.max_wall_ms;
        let scoped = if wall_ms > 0 {
            caller.child_with_deadline(Duration::from_millis(wall_ms))
        } else {
            caller.clone()
        };
        GbBudget {
            caller,
            scoped,
            wall_ms,
        }
    }

    /// The [`GbOutcome::LimitExceeded`] reason for a stop of the scoped
    /// budget, `during` a phase (empty for the pair loop): the wall limit
    /// when only the child ran out, else the caller's exhausted resource.
    fn reason(&self, e: BudgetExceeded, during: &str) -> String {
        if self.caller.exhausted().is_none() {
            format!("exceeded {} ms wall-clock budget{during}", self.wall_ms)
        } else {
            format!("budget exhausted{during}: {}", e.reason)
        }
    }
}

/// Outcome of a (possibly limited) Gröbner basis computation.
#[derive(Debug, Clone)]
pub enum GbOutcome {
    /// A completed Gröbner basis.
    Complete {
        /// The basis polynomials.
        basis: Vec<Poly>,
        /// Effort statistics.
        stats: GbStats,
    },
    /// The computation hit a [`GbLimits`] bound.
    LimitExceeded {
        /// Which limit was hit, for reporting.
        reason: String,
        /// Effort statistics at the point of giving up.
        stats: GbStats,
    },
}

/// The S-polynomial `Spoly(f, g) = (L / lt(f))·f − (L / lt(g))·g` with
/// `L = lcm(lm(f), lm(g))` (characteristic 2, so the difference is a sum).
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
///
/// # Panics
///
/// Panics if either polynomial is zero.
pub fn spoly(ring: &Ring, f: &Poly, g: &Poly) -> Result<Poly, PolyError> {
    let (lmf, lcf) = f.leading_term().expect("spoly of zero polynomial");
    let (lmg, lcg) = g.leading_term().expect("spoly of zero polynomial");
    let l = lmf.lcm(lmg);
    let ctx = ring.ctx();
    let uf = lmf.quotient_of(&l);
    let ug = lmg.quotient_of(&l);
    // Invert both leading coefficients with a single extended GCD
    // (Montgomery's trick); gate polynomials are monic, so skip entirely
    // in the common case.
    let (cf, cg) = if lcf.is_one() && lcg.is_one() {
        (ctx.one(), ctx.one())
    } else {
        let mut invs = ctx
            .batch_inv(&[lcf.clone(), lcg.clone()])
            .expect("non-zero leading coefficients");
        let cg = invs.pop().expect("two inverses");
        let cf = invs.pop().expect("two inverses");
        (cf, cg)
    };
    let a = f.mul_term(&uf, &cf, ring)?;
    let b = g.mul_term(&ug, &cg, ring)?;
    Ok(a.add(&b))
}

/// Buchberger's algorithm with the product and chain criteria.
///
/// Returns a (non-reduced) Gröbner basis of the ideal generated by
/// `generators`, or a limit-exceeded outcome.
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
pub fn buchberger(
    ring: &Ring,
    generators: &[Poly],
    limits: &GbLimits,
) -> Result<GbOutcome, PolyError> {
    buchberger_budgeted(ring, generators, limits, &Budget::unlimited())
}

/// [`buchberger`] under a cooperative [`Budget`]: the budget is polled once
/// per S-polynomial reduction (charging one work unit) and threaded into
/// every inner normal-form computation, as is the
/// [`GbLimits::max_wall_ms`] deadline. Exhaustion is reported as a
/// graceful [`GbOutcome::LimitExceeded`], never an error — the paper's
/// full-GB baseline is *expected* to blow up.
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
pub fn buchberger_budgeted(
    ring: &Ring,
    generators: &[Poly],
    limits: &GbLimits,
    budget: &Budget,
) -> Result<GbOutcome, PolyError> {
    buchberger_scoped(ring, generators, limits, &GbBudget::new(budget, limits))
}

fn buchberger_scoped(
    ring: &Ring,
    generators: &[Poly],
    limits: &GbLimits,
    gb: &GbBudget,
) -> Result<GbOutcome, PolyError> {
    let budget = &gb.scoped;
    let mut basis: Vec<Poly> = generators
        .iter()
        .filter(|p| !p.is_zero())
        .cloned()
        .collect();
    let mut stats = GbStats::default();

    // Pending pairs as index pairs (i < j), processed in order of smallest
    // lcm first (the "normal selection" strategy).
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for j in 1..basis.len() {
        for i in 0..j {
            pairs.push((i, j));
        }
    }

    let lcm_of = |basis: &Vec<Poly>, i: usize, j: usize| -> Monomial {
        basis[i]
            .leading_monomial()
            .expect("basis polynomials are non-zero")
            .lcm(basis[j].leading_monomial().expect("non-zero"))
    };

    let mut processed: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();

    while !pairs.is_empty() {
        // Normal selection: smallest lcm.
        let (best_idx, _) = pairs
            .iter()
            .enumerate()
            .min_by(|(_, &(i1, j1)), (_, &(i2, j2))| {
                lcm_of(&basis, i1, j1).cmp(&lcm_of(&basis, i2, j2))
            })
            .expect("pairs is non-empty");
        let (i, j) = pairs.swap_remove(best_idx);
        processed.insert((i, j));

        let lmi = basis[i].leading_monomial().expect("non-zero").clone();
        let lmj = basis[j].leading_monomial().expect("non-zero").clone();

        // Product criterion (Lemma 5.1): coprime leading monomials reduce
        // to zero.
        if lmi.relatively_prime(&lmj) {
            stats.pairs_skipped_product += 1;
            continue;
        }

        // Chain criterion: if some t has lm(t) | lcm(i,j) and both (i,t)
        // and (j,t) were already processed, skip.
        let lcm_ij = lmi.lcm(&lmj);
        let chain_hit = (0..basis.len()).any(|t| {
            if t == i || t == j {
                return false;
            }
            let key_it = (i.min(t), i.max(t));
            let key_jt = (j.min(t), j.max(t));
            processed.contains(&key_it)
                && processed.contains(&key_jt)
                && basis[t]
                    .leading_monomial()
                    .is_some_and(|lmt| lmt.divides(&lcm_ij))
        });
        if chain_hit {
            stats.pairs_skipped_chain += 1;
            continue;
        }

        stats.pairs_reduced += 1;
        if let Err(e) = budget.tick(1) {
            stats.basis_size = basis.len();
            return Ok(GbOutcome::LimitExceeded {
                reason: gb.reason(e, ""),
                stats,
            });
        }
        if stats.pairs_reduced > limits.max_pair_reductions {
            stats.basis_size = basis.len();
            return Ok(GbOutcome::LimitExceeded {
                reason: format!(
                    "exceeded {} S-polynomial reductions",
                    limits.max_pair_reductions
                ),
                stats,
            });
        }

        let s = spoly(ring, &basis[i], &basis[j])?;
        stats.spoly_hist.record(s.num_terms() as u64);
        let reducer = Reducer::new(ring, basis.iter());
        let r = match reducer.normal_form_budgeted(&s, budget) {
            Ok((r, rstats)) => {
                stats.division_steps += rstats.steps;
                stats.chain_hist.record(rstats.steps);
                stats.size_hist.merge(&rstats.size_hist);
                r
            }
            Err(PolyError::BudgetExceeded(e)) => {
                stats.basis_size = basis.len();
                return Ok(GbOutcome::LimitExceeded {
                    reason: gb.reason(e, ""),
                    stats,
                });
            }
            Err(e) => return Err(e),
        };
        if !r.is_zero() {
            if r.num_terms() > limits.max_poly_terms {
                stats.basis_size = basis.len();
                return Ok(GbOutcome::LimitExceeded {
                    reason: format!(
                        "intermediate polynomial grew to {} terms (limit {})",
                        r.num_terms(),
                        limits.max_poly_terms
                    ),
                    stats,
                });
            }
            let new_idx = basis.len();
            basis.push(r);
            if basis.len() > limits.max_basis {
                stats.basis_size = basis.len();
                return Ok(GbOutcome::LimitExceeded {
                    reason: format!("basis grew past {} polynomials", limits.max_basis),
                    stats,
                });
            }
            for t in 0..new_idx {
                pairs.push((t, new_idx));
            }
        }
    }

    stats.basis_size = basis.len();
    Ok(GbOutcome::Complete { basis, stats })
}

/// Inter-reduces a Gröbner basis into the **reduced Gröbner basis**: every
/// polynomial is monic, no leading monomial divides another, and no term of
/// any polynomial is divisible by the leading monomial of another. The
/// reduced GB is the canonical representation of the ideal for the given
/// order (Corollary 4.1 of the paper).
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
pub fn reduce_basis(ring: &Ring, basis: &[Poly]) -> Result<Vec<Poly>, PolyError> {
    reduce_basis_budgeted(ring, basis, &Budget::unlimited())
}

/// [`reduce_basis`] under a cooperative [`Budget`] (polled before and
/// threaded into every inner normal-form computation).
///
/// # Errors
///
/// [`PolyError::BudgetExceeded`] when the budget runs out; otherwise
/// propagates [`PolyError::ExponentOverflow`].
pub fn reduce_basis_budgeted(
    ring: &Ring,
    basis: &[Poly],
    budget: &Budget,
) -> Result<Vec<Poly>, PolyError> {
    // 1. Drop polynomials whose leading monomial is divisible by another's.
    let mut kept: Vec<Poly> = Vec::new();
    'outer: for (idx, p) in basis.iter().enumerate() {
        let Some(lm) = p.leading_monomial() else {
            continue;
        };
        for (jdx, q) in basis.iter().enumerate() {
            if idx == jdx {
                continue;
            }
            if let Some(lmq) = q.leading_monomial() {
                if lmq.divides(lm) && (lmq != lm || jdx < idx) {
                    continue 'outer;
                }
            }
        }
        kept.push(p.clone());
    }
    // 2. Reduce each polynomial's tail against the others until stable.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..kept.len() {
            // One poll per normal form, so a deadline binds here even when
            // every reduction is shorter than the reducer's poll stride.
            budget.check()?;
            let others: Vec<Poly> = kept
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, p)| p.clone())
                .collect();
            let reducer = Reducer::new(ring, others.iter());
            let (r, _) = reducer.normal_form_budgeted(&kept[i], budget)?;
            if r != kept[i] {
                kept[i] = r;
                changed = true;
            }
        }
        kept.retain(|p| !p.is_zero());
    }
    // 3. Make monic (all leading coefficients inverted in one batch) and
    // sort by leading monomial descending for determinism.
    let lcs: Vec<gfab_field::Gf> = kept
        .iter()
        .map(|p| p.leading_coeff().expect("non-zero").clone())
        .collect();
    let invs = ring
        .ctx()
        .batch_inv(&lcs)
        .expect("leading coefficients are non-zero");
    let mut out: Vec<Poly> = kept
        .iter()
        .zip(&invs)
        .map(|(p, inv)| {
            if inv.is_one() {
                p.clone()
            } else {
                p.scale(inv, ring)
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.leading_monomial()
            .expect("non-zero")
            .cmp(a.leading_monomial().expect("non-zero"))
    });
    Ok(out)
}

/// Buchberger followed by [`reduce_basis`]: the plain entry point of
/// [`reduced_groebner_basis_traced`] (no budget, telemetry off).
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
pub fn reduced_groebner_basis(
    ring: &Ring,
    generators: &[Poly],
    limits: &GbLimits,
) -> Result<GbOutcome, PolyError> {
    let (budget, tele) = (Budget::unlimited(), Telemetry::disabled());
    reduced_groebner_basis_traced(ring, generators, limits, &budget, &tele)
}

/// Buchberger followed by [`reduce_basis`] under a cooperative
/// [`Budget`], with one [`GbLimits::max_wall_ms`] deadline across both
/// phases; exhaustion in either phase surfaces as a graceful
/// [`GbOutcome::LimitExceeded`]. The pair loop and the basis
/// inter-reduction each get a phase span under `tele`, with the
/// S-polynomial / pruning / division-effort counters attached.
///
/// # Errors
///
/// Propagates [`PolyError::ExponentOverflow`].
pub fn reduced_groebner_basis_traced(
    ring: &Ring,
    generators: &[Poly],
    limits: &GbLimits,
    budget: &Budget,
    tele: &Telemetry,
) -> Result<GbOutcome, PolyError> {
    let gb = GbBudget::new(budget, limits);
    let mut span = tele.span(Phase::Buchberger);
    let out = buchberger_scoped(ring, generators, limits, &gb)?;
    let stats = match &out {
        GbOutcome::Complete { stats, .. } | GbOutcome::LimitExceeded { stats, .. } => stats,
    };
    span.counter(Counter::SPolynomials, stats.pairs_reduced);
    span.counter(
        Counter::PairsSkipped,
        stats.pairs_skipped_product + stats.pairs_skipped_chain,
    );
    span.counter(Counter::ReductionSteps, stats.division_steps);
    span.counter(Counter::BasisSize, stats.basis_size as u64);
    span.observe_hist(Hist::DivisionChainLen, &stats.chain_hist);
    span.observe_hist(Hist::SPolyTerms, &stats.spoly_hist);
    span.observe_hist(Hist::ReductionPolySize, &stats.size_hist);
    let _ = span.finish();
    match out {
        GbOutcome::Complete { basis, stats } => {
            let rspan = tele.span(Phase::BasisReduction);
            let result = reduce_basis_budgeted(ring, &basis, &gb.scoped);
            let _ = rspan.finish();
            match result {
                Ok(basis) => Ok(GbOutcome::Complete { basis, stats }),
                Err(PolyError::BudgetExceeded(e)) => Ok(GbOutcome::LimitExceeded {
                    reason: gb.reason(e, " during basis reduction"),
                    stats,
                }),
                Err(e) => Err(e),
            }
        }
        out => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ExponentMode, RingBuilder, VarId, VarKind};
    use gfab_field::{Gf2Poly, GfContext};

    fn setup() -> (Ring, VarId, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, ExponentMode::Plain);
        let x = rb.add_var("x", VarKind::Bit);
        let y = rb.add_var("y", VarKind::Bit);
        let z = rb.add_var("z", VarKind::Bit);
        (rb.build(), x, y, z)
    }

    fn complete(out: GbOutcome) -> Vec<Poly> {
        match out {
            GbOutcome::Complete { basis, .. } => basis,
            GbOutcome::LimitExceeded { reason, .. } => panic!("GB gave up: {reason}"),
        }
    }

    #[test]
    fn spoly_cancels_leading_terms() {
        let (ring, x, y, _) = setup();
        let one = ring.ctx().one();
        // f = x^2 + y, g = x*y + 1; lcm = x^2 y.
        let f = Poly::from_terms(vec![
            (Monomial::var_pow(x, 2), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let g = Poly::from_terms(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        let s = spoly(&ring, &f, &g).unwrap();
        // Spoly = y*f + x*g = y^2 + x.
        let expected = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var_pow(y, 2), one.clone()),
        ]);
        assert_eq!(s, expected);
    }

    #[test]
    fn groebner_basis_membership_via_zero_nf() {
        // Generators of a boolean system: x + y*z, y + z, z^2 + z (vanishing).
        let (ring, x, y, z) = setup();
        let one = ring.ctx().one();
        let f1 = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::from_factors(vec![(y, 1), (z, 1)]), one.clone()),
        ]);
        let f2 = Poly::from_terms(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let f3 = Poly::from_terms(vec![
            (Monomial::var_pow(z, 2), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let gens = vec![f1.clone(), f2.clone(), f3.clone()];
        let gb = complete(buchberger(&ring, &gens, &GbLimits::default()).unwrap());
        // Every generator and x + z^2 (= x + z mod the ideal) reduce to 0.
        let reducer = Reducer::new(&ring, gb.iter());
        for g in &gens {
            assert!(reducer.normal_form(g).unwrap().is_zero());
        }
        // x + y*z is in the ideal; so is its consequence x + z^2.
        let consequence = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var_pow(z, 2), one.clone()),
        ]);
        assert!(reducer.normal_form(&consequence).unwrap().is_zero());
    }

    #[test]
    fn textbook_example_4_1_structure() {
        // Example 4.1 of the paper (over C there; here over F_4, but the
        // elimination structure of lex GBs is field-independent in spirit):
        // check that a lex GB of a system eliminates variables bottom-up.
        let (ring, x, y, z) = setup();
        let one = ring.ctx().one();
        // f1 = x + y + z, f2 = x*y + z.
        let f1 = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let f2 = Poly::from_terms(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let gb = complete(reduced_groebner_basis(&ring, &[f1, f2], &GbLimits::default()).unwrap());
        // Some polynomial must not contain x (the elimination ideal J_1).
        assert!(
            gb.iter().any(|p| !p.contains_var(x) && !p.is_zero()),
            "lex GB must contain an x-eliminated polynomial"
        );
    }

    #[test]
    fn reduced_basis_is_monic_and_minimal() {
        let (ring, x, y, _) = setup();
        let alpha = ring.ctx().alpha();
        let one = ring.ctx().one();
        let f1 = Poly::from_terms(vec![
            (Monomial::var(x), alpha.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        // Redundant: x^2 + (1/α)xy is x * f1 / α.
        let f2 = f1.mul_term(&Monomial::var(x), &one, &ring).unwrap();
        let gb = complete(reduced_groebner_basis(&ring, &[f1, f2], &GbLimits::default()).unwrap());
        assert_eq!(gb.len(), 1);
        assert!(gb[0].leading_coeff().unwrap().is_one());
    }

    #[test]
    fn limits_stop_runaway_computations() {
        let (ring, x, y, z) = setup();
        let one = ring.ctx().one();
        let f1 = Poly::from_terms(vec![
            (Monomial::var_pow(x, 3), one.clone()),
            (Monomial::from_factors(vec![(y, 2), (z, 1)]), one.clone()),
        ]);
        let f2 = Poly::from_terms(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var_pow(z, 2), one.clone()),
        ]);
        let limits = GbLimits {
            max_pair_reductions: 1,
            ..GbLimits::default()
        };
        match buchberger(&ring, &[f1, f2], &limits).unwrap() {
            GbOutcome::LimitExceeded { .. } => {}
            GbOutcome::Complete { stats, .. } => {
                // Fine too if it finished within a single reduction.
                assert!(stats.pairs_reduced <= 1);
            }
        }
    }

    #[test]
    fn product_criterion_skips_coprime_pairs() {
        let (ring, x, y, _) = setup();
        let one = ring.ctx().one();
        let f1 = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        let f2 = Poly::from_terms(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        match buchberger(&ring, &[f1, f2], &GbLimits::default()).unwrap() {
            GbOutcome::Complete { stats, .. } => {
                assert_eq!(stats.pairs_skipped_product, 1);
                assert_eq!(stats.pairs_reduced, 0);
            }
            _ => panic!("trivial GB must complete"),
        }
    }
}
