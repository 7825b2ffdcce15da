//! Multivariate division: normal forms against divisor sets.
//!
//! The abstraction flow of the paper is, after the single S-polynomial, a
//! long chain of divisions `Spoly(f_w, f_g) →+ r` modulo the circuit
//! polynomials and the vanishing polynomials. Under RATO every circuit
//! polynomial has the form `x + tail(x)` with a distinct leading *variable*,
//! so the reducer indexes those divisors by leading variable for O(1)
//! lookup; arbitrary divisors (e.g. explicit vanishing polynomials in
//! `Plain` mode) go through a linear scan.

use crate::monomial::Monomial;
use crate::poly::Poly;
use crate::ring::{PolyError, Ring};
use gfab_field::budget::Budget;
use gfab_field::{kernel, Gf, KernelCounts};
use gfab_telemetry::HistData;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How many division-loop iterations run between two budget polls. Strided
/// so the atomic loads and `Instant::now()` calls are amortised away from
/// the innermost loop.
const BUDGET_STRIDE: u64 = 1024;

/// How many division-loop iterations run between two working-store size
/// samples (feeding the `reduction-poly-size` histogram). A divisor of
/// [`BUDGET_STRIDE`] so the two strides share one modulus check; sampling
/// is deterministic because it depends only on the iteration count.
const SIZE_SAMPLE_STRIDE: u64 = 64;

/// Statistics of one normal-form computation, used by the experiment
/// harness to report reduction effort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Number of leading-term cancellation steps performed.
    pub steps: u64,
    /// Maximum number of terms simultaneously held in the working store
    /// (an upper bound on the live-term count: equal monomials awaiting
    /// merge are counted individually).
    pub peak_terms: usize,
    /// Number of coefficient cancellations: merges of equal monomials whose
    /// coefficients summed to zero, so the term vanished without a division
    /// step.
    pub cancellations: u64,
    /// Number of cooperative-budget polls issued (0 for unbudgeted runs).
    /// Derived from the iteration count at no per-iteration cost; surfaced
    /// as the `budget-polls` telemetry counter.
    pub polls: u64,
    /// Distribution of the live working-store size, sampled every
    /// `SIZE_SAMPLE_STRIDE` iterations (the `reduction-poly-size`
    /// telemetry histogram). Deterministic: sample points depend only on
    /// the iteration count, never on wall time or thread interleaving.
    pub size_hist: HistData,
    /// Coefficient-kernel effort of this reduction: field multiplies,
    /// squarings, word-level reduction folds, and inline-vs-heap residency
    /// of kernel results. Taken as a thread-local snapshot delta around
    /// the division loop (each normal form runs on a single thread), so
    /// the values are deterministic across machines and thread counts.
    pub kernel: KernelCounts,
}

/// One entry of the division working store: ordered by monomial only, so a
/// max-heap pops terms in descending monomial order and equal monomials
/// surface consecutively for merging.
#[derive(Debug, Clone)]
struct HeapTerm(Monomial, Gf);

impl PartialEq for HeapTerm {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for HeapTerm {}
impl PartialOrd for HeapTerm {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTerm {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// One prepared divisor: the polynomial plus the slot of its precomputed
/// inverse leading coefficient in [`Reducer::inverses`] (`None` for monic
/// divisors, the common case — gate polynomials under RATO all have unit
/// leading coefficients, so the table stays tiny and an entry stays at 16
/// bytes instead of embedding a field element).
#[derive(Debug, Clone, Copy)]
struct DivEntry<'a> {
    poly: &'a Poly,
    inv_lc: Option<u32>,
}

/// [`Reducer::by_lead_var`] slot of a variable that leads no divisor.
const NO_DIVISOR: u32 = u32::MAX;

/// A set of divisors prepared for repeated normal-form computations.
///
/// Divisors whose leading monomial is a single variable with exponent 1
/// (every circuit polynomial under RATO) are indexed by a dense table over
/// the ring's variable ranks for O(1) lookup; everything else is scanned
/// linearly. Non-monic divisors have their leading coefficients inverted
/// once at construction (one batched Montgomery-trick inversion for all of
/// them), so the division hot loop never runs an extended GCD.
#[derive(Debug, Clone)]
pub struct Reducer<'a> {
    ring: &'a Ring,
    /// All prepared divisors; the index tables below point in here.
    entries: Vec<DivEntry<'a>>,
    /// Inverse leading coefficients of the non-monic divisors.
    inverses: Vec<Gf>,
    /// Index into `entries` of the divisor with leading monomial `x` (a
    /// bare variable), by the RATO rank of `x` (`VarId::index`), or
    /// [`NO_DIVISOR`]. Dense: the ring orders are small and the lookup
    /// sits on the innermost division loop.
    by_lead_var: Vec<u32>,
    /// All other divisors.
    general: Vec<usize>,
}

impl<'a> Reducer<'a> {
    /// Prepares a reducer over `divisors`.
    ///
    /// Zero divisors are ignored. If several divisors share the same bare
    /// leading variable the first one wins the index and the rest go to the
    /// general list (division remains correct, just slower).
    pub fn new(ring: &'a Ring, divisors: impl IntoIterator<Item = &'a Poly>) -> Self {
        let divisors = divisors.into_iter();
        let mut by_lead_var = vec![NO_DIVISOR; ring.num_vars()];
        let mut general = Vec::new();
        let mut entries: Vec<DivEntry<'a>> = Vec::with_capacity(divisors.size_hint().0);
        // Leading coefficients of the non-monic divisors, in slot order.
        let mut lcs: Vec<Gf> = Vec::new();
        for d in divisors {
            let Some((lm, lc)) = d.leading_term() else {
                continue;
            };
            let idx = entries.len();
            let inv_lc = (!lc.is_one()).then(|| {
                lcs.push(lc.clone());
                (lcs.len() - 1) as u32
            });
            entries.push(DivEntry { poly: d, inv_lc });
            let factors = lm.factors();
            if factors.len() == 1 && factors[0].1 == 1 {
                let slot = &mut by_lead_var[factors[0].0.index()];
                if *slot == NO_DIVISOR {
                    *slot = idx as u32;
                    continue;
                }
            }
            general.push(idx);
        }
        // Invert every non-unit leading coefficient in one batch
        // (Montgomery's trick: a single extended GCD for the whole set).
        let inverses = ring
            .ctx()
            .batch_inv(&lcs)
            .expect("leading coefficients are non-zero");
        Reducer {
            ring,
            entries,
            inverses,
            by_lead_var,
            general,
        }
    }

    /// The ring this reducer divides in.
    pub fn ring(&self) -> &Ring {
        self.ring
    }

    /// Finds a divisor whose leading monomial divides `m`.
    fn find_divisor(&self, m: &Monomial) -> Option<&DivEntry<'a>> {
        for &(v, _) in m.factors() {
            let i = self.by_lead_var[v.index()];
            if i != NO_DIVISOR {
                return Some(&self.entries[i as usize]);
            }
        }
        self.general
            .iter()
            .map(|&i| &self.entries[i])
            .find(|e| e.poly.leading_monomial().is_some_and(|lm| lm.divides(m)))
    }

    /// Computes the normal form (remainder) of `f` under multivariate
    /// division by the divisor set: repeatedly cancels the greatest term
    /// divisible by some leading monomial until no term of the remainder is
    /// divisible by any divisor's leading term.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form(&self, f: &Poly) -> Result<Poly, PolyError> {
        self.normal_form_with_stats(f).map(|(p, _)| p)
    }

    /// [`Reducer::normal_form`] plus effort statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form_with_stats(&self, f: &Poly) -> Result<(Poly, ReductionStats), PolyError> {
        self.normal_form_inner(f, None)
    }

    /// [`Reducer::normal_form_with_stats`] polled against a cooperative
    /// [`Budget`] every `BUDGET_STRIDE` division-loop iterations. Each
    /// poll charges the stride as work units, so work-cap exhaustion
    /// depends only on the total division effort — deterministic across
    /// thread counts.
    ///
    /// # Errors
    ///
    /// [`PolyError::BudgetExceeded`] when the budget runs out;
    /// otherwise propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form_budgeted(
        &self,
        f: &Poly,
        budget: &Budget,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        self.normal_form_inner(f, Some(budget))
    }

    fn normal_form_inner(
        &self,
        f: &Poly,
        budget: Option<&Budget>,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        let ctx = self.ring.ctx();
        let mut iterations: u64 = 0;
        let mut stats = ReductionStats::default();
        let kernel_before = kernel::snapshot();
        // Lazy-merge working store: a max-heap ordered by monomial. Terms
        // are pushed without merging; merging happens when equal monomials
        // surface together at the top. This keeps the per-step cost at
        // O(log n) pushes with no rebalancing of merged entries, and the
        // heap's backing buffer is reused across all cancellations of one
        // normal-form computation.
        let mut work: BinaryHeap<HeapTerm> = BinaryHeap::with_capacity(f.num_terms() * 2);
        for (m, c) in f.terms() {
            work.push(HeapTerm(m.clone(), c.clone()));
        }
        // Remainder terms accumulate in strictly descending order because we
        // always move the current maximum.
        let mut remainder: Vec<(Monomial, Gf)> = Vec::new();
        while let Some(HeapTerm(m, mut c)) = work.pop() {
            iterations += 1;
            if iterations.is_multiple_of(SIZE_SAMPLE_STRIDE) {
                stats.size_hist.record(work.len() as u64 + 1);
                if let Some(b) = budget {
                    if iterations.is_multiple_of(BUDGET_STRIDE) {
                        b.tick(BUDGET_STRIDE)?;
                    }
                }
            }
            stats.peak_terms = stats.peak_terms.max(work.len() + 1);
            // Merge every queued term with the same monomial.
            while let Some(top) = work.peek() {
                if top.0 != m {
                    break;
                }
                c = c.add(&work.pop().expect("peeked").1);
            }
            if c.is_zero() {
                stats.cancellations += 1;
                continue;
            }
            match self.find_divisor(&m) {
                None => remainder.push((m, c)),
                Some(entry) => {
                    stats.steps += 1;
                    let d = entry.poly;
                    // m = q * lm(d); cancel c*m with (c / lc(d)) * q * d.
                    // The inverse leading coefficient was precomputed (in
                    // one batch) when the reducer was built.
                    let lm = d.leading_monomial().expect("divisor is non-zero");
                    let q = lm.quotient_of(&m);
                    let scale = match entry.inv_lc {
                        None => c,
                        Some(i) => ctx.mul(&c, &self.inverses[i as usize]),
                    };
                    // Subtract scale * q * tail(d) (char 2: subtract = add).
                    // Gate polynomials have unit coefficients, so skip the
                    // field multiplication whenever either factor is 1, and
                    // skip the monomial merge-multiply when q = 1 (the
                    // common case for the triangular RATO substitutions).
                    let trivial_q = q.is_one();
                    for (tm, tc) in d.terms().iter().skip(1) {
                        let nm = if trivial_q {
                            tm.clone()
                        } else {
                            tm.mul(&q, self.ring)?
                        };
                        let nc = if tc.is_one() {
                            scale.clone()
                        } else if scale.is_one() {
                            tc.clone()
                        } else {
                            ctx.mul(tc, &scale)
                        };
                        if !nc.is_zero() {
                            work.push(HeapTerm(nm, nc));
                        }
                    }
                }
            }
        }
        stats.polls = if budget.is_some() {
            iterations / BUDGET_STRIDE
        } else {
            0
        };
        stats.kernel = kernel::snapshot().delta_since(&kernel_before);
        Ok((Poly::from_terms(remainder), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ExponentMode, RingBuilder, VarKind};
    use crate::VarId;
    use gfab_field::{Gf2Poly, GfContext};

    /// Builds F_4[x > y > Z] for tests.
    fn setup(mode: ExponentMode) -> (Ring, VarId, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        let x = rb.add_var("x", VarKind::Bit);
        let y = rb.add_var("y", VarKind::Bit);
        let z = rb.add_var("Z", VarKind::Word);
        (rb.build(), x, y, z)
    }

    fn p(terms: Vec<(Monomial, Gf)>) -> Poly {
        Poly::from_terms(terms)
    }

    #[test]
    fn triangular_substitution_chain() {
        // x + y, y + Z  =>  NF(x) = Z.
        let (ring, x, y, z) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        let d1 = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let d2 = p(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let divisors = [d1, d2];
        let red = Reducer::new(&ring, divisors.iter());
        let f = ring.var_poly(x);
        let nf = red.normal_form(&f).unwrap();
        assert_eq!(nf, ring.var_poly(z));
    }

    #[test]
    fn remainder_not_divisible_by_any_leading_term() {
        let (ring, x, y, _) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        // divisor: x + y  => NF(x*y + y) = y*y + y = y + y = 0 (quotient mode)
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let nf = red.normal_form(&f).unwrap();
        assert!(nf.is_zero(), "got {}", nf.display(&ring));
    }

    #[test]
    fn plain_mode_same_example_leaves_square() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        // x*y -> y^2, so NF = y^2 + y.
        let nf = red.normal_form(&f).unwrap();
        let expected = p(vec![
            (Monomial::var_pow(y, 2), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        assert_eq!(nf, expected);
    }

    #[test]
    fn general_divisors_with_nontrivial_leading_monomials() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        // divisor: x^2 + y (leading monomial x^2, not a bare variable)
        let d = p(vec![
            (Monomial::var_pow(x, 2), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        // f = x^3 => x * x^2 -> x*y; then x*y is not divisible by x^2.
        let f = p(vec![(Monomial::var_pow(x, 3), one.clone())]);
        let nf = red.normal_form(&f).unwrap();
        let expected = p(vec![(
            Monomial::from_factors(vec![(x, 1), (y, 1)]),
            one.clone(),
        )]);
        assert_eq!(nf, expected);
    }

    #[test]
    fn non_monic_divisors_are_scaled() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let alpha = ring.ctx().alpha();
        let one = ring.ctx().one();
        // divisor: α·x + y  => NF(x) = α⁻¹·y
        let d = p(vec![
            (Monomial::var(x), alpha.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let nf = red.normal_form(&ring.var_poly(x)).unwrap();
        let ainv = ring.ctx().inv(&alpha).unwrap();
        assert_eq!(nf, ring.var_poly(y).scale(&ainv, &ring));
    }

    #[test]
    fn stats_count_steps() {
        let (ring, x, y, z) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        let d1 = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let d2 = p(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let divisors = [d1, d2];
        let red = Reducer::new(&ring, divisors.iter());
        let (_, stats) = red.normal_form_with_stats(&ring.var_poly(x)).unwrap();
        assert_eq!(stats.steps, 2); // x -> y -> Z
    }

    #[test]
    fn division_invariant_f_equals_sum_plus_remainder() {
        // Verify f ≡ NF(f) modulo the ideal by evaluating on all points of
        // the variety of the divisors (here: pick divisor x + y + 1 and
        // check on assignments satisfying it).
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let ctx = ring.ctx().clone();
        let one = ctx.one();
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        let divisors = [d.clone()];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 2), (y, 1)]), one.clone()),
            (Monomial::var(x), one.clone()),
        ]);
        let nf = red.normal_form(&f).unwrap();
        // On every point where d vanishes, f and nf must agree.
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                let vals = vec![a.clone(), b.clone(), ctx.zero()];
                if d.eval(&ring, &vals).is_zero() {
                    assert_eq!(f.eval(&ring, &vals), nf.eval(&ring, &vals));
                }
            }
        }
    }
}
