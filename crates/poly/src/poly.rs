//! Sparse multivariate polynomials over `F_{2^k}`.

use crate::monomial::Monomial;
use crate::ring::{PolyError, Ring, VarId};
use gfab_field::Gf;
use std::collections::HashMap;
use std::fmt;

/// One `coefficient · monomial` term.
pub type Term = (Monomial, Gf);

/// A polynomial stored as terms sorted in **descending** monomial order with
/// non-zero coefficients and no duplicate monomials.
///
/// All arithmetic that can change exponents takes the [`Ring`] as an
/// argument so the ring's [`ExponentMode`](crate::ExponentMode) is applied
/// consistently. Since the coefficient field has characteristic 2,
/// subtraction equals addition and every polynomial is its own negation.
///
/// # Example
///
/// ```
/// use gfab_field::{GfContext, Gf2Poly};
/// use gfab_poly::{RingBuilder, VarKind, ExponentMode, Poly, Monomial};
///
/// let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
/// let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Plain);
/// let x = rb.add_var("x", VarKind::Bit);
/// let ring = rb.build();
/// // x + x = 0 in characteristic 2
/// let p = ring.var_poly(x);
/// assert!(p.add(&p).is_zero());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Poly {
    /// Terms in strictly descending monomial order.
    terms: Vec<Term>,
}

impl Poly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Poly { terms: Vec::new() }
    }

    /// Builds a polynomial from arbitrary terms: sorts, merges duplicate
    /// monomials (coefficients add in `F_{2^k}`), drops zeros. Sorts and
    /// merges in place; addition in characteristic 2 is order-free, so the
    /// result does not depend on the input order.
    #[must_use]
    pub fn from_terms(mut terms: Vec<Term>) -> Self {
        terms.sort_unstable_by(|(a, _), (b, _)| b.cmp(a));
        terms.dedup_by(|(m, c), (kept_m, kept_c)| {
            let same = m == kept_m;
            if same {
                *kept_c = kept_c.add(c);
            }
            same
        });
        terms.retain(|(_, c)| !c.is_zero());
        Poly { terms }
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The number of terms.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The terms in descending monomial order.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The leading term, or `None` if zero.
    #[must_use]
    pub fn leading_term(&self) -> Option<&Term> {
        self.terms.first()
    }

    /// The leading monomial, or `None` if zero.
    #[must_use]
    pub fn leading_monomial(&self) -> Option<&Monomial> {
        self.terms.first().map(|(m, _)| m)
    }

    /// The leading coefficient, or `None` if zero.
    #[must_use]
    pub fn leading_coeff(&self) -> Option<&Gf> {
        self.terms.first().map(|(_, c)| c)
    }

    /// Everything but the leading term (`tail(f)` in the paper).
    #[must_use]
    pub fn tail(&self) -> Poly {
        Poly {
            terms: self.terms.get(1..).unwrap_or(&[]).to_vec(),
        }
    }

    /// The coefficient of `m` (zero if absent).
    #[must_use]
    pub fn coeff(&self, m: &Monomial) -> Gf {
        // Terms are sorted descending; search with the comparison reversed.
        self.terms
            .binary_search_by(|(tm, _)| m.cmp(tm))
            .map(|i| self.terms[i].1.clone())
            .unwrap_or_default()
    }

    /// The total degree (max over terms), or `None` if zero.
    #[must_use]
    pub fn total_degree(&self) -> Option<u64> {
        self.terms.iter().map(|(m, _)| m.total_degree()).max()
    }

    /// The maximum exponent of `v` over all terms.
    #[must_use]
    pub fn degree_in(&self, v: VarId) -> u64 {
        self.terms
            .iter()
            .map(|(m, _)| m.exponent(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether variable `v` occurs anywhere in the polynomial.
    #[must_use]
    pub fn contains_var(&self, v: VarId) -> bool {
        self.terms.iter().any(|(m, _)| m.contains(v))
    }

    /// The set of variables occurring in the polynomial, ascending by rank
    /// (greatest variable first).
    #[must_use]
    pub fn variables(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self.terms.iter().flat_map(|(m, _)| m.vars()).collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Polynomial addition (characteristic 2, so also subtraction).
    #[must_use]
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (ma, ca) = &self.terms[i];
            let (mb, cb) = &other.terms[j];
            match ma.cmp(mb) {
                std::cmp::Ordering::Greater => {
                    out.push(self.terms[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Less => {
                    out.push(other.terms[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca.add(cb);
                    if !c.is_zero() {
                        out.push((ma.clone(), c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.terms[i..]);
        out.extend_from_slice(&other.terms[j..]);
        Poly { terms: out }
    }

    /// Multiplies by a single term `c · m`.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn mul_term(&self, m: &Monomial, c: &Gf, ring: &Ring) -> Result<Poly, PolyError> {
        if c.is_zero() {
            return Ok(Poly::zero());
        }
        let ctx = ring.ctx();
        let mut terms = Vec::with_capacity(self.terms.len());
        for (tm, tc) in &self.terms {
            terms.push((tm.mul(m, ring)?, ctx.mul(tc, c)));
        }
        // In Quotient mode exponent capping can merge monomials, so always
        // renormalize (cheap relative to the multiplication itself).
        Ok(Poly::from_terms(terms))
    }

    /// Full polynomial multiplication.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn mul(&self, other: &Poly, ring: &Ring) -> Result<Poly, PolyError> {
        let ctx = ring.ctx();
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((ma.mul(mb, ring)?, ctx.mul(ca, cb)));
            }
        }
        Ok(Poly::from_terms(terms))
    }

    /// Scales all coefficients by `c`.
    #[must_use]
    pub fn scale(&self, c: &Gf, ring: &Ring) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        let ctx = ring.ctx();
        Poly {
            terms: self
                .terms
                .iter()
                .map(|(m, tc)| (m.clone(), ctx.mul(tc, c)))
                .collect(),
        }
    }

    /// Makes the polynomial monic (leading coefficient 1). No-op on zero.
    #[must_use]
    pub fn monic(&self, ring: &Ring) -> Poly {
        match self.leading_coeff() {
            None => Poly::zero(),
            Some(lc) if lc.is_one() => self.clone(),
            Some(lc) => {
                let inv = ring.ctx().inv(lc).expect("leading coefficient is non-zero");
                self.scale(&inv, ring)
            }
        }
    }

    /// Substitutes polynomial `rep` for variable `v`: every `v^e` factor is
    /// replaced by `rep^e`. Used for word-level composition of block
    /// polynomials (the hierarchical step of the paper).
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn substitute(&self, v: VarId, rep: &Poly, ring: &Ring) -> Result<Poly, PolyError> {
        let one = ring.constant(ring.ctx().one());
        let mut pow_cache: Vec<Poly> = vec![one]; // rep^0
        let mut acc = Poly::zero();
        for (m, c) in &self.terms {
            let e = m.exponent(v);
            let rest = Monomial::from_factors(
                m.factors()
                    .iter()
                    .filter(|&&(w, _)| w != v)
                    .cloned()
                    .collect(),
            );
            while (pow_cache.len() as u64) <= e {
                let next = pow_cache
                    .last()
                    .expect("cache seeded with rep^0")
                    .mul(rep, ring)?;
                pow_cache.push(next);
            }
            let powed = &pow_cache[e as usize];
            acc = acc.add(&powed.mul_term(&rest, c, ring)?);
        }
        Ok(acc)
    }

    /// Evaluates the polynomial at a full assignment (`values[i]` is the
    /// value of `VarId(i)`). Each power `values[v]^e` that some term needs
    /// is computed once per evaluation, however many terms share it.
    ///
    /// # Panics
    ///
    /// Panics if a variable of the polynomial is out of range of `values`.
    #[must_use]
    pub fn eval(&self, ring: &Ring, values: &[Gf]) -> Gf {
        let ctx = ring.ctx();
        let mut powers: HashMap<(VarId, u64), Gf> = HashMap::new();
        let mut acc = ctx.zero();
        for (m, c) in &self.terms {
            let mut t = c.clone();
            for &(v, e) in m.factors() {
                let val = &values[v.index()];
                let power = match e {
                    1 => val,
                    _ => powers.entry((v, e)).or_insert_with(|| ctx.pow_u64(val, e)),
                };
                t = ctx.mul(&t, power);
            }
            ctx.add_assign(&mut acc, &t);
        }
        acc
    }

    /// Renames variables through `f` and renormalizes. Used to move
    /// polynomials between rings over the same coefficient field.
    #[must_use]
    pub fn relabel(&self, f: impl Fn(VarId) -> VarId) -> Poly {
        Poly::from_terms(
            self.terms
                .iter()
                .map(|(m, c)| (m.relabel(&f), c.clone()))
                .collect(),
        )
    }

    /// Formats the polynomial with the ring's variable names; terms are
    /// printed in descending order, coefficients as polynomials in `α`.
    pub fn display<'a>(&'a self, ring: &'a Ring) -> impl fmt::Display + 'a {
        PolyDisplay { p: self, ring }
    }
}

struct PolyDisplay<'a> {
    p: &'a Poly,
    ring: &'a Ring,
}

impl fmt::Display for PolyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.p.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.p.terms() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            let coeff_simple = c.as_poly().weight() <= 1;
            if m.is_one() {
                write!(f, "{c}")?;
            } else if c.is_one() {
                write!(f, "{}", m.display(self.ring))?;
            } else if coeff_simple {
                write!(f, "{c}*{}", m.display(self.ring))?;
            } else {
                write!(f, "({c})*{}", m.display(self.ring))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ExponentMode, RingBuilder, VarKind};
    use gfab_field::{Gf2Poly, GfContext, Rng};

    fn setup(mode: ExponentMode) -> (Ring, VarId, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        let x = rb.add_var("x", VarKind::Bit);
        let y = rb.add_var("y", VarKind::Bit);
        let a = rb.add_var("A", VarKind::Word);
        (rb.build(), x, y, a)
    }

    #[test]
    fn from_terms_merges_and_sorts() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        let p = Poly::from_terms(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()), // cancels with the first y
        ]);
        assert_eq!(p.num_terms(), 1);
        assert_eq!(p.leading_monomial(), Some(&Monomial::var(x)));
    }

    #[test]
    fn add_is_self_inverse() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        let alpha = ring.ctx().alpha();
        let p = Poly::from_terms(vec![(Monomial::var(x), alpha), (Monomial::var(y), one)]);
        assert!(p.add(&p).is_zero());
        assert_eq!(p.add(&Poly::zero()), p);
    }

    #[test]
    fn mul_quotient_mode_caps_bits() {
        let (ring, x, _, _) = setup(ExponentMode::Quotient);
        let p = ring.var_poly(x);
        let sq = p.mul(&p, &ring).unwrap();
        assert_eq!(sq, p); // x² = x
    }

    #[test]
    fn mul_plain_mode_keeps_exponents() {
        let (ring, x, _, _) = setup(ExponentMode::Plain);
        let p = ring.var_poly(x);
        let sq = p.mul(&p, &ring).unwrap();
        assert_eq!(sq.leading_monomial(), Some(&Monomial::var_pow(x, 2)));
    }

    #[test]
    fn distributive_law_small() {
        let (ring, x, y, a) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        let p = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::one(), one.clone()),
        ]); // x + 1
        let q = Poly::from_terms(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(a), one.clone()),
        ]); // y + A
        let lhs = p.mul(&q, &ring).unwrap();
        let rhs = p
            .mul(&ring.var_poly(y), &ring)
            .unwrap()
            .add(&p.mul(&ring.var_poly(a), &ring).unwrap());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn monic_divides_by_leading_coeff() {
        let (ring, x, _, _) = setup(ExponentMode::Plain);
        let alpha = ring.ctx().alpha();
        let p = ring.var_poly(x).scale(&alpha, &ring);
        let m = p.monic(&ring);
        assert_eq!(m, ring.var_poly(x));
    }

    #[test]
    fn substitute_replaces_powers() {
        let (ring, x, _, a) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        // p = A^2 + x
        let p = Poly::from_terms(vec![
            (Monomial::var_pow(a, 2), one.clone()),
            (Monomial::var(x), one.clone()),
        ]);
        // A := x + 1  =>  p = (x+1)^2 + x = x^2 + x + 1  (char 2)
        let rep = Poly::from_terms(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        let s = p.substitute(a, &rep, &ring).unwrap();
        let expected = Poly::from_terms(vec![
            (Monomial::var_pow(x, 2), one.clone()),
            (Monomial::var(x), one.clone()),
            (Monomial::one(), one),
        ]);
        assert_eq!(s, expected);
    }

    #[test]
    fn eval_agrees_with_structure() {
        let (ring, x, y, a) = setup(ExponentMode::Plain);
        let ctx = ring.ctx().clone();
        let one = ctx.one();
        // p = x*y + A
        let p = Poly::from_terms(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(a), one),
        ]);
        let alpha = ctx.alpha();
        let vals = vec![ctx.one(), ctx.one(), alpha.clone()];
        assert_eq!(p.eval(&ring, &vals), ctx.add(&ctx.one(), &alpha));
    }

    #[test]
    fn relabel_moves_variables() {
        let (_, x, y, _) = setup(ExponentMode::Plain);
        let (ring2, x2, y2, _) = setup(ExponentMode::Plain);
        let one = ring2.ctx().one();
        let p = Poly::from_terms(vec![(
            Monomial::from_factors(vec![(x, 1), (y, 2)]),
            one.clone(),
        )]);
        // Swap x and y.
        let q = p.relabel(|v| if v == x { y2 } else { x2 });
        assert_eq!(
            q.leading_monomial(),
            Some(&Monomial::from_factors(vec![(x2, 2), (y2, 1)]))
        );
    }

    #[test]
    fn display_renders_terms() {
        let (ring, x, _, a) = setup(ExponentMode::Plain);
        let ctx = ring.ctx().clone();
        let alpha = ctx.alpha();
        let p = Poly::from_terms(vec![
            (Monomial::var(x), ctx.one()),
            (Monomial::var(a), alpha),
            (Monomial::one(), ctx.one()),
        ]);
        assert_eq!(format!("{}", p.display(&ring)), "x + α*A + 1");
    }

    /// Checks the representation invariant: strictly descending
    /// monomials, no zero coefficients.
    fn assert_normalized(p: &Poly) {
        assert!(p.terms.windows(2).all(|w| w[0].0 > w[1].0), "{p:?}");
        assert!(p.terms.iter().all(|(_, c)| !c.is_zero()), "{p:?}");
    }

    /// A seeded random term list over a small monomial pool: repeated
    /// monomials, zero coefficients, and (every third list) a monomial
    /// that cancels and then reappears.
    fn random_terms(ring: &Ring, pool: &[Monomial], rng: &mut Rng, round: usize) -> Vec<Term> {
        let ctx = ring.ctx();
        let pick = |rng: &mut Rng| pool[rng.random_range(0..pool.len())].clone();
        let mut terms: Vec<Term> = (0..rng.random_range(0..12))
            .map(|_| (pick(rng), ctx.from_u64(rng.random_below(4))))
            .collect();
        if round.is_multiple_of(3) {
            let m = pick(rng);
            let at = rng.random_range(0..terms.len() + 1);
            let alpha = ctx.alpha();
            terms.insert(at, (m.clone(), alpha.clone()));
            terms.insert(at, (m.clone(), alpha));
            terms.push((m, ctx.one()));
        }
        terms
    }

    fn monomial_pool(x: VarId, y: VarId, a: VarId) -> Vec<Monomial> {
        vec![
            Monomial::one(),
            Monomial::var(x),
            Monomial::var(y),
            Monomial::var(a),
            Monomial::var_pow(a, 2),
            Monomial::from_factors(vec![(x, 1), (y, 1)]),
            Monomial::from_factors(vec![(x, 1), (a, 3)]),
            Monomial::from_factors(vec![(x, 1), (y, 1), (a, 1)]),
        ]
    }

    #[test]
    fn from_terms_equals_sum_of_single_terms() {
        let (ring, x, y, a) = setup(ExponentMode::Plain);
        let pool = monomial_pool(x, y, a);
        let mut rng = Rng::seed_from_u64(0x7E2);
        for round in 0..300 {
            let terms = random_terms(&ring, &pool, &mut rng, round);
            let sum = terms.iter().fold(Poly::zero(), |acc, (m, c)| {
                let single = if c.is_zero() {
                    Poly::zero()
                } else {
                    Poly {
                        terms: vec![(m.clone(), c.clone())],
                    }
                };
                acc.add(&single)
            });
            let p = Poly::from_terms(terms);
            assert_normalized(&p);
            assert_eq!(p, sum, "round {round}");
        }
    }

    #[test]
    fn mul_equals_sum_of_term_products() {
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            let (ring, x, y, a) = setup(mode);
            let pool = monomial_pool(x, y, a);
            let mut rng = Rng::seed_from_u64(0x3A1);
            for round in 0..200 {
                let p = Poly::from_terms(random_terms(&ring, &pool, &mut rng, round));
                let q = Poly::from_terms(random_terms(&ring, &pool, &mut rng, round + 1));
                let want = q.terms().iter().fold(Poly::zero(), |acc, (m, c)| {
                    acc.add(&p.mul_term(m, c, &ring).unwrap())
                });
                let got = p.mul(&q, &ring).unwrap();
                assert_normalized(&got);
                assert_eq!(got, want, "{mode:?} round {round}");
            }
        }
    }

    #[test]
    fn eval_equals_the_per_term_power_evaluation() {
        // Exponents repeat across terms, so powers are shared; the largest
        // reach 2^40.
        const EXPONENTS: [u64; 8] = [1, 2, 3, 7, 255, 256, (1 << 32) + 5, 1 << 40];
        let mut rng = Rng::seed_from_u64(0xE7A1);
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            let ctx =
                GfContext::shared(gfab_field::nist::irreducible_polynomial(8).unwrap()).unwrap();
            let mut rb = RingBuilder::new(ctx.clone(), mode);
            let vars = [
                ("A", VarKind::Word),
                ("B", VarKind::Word),
                ("x", VarKind::Bit),
            ]
            .map(|(name, kind)| rb.add_var(name, kind));
            let ring = rb.build();
            for round in 0..100 {
                let terms = (0..rng.random_range(0..40))
                    .map(|_| {
                        let mut factors = Vec::new();
                        for &v in &vars {
                            if rng.random_bool(0.7) {
                                factors.push((v, EXPONENTS[rng.random_range(0..EXPONENTS.len())]));
                            }
                        }
                        (Monomial::from_factors(factors), ctx.random(&mut rng))
                    })
                    .collect();
                let p = Poly::from_terms(terms);
                let values: Vec<Gf> = vars.iter().map(|_| ctx.random(&mut rng)).collect();
                let per_term = p.terms().iter().fold(ctx.zero(), |acc, (m, c)| {
                    let t = m.factors().iter().fold(c.clone(), |t, &(v, e)| {
                        ctx.mul(&t, &ctx.pow_u64(&values[v.index()], e))
                    });
                    ctx.add(&acc, &t)
                });
                assert_eq!(p.eval(&ring, &values), per_term, "{mode:?} round {round}");
            }
        }
    }

    #[test]
    fn coeff_lookup() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let alpha = ring.ctx().alpha();
        let p = Poly::from_terms(vec![(Monomial::var(x), alpha.clone())]);
        assert_eq!(p.coeff(&Monomial::var(x)), alpha);
        assert!(p.coeff(&Monomial::var(y)).is_zero());
    }
}
