//! Sparse power products with pure-lex comparison.

use crate::ring::{PolyError, Ring, VarId};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// One `(variable, exponent)` factor of a power product.
type Factor = (VarId, u64);

/// Number of factors stored inline (no heap allocation). Gate polynomials
/// have at most two factors per monomial, and on the Mastrovito and
/// Montgomery multipliers so does every term of the RATO division chain;
/// longer products spill to a heap `Vec`.
const INLINE_FACTORS: usize = 2;

/// Filler for unused inline slots; never read (every access goes through
/// [`Factors::as_slice`]).
const NO_FACTOR: Factor = (VarId(0), 0);

/// Small-vector factor storage, as `LimbBuf` is for field limbs: inline up
/// to [`INLINE_FACTORS`], heap beyond. Heap storage always holds more than
/// `INLINE_FACTORS` factors.
#[derive(Clone)]
enum Factors {
    Inline {
        len: u8,
        buf: [Factor; INLINE_FACTORS],
    },
    Heap(Vec<Factor>),
}

impl Factors {
    const EMPTY: Factors = Factors::Inline {
        len: 0,
        buf: [NO_FACTOR; INLINE_FACTORS],
    };

    fn single(f: Factor) -> Self {
        let mut buf = [NO_FACTOR; INLINE_FACTORS];
        buf[0] = f;
        Factors::Inline { len: 1, buf }
    }

    /// Takes ownership of `v`, moving it inline when it fits.
    fn from_vec(v: Vec<Factor>) -> Self {
        if v.len() > INLINE_FACTORS {
            return Factors::Heap(v);
        }
        let mut buf = [NO_FACTOR; INLINE_FACTORS];
        buf[..v.len()].copy_from_slice(&v);
        Factors::Inline {
            len: v.len() as u8,
            buf,
        }
    }

    fn as_slice(&self) -> &[Factor] {
        match self {
            Factors::Inline { len, buf } => &buf[..*len as usize],
            Factors::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Factor] {
        match self {
            Factors::Inline { len, buf } => &mut buf[..*len as usize],
            Factors::Heap(v) => v,
        }
    }

    /// Appends one factor. Overflowing the inline buffer spills to a heap
    /// vector with room for `cap` factors, the caller's bound on the
    /// final length, so building a result allocates at most once.
    fn push(&mut self, f: Factor, cap: usize) {
        match self {
            Factors::Inline { len, buf } if (*len as usize) < INLINE_FACTORS => {
                buf[*len as usize] = f;
                *len += 1;
            }
            Factors::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(cap.max(INLINE_FACTORS + 1));
                v.extend_from_slice(buf);
                v.push(f);
                *self = Factors::Heap(v);
            }
            Factors::Heap(v) => v.push(f),
        }
    }

    fn extend(&mut self, fs: &[Factor], cap: usize) {
        for &f in fs {
            self.push(f, cap);
        }
    }

    /// Keeps the first `n` factors, moving inline when they fit.
    fn truncate(&mut self, n: usize) {
        match self {
            Factors::Inline { len, .. } => *len = n.min(*len as usize) as u8,
            Factors::Heap(v) if n <= INLINE_FACTORS => {
                v.truncate(n);
                *self = Factors::from_vec(std::mem::take(v));
            }
            Factors::Heap(v) => v.truncate(n),
        }
    }
}

/// A power product `x_{v1}^{e1} · x_{v2}^{e2} · …` stored sparsely as
/// `(variable, exponent)` factors sorted by ascending variable rank (i.e.
/// most significant variable first, since rank 0 is the greatest variable).
/// Up to two factors live inline; longer products spill to the heap.
///
/// `Ord` implements the **pure lexicographic order** induced by the variable
/// ranking: monomials compare on the exponent of the greatest variable where
/// they differ. This is the order underlying both the abstraction term order
/// and RATO in the paper. `Eq`, `Ord` and `Hash` all go through
/// [`Monomial::factors`], so inline and heap storage of the same factors
/// are indistinguishable.
#[derive(Clone)]
pub struct Monomial {
    /// Factors sorted by ascending `VarId` rank; exponents are non-zero.
    factors: Factors,
}

impl Monomial {
    /// The empty product (the constant monomial `1`).
    #[must_use]
    pub fn one() -> Self {
        Monomial {
            factors: Factors::EMPTY,
        }
    }

    /// The single variable `v`.
    #[must_use]
    pub fn var(v: VarId) -> Self {
        Monomial {
            factors: Factors::single((v, 1)),
        }
    }

    /// The power `v^e` (`1` if `e == 0`).
    #[must_use]
    pub fn var_pow(v: VarId, e: u64) -> Self {
        if e == 0 {
            Monomial::one()
        } else {
            Monomial {
                factors: Factors::single((v, e)),
            }
        }
    }

    /// Builds a monomial from arbitrary `(var, exp)` pairs; zero exponents
    /// are dropped, duplicates are summed, factors are sorted.
    #[must_use]
    pub fn from_factors(factors: Vec<(VarId, u64)>) -> Self {
        Monomial {
            factors: Factors::from_vec(factors),
        }
        .normalized()
    }

    /// The monomial of at most [`INLINE_FACTORS`] factors that are already
    /// canonical: ascending distinct ranks, non-zero exponents (checked in
    /// debug builds). The decode side of the reducer's packed term keys.
    pub(crate) fn from_canonical_inline(factors: &[Factor]) -> Self {
        debug_assert!(factors.len() <= INLINE_FACTORS);
        debug_assert!(factors.iter().all(|&(_, e)| e > 0));
        debug_assert!(factors.windows(2).all(|w| w[0].0 < w[1].0));
        let mut buf = [NO_FACTOR; INLINE_FACTORS];
        buf[..factors.len()].copy_from_slice(factors);
        Monomial {
            factors: Factors::Inline {
                len: factors.len() as u8,
                buf,
            },
        }
    }

    /// Sorts the factors by variable, drops zero exponents and sums the
    /// exponents of repeated variables, in place.
    fn normalized(mut self) -> Self {
        let fs = self.factors.as_mut_slice();
        fs.sort_unstable_by_key(|&(v, _)| v);
        let mut n = 0;
        for r in 0..fs.len() {
            let (v, e) = fs[r];
            if e == 0 {
                continue;
            }
            if n > 0 && fs[n - 1].0 == v {
                fs[n - 1].1 += e;
            } else {
                fs[n] = (v, e);
                n += 1;
            }
        }
        self.factors.truncate(n);
        self
    }

    /// Whether this is the constant monomial `1`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.factors().is_empty()
    }

    /// The factors, sorted by ascending variable rank.
    #[must_use]
    pub fn factors(&self) -> &[(VarId, u64)] {
        self.factors.as_slice()
    }

    /// The exponent of `v` (0 if absent).
    #[must_use]
    pub fn exponent(&self, v: VarId) -> u64 {
        let fs = self.factors();
        fs.binary_search_by_key(&v, |&(w, _)| w)
            .map(|i| fs[i].1)
            .unwrap_or(0)
    }

    /// Whether `v` occurs with positive exponent.
    #[must_use]
    pub fn contains(&self, v: VarId) -> bool {
        self.exponent(v) > 0
    }

    /// The greatest (lex-most-significant) variable, or `None` for `1`.
    #[must_use]
    pub fn leading_var(&self) -> Option<VarId> {
        self.factors().first().map(|&(v, _)| v)
    }

    /// The total degree (sum of exponents).
    #[must_use]
    pub fn total_degree(&self) -> u64 {
        self.factors().iter().map(|&(_, e)| e).sum()
    }

    /// Iterates over the variables occurring in this monomial.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.factors().iter().map(|&(v, _)| v)
    }

    /// Multiplies two monomials under the ring's exponent mode.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn mul(&self, other: &Monomial, ring: &Ring) -> Result<Monomial, PolyError> {
        let (a, b) = (self.factors(), other.factors());
        let cap = a.len() + b.len();
        let mut out = Factors::EMPTY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (va, ea) = a[i];
            let (vb, eb) = b[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    out.push((va, ea), cap);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((vb, eb), cap);
                    j += 1;
                }
                Ordering::Equal => {
                    let e = ring.combine_exponents(va, ea, eb)?;
                    if e > 0 {
                        out.push((va, e), cap);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(&a[i..], cap);
        out.extend(&b[j..], cap);
        Ok(Monomial { factors: out })
    }

    /// Whether `self` divides `other` (exponent-wise `≤`).
    #[must_use]
    pub fn divides(&self, other: &Monomial) -> bool {
        let theirs = other.factors();
        let mut j = 0;
        for &(v, e) in self.factors() {
            // Advance in other's sorted factor list.
            loop {
                match theirs.get(j) {
                    Some(&(w, _)) if w < v => j += 1,
                    Some(&(w, f)) if w == v => {
                        if f < e {
                            return false;
                        }
                        break;
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// The quotient `other / self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not divide `other` (checked in debug builds by
    /// the subtraction underflow).
    #[must_use]
    pub fn quotient_of(&self, other: &Monomial) -> Monomial {
        debug_assert!(self.divides(other), "quotient_of requires divisibility");
        let (mine, theirs) = (self.factors(), other.factors());
        let mut out = Factors::EMPTY;
        let mut i = 0;
        for &(v, e) in theirs {
            let mut sub = 0;
            if let Some(&(w, f)) = mine.get(i) {
                if w == v {
                    sub = f;
                    i += 1;
                }
            }
            let r = e - sub;
            if r > 0 {
                out.push((v, r), theirs.len());
            }
        }
        Monomial { factors: out }
    }

    /// The least common multiple (exponent-wise max).
    #[must_use]
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.factors(), other.factors());
        let cap = a.len() + b.len();
        let mut out = Factors::EMPTY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (va, ea) = a[i];
            let (vb, eb) = b[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    out.push((va, ea), cap);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((vb, eb), cap);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((va, ea.max(eb)), cap);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(&a[i..], cap);
        out.extend(&b[j..], cap);
        Monomial { factors: out }
    }

    /// Whether the two monomials are relatively prime (share no variable) —
    /// the hypothesis of Buchberger's product criterion (Lemma 5.1).
    #[must_use]
    pub fn relatively_prime(&self, other: &Monomial) -> bool {
        let (a, b) = (self.factors(), other.factors());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return false,
            }
        }
        true
    }

    /// Renames variables through `f`, re-sorting as needed. Used when moving
    /// polynomials between rings (e.g. hierarchical composition).
    #[must_use]
    pub fn relabel(&self, f: impl Fn(VarId) -> VarId) -> Monomial {
        let mut out = self.clone();
        for factor in out.factors.as_mut_slice() {
            factor.0 = f(factor.0);
        }
        out.normalized()
    }

    /// Formats the monomial with the ring's variable names.
    pub fn display<'a>(&'a self, ring: &'a Ring) -> impl fmt::Display + 'a {
        MonomialDisplay { m: self, ring }
    }

    /// Whether the factors spilled to the heap.
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(self.factors, Factors::Heap(_))
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        self.factors() == other.factors()
    }
}

impl Eq for Monomial {}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.factors().hash(state);
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monomial")
            .field("factors", &self.factors())
            .finish()
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    /// Pure lex: compare on the greatest variable where exponents differ.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.factors(), other.factors());
        let (mut i, mut j) = (0, 0);
        loop {
            match (a.get(i), b.get(j)) {
                (None, None) => return Ordering::Equal,
                // `self` still has a factor in a more significant position:
                // it has a positive exponent where `other` has zero.
                (Some(_), None) => return Ordering::Greater,
                (None, Some(_)) => return Ordering::Less,
                (Some(&(va, ea)), Some(&(vb, eb))) => {
                    match va.cmp(&vb) {
                        // va is a greater (smaller-rank) variable that other
                        // lacks -> self has higher exponent there -> greater.
                        Ordering::Less => return Ordering::Greater,
                        Ordering::Greater => return Ordering::Less,
                        Ordering::Equal => match ea.cmp(&eb) {
                            Ordering::Equal => {
                                i += 1;
                                j += 1;
                            }
                            ord => return ord,
                        },
                    }
                }
            }
        }
    }
}

struct MonomialDisplay<'a> {
    m: &'a Monomial,
    ring: &'a Ring,
}

impl fmt::Display for MonomialDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.m.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for &(v, e) in self.m.factors() {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            let name = &self.ring.var_info(v).name;
            if name.is_empty() {
                write!(f, "{v}")?;
            } else {
                write!(f, "{name}")?;
            }
            if e != 1 {
                write!(f, "^{e}")?;
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

    fn setup() -> (Ring, VarId, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, ExponentMode::Plain);
        let x = rb.add_var("x", VarKind::Bit);
        let y = rb.add_var("y", VarKind::Bit);
        let z = rb.add_var("Z", VarKind::Word);
        (rb.build(), x, y, z)
    }

    #[test]
    fn lex_order_basics() {
        let (_, x, y, z) = setup();
        // x > y > Z; x > y^5, x*y > x, Z^9 < y.
        assert!(Monomial::var(x) > Monomial::var(y));
        assert!(Monomial::var(y) > Monomial::var(z));
        assert!(Monomial::var(x) > Monomial::var_pow(y, 5));
        let xy = Monomial::from_factors(vec![(x, 1), (y, 1)]);
        assert!(xy > Monomial::var(x));
        assert!(Monomial::var_pow(z, 9) < Monomial::var(y));
        assert!(Monomial::var(x) > Monomial::one());
    }

    #[test]
    fn lex_order_on_shared_vars() {
        let (_, x, y, _) = setup();
        let x2 = Monomial::var_pow(x, 2);
        let x1y9 = Monomial::from_factors(vec![(x, 1), (y, 9)]);
        assert!(x2 > x1y9);
    }

    #[test]
    fn mul_merges_and_respects_mode() {
        let (ring, x, y, _) = setup();
        let a = Monomial::from_factors(vec![(x, 1), (y, 2)]);
        let b = Monomial::from_factors(vec![(y, 1)]);
        let c = a.mul(&b, &ring).unwrap();
        assert_eq!(c, Monomial::from_factors(vec![(x, 1), (y, 3)]));
    }

    #[test]
    fn divides_and_quotient() {
        let (_, x, y, z) = setup();
        let big = Monomial::from_factors(vec![(x, 2), (y, 1), (z, 3)]);
        let small = Monomial::from_factors(vec![(x, 1), (z, 3)]);
        assert!(small.divides(&big));
        assert!(!big.divides(&small));
        let q = small.quotient_of(&big);
        assert_eq!(q, Monomial::from_factors(vec![(x, 1), (y, 1)]));
        assert!(Monomial::one().divides(&big));
    }

    #[test]
    fn lcm_and_relatively_prime() {
        let (_, x, y, z) = setup();
        let a = Monomial::from_factors(vec![(x, 2), (y, 1)]);
        let b = Monomial::from_factors(vec![(y, 3), (z, 1)]);
        assert_eq!(
            a.lcm(&b),
            Monomial::from_factors(vec![(x, 2), (y, 3), (z, 1)])
        );
        assert!(!a.relatively_prime(&b));
        let c = Monomial::var(z);
        assert!(a.relatively_prime(&c));
    }

    #[test]
    fn from_factors_normalizes() {
        let (_, x, y, _) = setup();
        let m = Monomial::from_factors(vec![(y, 1), (x, 0), (y, 2)]);
        assert_eq!(m, Monomial::var_pow(y, 3));
        assert_eq!(m.leading_var(), Some(y));
    }

    /// Random monomial over the first `n_vars` ranks with 0–4 factors, so
    /// samples fall on both sides of the inline/spill boundary.
    fn random_factors(rng: &mut Rng, n_vars: usize) -> Vec<(VarId, u64)> {
        (0..rng.random_range(0..5))
            .map(|_| {
                let v = VarId(rng.random_range(0..n_vars) as u32);
                (v, 1 + rng.random_below(3))
            })
            .collect()
    }

    /// The same factors forced into heap storage, whatever their count.
    fn spilled_copy(m: &Monomial) -> Monomial {
        Monomial {
            factors: Factors::Heap(m.factors().to_vec()),
        }
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Reference operations on plain `Vec<(VarId, u64)>` factor lists, the
    /// storage `Monomial` used before short products moved inline: each
    /// variable's exponent pair goes through `combine` (repeated factors of
    /// one operand sum first), zeros drop out.
    fn reference(
        a: &[(VarId, u64)],
        b: &[(VarId, u64)],
        combine: impl Fn(VarId, u64, u64) -> u64,
    ) -> Vec<(VarId, u64)> {
        let mut vars: Vec<VarId> = a.iter().chain(b).map(|&(v, _)| v).collect();
        vars.sort();
        vars.dedup();
        let exp = |fs: &[(VarId, u64)], v| fs.iter().filter(|f| f.0 == v).map(|f| f.1).sum();
        vars.into_iter()
            .map(|v| (v, combine(v, exp(a, v), exp(b, v))))
            .filter(|&(_, e)| e > 0)
            .collect()
    }

    fn ring_of(mode: ExponentMode, n_vars: usize) -> Ring {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        for i in 0..n_vars {
            let kind = if i % 2 == 0 {
                VarKind::Bit
            } else {
                VarKind::Word
            };
            rb.add_var(format!("v{i}"), kind);
        }
        rb.build()
    }

    #[test]
    fn inline_and_spilled_storage_are_indistinguishable() {
        let mut rng = Rng::seed_from_u64(0x5EED);
        for _ in 0..500 {
            let a = Monomial::from_factors(random_factors(&mut rng, 6));
            let b = Monomial::from_factors(random_factors(&mut rng, 6));
            let (sa, sb) = (spilled_copy(&a), spilled_copy(&b));
            assert_eq!(sa, a);
            assert_eq!(sa.cmp(&b), a.cmp(&b));
            assert_eq!(a.cmp(&sb), a.cmp(&b));
            assert_eq!(sa.cmp(&sb), a.cmp(&b));
            assert_eq!(sa == sb, a == b);
            assert_eq!(hash_of(&sa), hash_of(&a));
            // Bit-identical to hashing the old `Vec`-backed field.
            assert_eq!(hash_of(&a), hash_of(&a.factors().to_vec()));
            assert_eq!(a.spilled(), a.factors().len() > INLINE_FACTORS);
        }
    }

    #[test]
    fn three_factor_products_spill() {
        let (ring, x, y, z) = setup();
        let xy = Monomial::var(x).mul(&Monomial::var(y), &ring).unwrap();
        assert!(!xy.spilled());
        let xyz = xy.mul(&Monomial::var(z), &ring).unwrap();
        assert!(xyz.spilled());
        assert_eq!(xyz.factors(), [(x, 1), (y, 1), (z, 1)]);
        // Merging back down to two factors moves inline again.
        assert!(!Monomial::from_factors(vec![(x, 1), (y, 1), (x, 2)]).spilled());
        assert!(std::mem::size_of::<Monomial>() <= 40);
    }

    #[test]
    fn operations_match_vec_reference_across_the_spill_boundary() {
        let n_vars = 6;
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            let ring = ring_of(mode, n_vars);
            let mut rng = Rng::seed_from_u64(0xFAC7 + mode as u64);
            for _ in 0..1000 {
                let a = Monomial::from_factors(random_factors(&mut rng, n_vars));
                let b = Monomial::from_factors(random_factors(&mut rng, n_vars));
                let (fa, fb) = (a.factors(), b.factors());
                let combine = |v, x, y| match (x, y) {
                    (0, e) | (e, 0) => e,
                    _ => ring.combine_exponents(v, x, y).unwrap(),
                };
                let product = reference(fa, fb, combine);
                let lcm = reference(fa, fb, |_, x, y| x.max(y));
                let quotient = reference(&lcm, fa, |_, x, y| x - y);
                // A non-injective renaming, so relabelled factors can merge.
                let rename = |v: VarId| VarId((v.0 * 5 + 1) % 4);
                let mapped: Vec<(VarId, u64)> = fa.iter().map(|&(v, e)| (rename(v), e)).collect();
                let renamed = reference(&mapped, &[], |_, x, _| x);
                for (x, y) in [
                    (a.clone(), b.clone()),
                    (spilled_copy(&a), b.clone()),
                    (a.clone(), spilled_copy(&b)),
                ] {
                    let got = x.mul(&y, &ring).unwrap();
                    assert_eq!(got.factors(), product, "{x:?} * {y:?}");
                    let l = x.lcm(&y);
                    assert_eq!(l.factors(), lcm, "lcm({x:?}, {y:?})");
                    assert_eq!(x.quotient_of(&l).factors(), quotient, "{l:?} / {x:?}");
                    assert_eq!(x.relabel(rename).factors(), renamed, "relabel {x:?}");
                    for m in [got, l, x.relabel(rename)] {
                        assert_eq!(m.spilled(), m.factors().len() > INLINE_FACTORS);
                    }
                }
            }
        }
    }

    #[test]
    fn display_names() {
        let (ring, x, y, _) = setup();
        let m = Monomial::from_factors(vec![(x, 1), (y, 2)]);
        assert_eq!(format!("{}", m.display(&ring)), "x*y^2");
        assert_eq!(format!("{}", Monomial::one().display(&ring)), "1");
    }
}
