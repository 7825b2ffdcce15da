//! Dense polynomials over `F_2` stored as bit vectors.

use crate::limbs::{LimbBuf, INLINE_LIMBS};
use std::fmt;

/// Stack accumulator size for products of two inline operands:
/// `2 * INLINE_LIMBS` limbs for the product plus one guard limb for the
/// modular reducer's shifted folds.
pub(crate) const STACK_ACC: usize = 2 * INLINE_LIMBS + 1;

/// Stack comb-table size: 16 rows of `INLINE_LIMBS + 1` limbs (each row is
/// the longer operand times a 4-bit window value, so up to 3 bits wider).
pub(crate) const STACK_TABLE: usize = 16 * (INLINE_LIMBS + 1);

/// A polynomial over `F_2` in dense bit-vector form.
///
/// Bit `i` of limb `j` is the coefficient of `x^(64*j + i)`. The limb vector
/// is kept *normalized*: the last limb is non-zero (the zero polynomial has
/// an empty limb vector).
///
/// Addition is XOR; multiplication is carry-less. Polynomials of degree
/// < 64·[`crate::limbs::INLINE_LIMBS`] (i.e. every reduced element of the
/// NIST fields up to k = 571) are stored inline without heap allocation;
/// longer polynomials spill to a heap vector transparently.
///
/// # Example
///
/// ```
/// use gfab_field::Gf2Poly;
///
/// // x^4 + x + 1 (the usual F_16 modulus)
/// let p = Gf2Poly::from_exponents(&[4, 1, 0]);
/// assert_eq!(p.degree(), Some(4));
/// assert!(p.is_irreducible());
/// let x = Gf2Poly::x();
/// // x^4 mod p = x + 1
/// let r = x.pow_mod(4, &p);
/// assert_eq!(r, Gf2Poly::from_exponents(&[1, 0]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf2Poly {
    limbs: LimbBuf,
}

/// Reusable heap scratch for [`Gf2Poly::mul_into`] when operands exceed the
/// inline stack path. Allocate once, multiply many times.
#[derive(Default)]
pub struct MulScratch {
    acc: Vec<u64>,
    table: Vec<u64>,
}

impl MulScratch {
    /// Fresh, empty scratch buffers (they grow on first use).
    #[must_use]
    pub fn new() -> Self {
        MulScratch::default()
    }
}

impl Gf2Poly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Gf2Poly {
            limbs: LimbBuf::new(),
        }
    }

    /// The constant polynomial `1`.
    #[must_use]
    pub fn one() -> Self {
        Gf2Poly {
            limbs: LimbBuf::from_slice(&[1]),
        }
    }

    /// The monomial `x`.
    #[must_use]
    pub fn x() -> Self {
        Gf2Poly {
            limbs: LimbBuf::from_slice(&[2]),
        }
    }

    /// The monomial `x^e`.
    #[must_use]
    pub fn monomial(e: usize) -> Self {
        let mut p = Gf2Poly::zero();
        p.set_coeff(e, true);
        p
    }

    /// Builds a polynomial from the exponents of its non-zero terms.
    ///
    /// Duplicate exponents cancel (coefficients are in `F_2`).
    #[must_use]
    pub fn from_exponents(exps: &[usize]) -> Self {
        let mut p = Gf2Poly::zero();
        for &e in exps {
            p.set_coeff(e, !p.coeff(e));
        }
        p
    }

    /// Builds a polynomial from its low 64 coefficients packed in a word.
    #[must_use]
    pub fn from_u64(bits: u64) -> Self {
        let mut p = Gf2Poly {
            limbs: LimbBuf::from_slice(&[bits]),
        };
        p.normalize();
        p
    }

    /// Builds a polynomial from little-endian limbs (bit `i` of limb `j` is
    /// the coefficient of `x^(64j+i)`).
    #[must_use]
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut p = Gf2Poly {
            limbs: LimbBuf::from_vec(limbs),
        };
        p.normalize();
        p
    }

    /// Builds a polynomial from a little-endian limb slice, storing it
    /// inline (allocation-free) whenever it fits.
    #[must_use]
    pub fn from_limb_slice(limbs: &[u64]) -> Self {
        // Trim before building so an over-long slice with a zero tail can
        // still land in inline storage.
        let mut n = limbs.len();
        while n > 0 && limbs[n - 1] == 0 {
            n -= 1;
        }
        Gf2Poly {
            limbs: LimbBuf::from_slice(&limbs[..n]),
        }
    }

    /// A view of the normalized little-endian limbs.
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        self.limbs.as_slice()
    }

    /// Whether the limbs are stored inline (no heap allocation backs this
    /// polynomial). Always true for degree < `64 * INLINE_LIMBS` values
    /// produced by the arithmetic kernels.
    #[must_use]
    pub fn is_inline(&self) -> bool {
        self.limbs.is_inline()
    }

    /// The low 64 coefficients packed in a word (0 for the zero polynomial).
    #[must_use]
    pub fn to_u64_lossy(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Whether this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is the constant polynomial `1`.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs.as_slice()[0] == 1
    }

    /// The degree, or `None` for the zero polynomial.
    #[must_use]
    pub fn degree(&self) -> Option<usize> {
        let last = *self.limbs.last()?;
        Some((self.limbs.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// The coefficient of `x^e`.
    #[must_use]
    pub fn coeff(&self, e: usize) -> bool {
        let (limb, bit) = (e / 64, e % 64);
        self.limbs.get(limb).is_some_and(|w| (w >> bit) & 1 == 1)
    }

    /// Sets the coefficient of `x^e`.
    pub fn set_coeff(&mut self, e: usize, value: bool) {
        let (limb, bit) = (e / 64, e % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1);
            }
            self.limbs.as_mut_slice()[limb] |= 1 << bit;
        } else if limb < self.limbs.len() {
            self.limbs.as_mut_slice()[limb] &= !(1 << bit);
            self.normalize();
        }
    }

    /// The number of non-zero coefficients.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.limbs
            .as_slice()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates over the exponents of non-zero terms, ascending.
    pub fn exponents(&self) -> impl Iterator<Item = usize> + '_ {
        self.limbs
            .as_slice()
            .iter()
            .enumerate()
            .flat_map(|(j, &w)| {
                (0..64).filter_map(move |i| ((w >> i) & 1 == 1).then_some(64 * j + i))
            })
    }

    fn normalize(&mut self) {
        self.limbs.trim_trailing_zeros();
    }

    /// Adds (XORs) `other` into `self`.
    pub fn add_assign(&mut self, other: &Gf2Poly) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len());
        }
        for (a, b) in self
            .limbs
            .as_mut_slice()
            .iter_mut()
            .zip(other.limbs.as_slice())
        {
            *a ^= *b;
        }
        self.normalize();
    }

    /// Returns `self + other` (addition over `F_2` is XOR).
    #[must_use]
    pub fn add(&self, other: &Gf2Poly) -> Gf2Poly {
        let mut r = self.clone();
        r.add_assign(other);
        r
    }

    /// Returns `self << e`, i.e. `self * x^e`.
    #[must_use]
    pub fn shl(&self, e: usize) -> Gf2Poly {
        if self.is_zero() || e == 0 {
            if e == 0 {
                return self.clone();
            }
            return Gf2Poly::zero();
        }
        let (limb_shift, bit_shift) = (e / 64, e % 64);
        let mut limbs = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (j, &w) in self.limbs.as_slice().iter().enumerate() {
            limbs[j + limb_shift] |= w << bit_shift;
            if bit_shift != 0 {
                limbs[j + limb_shift + 1] |= w >> (64 - bit_shift);
            }
        }
        Gf2Poly::from_limbs(limbs)
    }

    /// Returns the carry-less product `self * other`.
    ///
    /// Uses 4-bit windowed comb multiplication (a 16-row lookup table of
    /// window multiples of the longer operand, combed over the shorter
    /// one). Operands that fit the inline limb capacity run entirely on
    /// stack buffers; larger operands allocate transient scratch — reuse a
    /// [`MulScratch`] via [`Gf2Poly::mul_into`] to amortize that.
    #[must_use]
    pub fn mul(&self, other: &Gf2Poly) -> Gf2Poly {
        if self.is_zero() || other.is_zero() {
            return Gf2Poly::zero();
        }
        let (a, b) = (self.limbs.as_slice(), other.limbs.as_slice());
        if a.len() <= INLINE_LIMBS && b.len() <= INLINE_LIMBS {
            let mut acc = [0u64; STACK_ACC];
            let mut table = [0u64; STACK_TABLE];
            let n = a.len() + b.len();
            mul_comb(a, b, &mut acc[..n], &mut table);
            return Gf2Poly::from_limb_slice(&acc[..n]);
        }
        let mut scratch = MulScratch::new();
        self.mul_into(other, &mut scratch)
    }

    /// Returns `self * other` using caller-provided scratch buffers, so
    /// repeated large multiplications reuse one pair of allocations.
    ///
    /// Equivalent to [`Gf2Poly::mul`] (which this backs); only the scratch
    /// ownership differs.
    #[must_use]
    pub fn mul_into(&self, other: &Gf2Poly, scratch: &mut MulScratch) -> Gf2Poly {
        if self.is_zero() || other.is_zero() {
            return Gf2Poly::zero();
        }
        let (a, b) = (self.limbs.as_slice(), other.limbs.as_slice());
        let n = a.len() + b.len();
        let tw = a.len().max(b.len()) + 1;
        if scratch.acc.len() < n {
            scratch.acc.resize(n, 0);
        }
        if scratch.table.len() < 16 * tw {
            scratch.table.resize(16 * tw, 0);
        }
        mul_comb(a, b, &mut scratch.acc[..n], &mut scratch.table);
        Gf2Poly::from_limb_slice(&scratch.acc[..n])
    }

    /// Returns the square of `self`.
    ///
    /// Squaring is linear in characteristic 2: each bit of the operand is
    /// spread to an even bit position via an 8→16-bit table
    /// (`SPREAD8`-driven), no multiplication needed.
    #[must_use]
    pub fn square(&self) -> Gf2Poly {
        let a = self.limbs.as_slice();
        if a.len() <= INLINE_LIMBS {
            let mut acc = [0u64; 2 * INLINE_LIMBS];
            square_into(a, &mut acc[..2 * a.len()]);
            return Gf2Poly::from_limb_slice(&acc[..2 * a.len()]);
        }
        let mut acc = vec![0u64; 2 * a.len()];
        square_into(a, &mut acc);
        Gf2Poly::from_limbs(acc)
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q * divisor + r` and `deg r < deg divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn divrem(&self, divisor: &Gf2Poly) -> (Gf2Poly, Gf2Poly) {
        let dd = divisor.degree().expect("division by zero polynomial");
        let mut rem = self.clone();
        let mut quot = Gf2Poly::zero();
        while let Some(rd) = rem.degree() {
            if rd < dd {
                break;
            }
            let shift = rd - dd;
            quot.set_coeff(shift, true);
            rem.add_assign(&divisor.shl(shift));
        }
        (quot, rem)
    }

    /// Returns `self mod divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn rem(&self, divisor: &Gf2Poly) -> Gf2Poly {
        self.divrem(divisor).1
    }

    /// Greatest common divisor (monic by construction over `F_2`).
    #[must_use]
    pub fn gcd(&self, other: &Gf2Poly) -> Gf2Poly {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Extended GCD: returns `(g, s, t)` with `g = gcd(self, other)` and
    /// `s*self + t*other = g`.
    #[must_use]
    pub fn ext_gcd(&self, other: &Gf2Poly) -> (Gf2Poly, Gf2Poly, Gf2Poly) {
        let (mut r0, mut r1) = (self.clone(), other.clone());
        let (mut s0, mut s1) = (Gf2Poly::one(), Gf2Poly::zero());
        let (mut t0, mut t1) = (Gf2Poly::zero(), Gf2Poly::one());
        while !r1.is_zero() {
            let (q, r) = r0.divrem(&r1);
            r0 = std::mem::replace(&mut r1, r);
            let s = s0.add(&q.mul(&s1));
            s0 = std::mem::replace(&mut s1, s);
            let t = t0.add(&q.mul(&t1));
            t0 = std::mem::replace(&mut t1, t);
        }
        (r0, s0, t0)
    }

    /// Computes `self^e mod modulus` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or constant.
    #[must_use]
    pub fn pow_mod(&self, e: u64, modulus: &Gf2Poly) -> Gf2Poly {
        assert!(
            modulus.degree().unwrap_or(0) >= 1,
            "pow_mod modulus must have degree >= 1"
        );
        let mut base = self.rem(modulus);
        let mut acc = Gf2Poly::one();
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base).rem(modulus);
            }
            base = base.square().rem(modulus);
            e >>= 1;
        }
        acc
    }

    /// Computes `self^(2^m) mod modulus` by `m` modular squarings.
    #[must_use]
    pub fn pow_2exp_mod(&self, m: usize, modulus: &Gf2Poly) -> Gf2Poly {
        let mut r = self.rem(modulus);
        for _ in 0..m {
            r = r.square().rem(modulus);
        }
        r
    }

    /// Rabin's irreducibility test over `F_2`.
    ///
    /// `f` of degree `k` is irreducible iff `x^(2^k) ≡ x (mod f)` and for
    /// every prime `p | k`, `gcd(x^(2^(k/p)) - x mod f, f) = 1`.
    /// Constants and degree-0 polynomials are not irreducible; degree-1
    /// polynomials are.
    #[must_use]
    pub fn is_irreducible(&self) -> bool {
        let Some(k) = self.degree() else {
            return false;
        };
        if k == 0 {
            return false;
        }
        if k == 1 {
            return true;
        }
        // f must have a non-zero constant term unless f = x (degree-1,
        // handled above): otherwise x | f.
        if !self.coeff(0) {
            return false;
        }
        let x = Gf2Poly::x();
        // x^(2^k) == x (mod f)
        if x.pow_2exp_mod(k, self) != x.rem(self) {
            return false;
        }
        for p in prime_divisors(k) {
            let h = x.pow_2exp_mod(k / p, self).add(&x.rem(self));
            if !self.gcd(&h).is_one() {
                return false;
            }
        }
        true
    }
}

/// 4-bit windowed comb multiplication over raw limb slices:
/// `acc = a * b` (carry-less). `acc` must be exactly `a.len() + b.len()`
/// limbs; `table` must hold at least `16 * (max_len + 1)` limbs. Both are
/// overwritten. Shared by [`Gf2Poly::mul`] and the reduced field
/// multiplication in [`crate::GfContext`].
pub(crate) fn mul_comb(a: &[u64], b: &[u64], acc: &mut [u64], table: &mut [u64]) {
    debug_assert!(!a.is_empty() && !b.is_empty());
    debug_assert_eq!(acc.len(), a.len() + b.len());
    // Comb over the shorter operand: fewer window lookups per pass.
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // Table row u holds u(x)·b(x); window values are 4 bits wide so each
    // row needs one limb of headroom over b.
    let tw = b.len() + 1;
    let table = &mut table[..16 * tw];
    table[..tw].fill(0);
    table[tw..tw + b.len()].copy_from_slice(b);
    table[tw + b.len()] = 0;
    for u in 2..16usize {
        if u % 2 == 0 {
            // T[u] = T[u/2] · x
            let mut carry = 0u64;
            for i in 0..tw {
                let s = table[(u / 2) * tw + i];
                table[u * tw + i] = (s << 1) | carry;
                carry = s >> 63;
            }
        } else {
            // T[u] = T[u-1] + b
            for i in 0..tw {
                table[u * tw + i] = table[(u - 1) * tw + i] ^ table[tw + i];
            }
        }
    }
    acc.fill(0);
    for w in (0..16usize).rev() {
        if w != 15 {
            // acc *= x^4. The intermediate degree is bounded by the final
            // product degree, so the carry out of the top limb is zero.
            let mut carry = 0u64;
            for limb in acc.iter_mut() {
                let next = *limb >> 60;
                *limb = (*limb << 4) | carry;
                carry = next;
            }
            debug_assert_eq!(carry, 0);
        }
        let shift = 4 * w;
        for (j, &aw) in a.iter().enumerate() {
            let nib = ((aw >> shift) & 0xF) as usize;
            if nib != 0 {
                let row = &table[nib * tw..(nib + 1) * tw];
                for (dst, &src) in acc[j..j + tw].iter_mut().zip(row) {
                    *dst ^= src;
                }
            }
        }
    }
}

/// Squaring over raw limb slices: `acc = a²` via the 8→16 bit-spread
/// table. `acc` must be exactly `2 * a.len()` limbs and is overwritten.
pub(crate) fn square_into(a: &[u64], acc: &mut [u64]) {
    debug_assert_eq!(acc.len(), 2 * a.len());
    for (j, &w) in a.iter().enumerate() {
        acc[2 * j] = spread_bits(w as u32);
        acc[2 * j + 1] = spread_bits((w >> 32) as u32);
    }
}

/// 8→16 bit-spread table: entry `b` holds the bits of `b` moved to even
/// positions (`bit i → bit 2i`), i.e. the carry-less square of a byte.
const SPREAD8: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u16;
        let mut i = 0;
        while i < 8 {
            if (b >> i) & 1 == 1 {
                v |= 1 << (2 * i);
            }
            i += 1;
        }
        t[b] = v;
        b += 1;
    }
    t
};

/// Spreads the 32 bits of `w` into the even bit positions of a 64-bit word
/// using four byte-table lookups.
#[inline]
fn spread_bits(w: u32) -> u64 {
    (SPREAD8[(w & 0xFF) as usize] as u64)
        | ((SPREAD8[((w >> 8) & 0xFF) as usize] as u64) << 16)
        | ((SPREAD8[((w >> 16) & 0xFF) as usize] as u64) << 32)
        | ((SPREAD8[(w >> 24) as usize] as u64) << 48)
}

fn prime_divisors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

impl fmt::Debug for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Poly({self})")
    }
}

impl fmt::Display for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        let exps: Vec<usize> = self.exponents().collect();
        for &e in exps.iter().rev() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match e {
                0 => write!(f, "1")?,
                1 => write!(f, "x")?,
                _ => write!(f, "x^{e}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_basics() {
        assert!(Gf2Poly::zero().is_zero());
        assert_eq!(Gf2Poly::zero().degree(), None);
        assert!(Gf2Poly::one().is_one());
        assert_eq!(Gf2Poly::one().degree(), Some(0));
        assert_eq!(Gf2Poly::x().degree(), Some(1));
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = Gf2Poly::from_exponents(&[5, 3, 0]);
        let b = Gf2Poly::from_exponents(&[3, 1]);
        let s = a.add(&b);
        assert_eq!(s, Gf2Poly::from_exponents(&[5, 1, 0]));
        assert_eq!(s.add(&b), a);
        assert!(a.add(&a).is_zero());
    }

    #[test]
    fn from_exponents_cancels_duplicates() {
        let p = Gf2Poly::from_exponents(&[3, 3, 2]);
        assert_eq!(p, Gf2Poly::monomial(2));
    }

    #[test]
    fn shl_matches_monomial_multiplication() {
        let a = Gf2Poly::from_exponents(&[2, 0]);
        assert_eq!(a.shl(63), a.mul(&Gf2Poly::monomial(63)));
        assert_eq!(a.shl(64), a.mul(&Gf2Poly::monomial(64)));
        assert_eq!(a.shl(130).degree(), Some(132));
    }

    #[test]
    fn multiplication_small_known_values() {
        // (x+1)(x+1) = x^2+1 in F_2[x]
        let a = Gf2Poly::from_exponents(&[1, 0]);
        assert_eq!(a.mul(&a), Gf2Poly::from_exponents(&[2, 0]));
        // (x^2+x+1)(x+1) = x^3 + 1
        let b = Gf2Poly::from_exponents(&[2, 1, 0]);
        assert_eq!(b.mul(&a), Gf2Poly::from_exponents(&[3, 0]));
    }

    #[test]
    fn mul_matches_reference_bit_serial() {
        let cases = [
            (vec![0usize], vec![0usize]),
            (vec![1, 0], vec![200, 64, 1]),
            (vec![127, 126, 64, 63, 1, 0], vec![255, 128, 65, 2]),
            (vec![700, 300, 0], vec![650, 64, 63, 5]),
        ];
        for (ea, eb) in &cases {
            let a = Gf2Poly::from_exponents(ea);
            let b = Gf2Poly::from_exponents(eb);
            let want = crate::reference::mul(&a, &b);
            assert_eq!(a.mul(&b), want, "a={a} b={b}");
            assert_eq!(b.mul(&a), want);
            let mut scratch = MulScratch::new();
            assert_eq!(a.mul_into(&b, &mut scratch), want);
            // Scratch reuse must not leak state between products.
            assert_eq!(a.mul_into(&b, &mut scratch), want);
        }
    }

    #[test]
    fn square_matches_mul() {
        let p = Gf2Poly::from_exponents(&[100, 64, 63, 7, 0]);
        assert_eq!(p.square(), p.mul(&p));
        let big = Gf2Poly::from_exponents(&[1000, 577, 64, 0]);
        assert_eq!(big.square(), big.mul(&big));
    }

    #[test]
    fn inline_storage_for_small_results() {
        let a = Gf2Poly::from_exponents(&[280, 1]);
        let b = Gf2Poly::from_exponents(&[281, 0]);
        assert!(a.is_inline() && b.is_inline());
        // Product of two 5-limb values still fits 9 limbs? 280+281 = 561 ✓
        assert!(a.mul(&b).is_inline());
        // A product past 576 bits spills to the heap.
        let c = Gf2Poly::from_exponents(&[300]);
        assert!(!c.mul(&c).is_inline());
        assert_eq!(c.mul(&c), Gf2Poly::monomial(600));
    }

    #[test]
    fn divrem_roundtrip() {
        let a = Gf2Poly::from_exponents(&[10, 9, 5, 1]);
        let b = Gf2Poly::from_exponents(&[4, 1, 0]);
        let (q, r) = a.divrem(&b);
        assert!(r.degree().unwrap_or(0) < 4);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn gcd_of_multiples() {
        let g = Gf2Poly::from_exponents(&[3, 1, 0]);
        let a = g.mul(&Gf2Poly::from_exponents(&[2, 0]));
        let b = g.mul(&Gf2Poly::from_exponents(&[1]));
        assert_eq!(a.gcd(&b), g);
    }

    #[test]
    fn ext_gcd_bezout_identity() {
        let a = Gf2Poly::from_exponents(&[7, 2, 0]);
        let b = Gf2Poly::from_exponents(&[5, 4, 3, 1]);
        let (g, s, t) = a.ext_gcd(&b);
        assert_eq!(s.mul(&a).add(&t.mul(&b)), g);
    }

    #[test]
    fn irreducibility_known_cases() {
        assert!(Gf2Poly::from_exponents(&[2, 1, 0]).is_irreducible()); // x^2+x+1
        assert!(Gf2Poly::from_exponents(&[4, 1, 0]).is_irreducible()); // x^4+x+1
        assert!(Gf2Poly::from_exponents(&[8, 4, 3, 1, 0]).is_irreducible()); // AES
        assert!(!Gf2Poly::from_exponents(&[2, 0]).is_irreducible()); // (x+1)^2
        assert!(!Gf2Poly::from_exponents(&[4, 2, 0]).is_irreducible()); // (x^2+x+1)^2
        assert!(!Gf2Poly::one().is_irreducible());
        assert!(!Gf2Poly::zero().is_irreducible());
        assert!(Gf2Poly::x().is_irreducible());
    }

    #[test]
    fn pow_mod_fermat_little() {
        // In F_2[x]/(x^4+x+1) every non-zero element satisfies a^15 = 1.
        let m = Gf2Poly::from_exponents(&[4, 1, 0]);
        for bits in 1u64..16 {
            let a = Gf2Poly::from_u64(bits);
            assert!(a.pow_mod(15, &m).is_one(), "a = {a}");
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Gf2Poly::zero().to_string(), "0");
        assert_eq!(
            Gf2Poly::from_exponents(&[4, 1, 0]).to_string(),
            "x^4 + x + 1"
        );
    }

    #[test]
    fn set_coeff_clears_and_normalizes() {
        let mut p = Gf2Poly::monomial(100);
        p.set_coeff(100, false);
        assert!(p.is_zero());
        assert_eq!(p.limbs().len(), 0);
    }

    #[test]
    fn exponents_iterator_roundtrip() {
        let exps = [0usize, 3, 64, 127, 130];
        let p = Gf2Poly::from_exponents(&exps);
        let back: Vec<usize> = p.exponents().collect();
        assert_eq!(back, exps);
    }

    #[test]
    fn spread_table_matches_shift_ladder() {
        for w in [0u32, 1, 0xFF, 0xDEAD_BEEF, u32::MAX, 0x8000_0001] {
            let mut x = w as u64;
            x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
            x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
            x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
            x = (x | (x << 2)) & 0x3333_3333_3333_3333;
            x = (x | (x << 1)) & 0x5555_5555_5555_5555;
            assert_eq!(spread_bits(w), x);
        }
    }
}
