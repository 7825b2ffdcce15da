//! The extension field `F_{2^k}` and its element type.

use crate::gf2poly::{mul_comb, square_into, Gf2Poly, STACK_ACC, STACK_TABLE};
use crate::kernel;
use crate::limbs::INLINE_LIMBS;
use crate::reduce_mod::{xor_slice_shifted, ModReducer};
use crate::rng::Rng;
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Errors produced when constructing or operating on a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The construction polynomial is not irreducible over `F_2`.
    ReducibleModulus(Gf2Poly),
    /// The construction polynomial has degree < 2 (no proper extension).
    DegreeTooSmall,
    /// Attempted to invert the zero element.
    ZeroInverse,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::ReducibleModulus(p) => {
                write!(f, "polynomial {p} is not irreducible over F_2")
            }
            FieldError::DegreeTooSmall => write!(f, "field construction needs degree >= 2"),
            FieldError::ZeroInverse => write!(f, "zero element has no multiplicative inverse"),
        }
    }
}

impl std::error::Error for FieldError {}

/// An element of `F_{2^k}`, stored as its polynomial-basis representation
/// (a polynomial over `F_2` of degree < k).
///
/// Elements are context-free data; all arithmetic goes through the owning
/// [`GfContext`] so that the modulus is applied consistently. Mixing
/// elements from different contexts is a logic error the type system does
/// not prevent (deliberately, to keep elements lightweight) — the netlist
/// and polynomial layers each hold a single shared context.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf(pub(crate) Gf2Poly);

impl Gf {
    /// Whether this is the additive identity.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Whether this is the multiplicative identity.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.0.is_one()
    }

    /// The underlying polynomial-basis representation.
    #[must_use]
    pub fn as_poly(&self) -> &Gf2Poly {
        &self.0
    }

    /// Bit `i` of the polynomial-basis representation (coefficient of `α^i`).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        self.0.coeff(i)
    }

    /// Field addition (coefficient-wise XOR).
    ///
    /// Addition never requires modular reduction, so unlike multiplication
    /// it is available directly on elements without a [`GfContext`]. The
    /// result equals [`GfContext::add`] for any context both operands
    /// belong to.
    #[must_use]
    pub fn add(&self, other: &Gf) -> Gf {
        Gf(self.0.add(&other.0))
    }
}

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf({})", self.0)
    }
}

impl fmt::Display for Gf {
    /// Displays the element as a polynomial in `α` (e.g. `α^3 + α + 1`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_zero() {
            return write!(f, "0");
        }
        let exps: Vec<usize> = self.0.exponents().collect();
        let mut first = true;
        for &e in exps.iter().rev() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match e {
                0 => write!(f, "1")?,
                1 => write!(f, "α")?,
                _ => write!(f, "α^{e}")?,
            }
        }
        Ok(())
    }
}

thread_local! {
    // Heap scratch for products whose operands exceed the inline limb
    // capacity (k > 576). Reused across calls so even the big-field path
    // settles into zero steady-state allocation.
    static BIG_SCRATCH: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The exponent `e` of an element that is the single power `α^e`: its
/// normalized limbs hold exactly one set bit.
fn single_power(limbs: &[u64]) -> Option<usize> {
    let (&top, below) = limbs.split_last()?;
    (top.is_power_of_two() && below.iter().all(|&w| w == 0))
        .then(|| 64 * below.len() + top.trailing_zeros() as usize)
}

/// The field `F_{2^k} = F_2[x] / (P(x))` for an irreducible `P` of degree `k`.
///
/// The context owns the modulus, plus a reduction plan precomputed at
/// construction (`ModReducer`): sparse moduli (all NIST polynomials) fold
/// overflow limbs with shifted XORs, dense moduli use a `x^{64j} mod P`
/// table — either way [`GfContext::mul`]/[`GfContext::square`] never run
/// the generic Euclidean division. It is cheap to share via
/// [`GfContext::shared`] (an `Arc`), which is how the polynomial ring and
/// the verification engine reference it.
///
/// # Example
///
/// ```
/// use gfab_field::{GfContext, Gf2Poly};
///
/// let ctx = GfContext::new(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap(); // F_4
/// let a = ctx.alpha();
/// // α² = α + 1 in F_4
/// assert_eq!(ctx.mul(&a, &a), ctx.add(&a, &ctx.one()));
/// ```
#[derive(Debug, Clone)]
pub struct GfContext {
    k: usize,
    modulus: Gf2Poly,
    reducer: ModReducer,
    /// [`GfContext::dual_basis`], computed on first use.
    dual: OnceLock<Vec<Gf>>,
}

/// Two contexts are equal when they build the same field: everything
/// else, the lazily computed dual basis included, follows from the modulus.
impl PartialEq for GfContext {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus
    }
}

impl Eq for GfContext {}

impl GfContext {
    /// Constructs the field from an irreducible polynomial of degree ≥ 2.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DegreeTooSmall`] for degree < 2 and
    /// [`FieldError::ReducibleModulus`] if `modulus` fails Rabin's test.
    pub fn new(modulus: Gf2Poly) -> Result<Self, FieldError> {
        let k = modulus.degree().unwrap_or(0);
        if k < 2 {
            return Err(FieldError::DegreeTooSmall);
        }
        if !modulus.is_irreducible() {
            return Err(FieldError::ReducibleModulus(modulus));
        }
        let reducer = ModReducer::new(&modulus);
        Ok(GfContext {
            k,
            modulus,
            reducer,
            dual: OnceLock::new(),
        })
    }

    /// Constructs the field and wraps it in an `Arc` for sharing.
    pub fn shared(modulus: Gf2Poly) -> Result<Arc<Self>, FieldError> {
        Ok(Arc::new(Self::new(modulus)?))
    }

    /// The extension degree `k` (the circuit datapath width).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The field size `q = 2^k` if it fits in a `u64` (k ≤ 63).
    #[must_use]
    pub fn order_u64(&self) -> Option<u64> {
        (self.k <= 63).then(|| 1u64 << self.k)
    }

    /// The irreducible construction polynomial `P(x)`.
    #[must_use]
    pub fn modulus(&self) -> &Gf2Poly {
        &self.modulus
    }

    /// The additive identity.
    #[must_use]
    pub fn zero(&self) -> Gf {
        Gf(Gf2Poly::zero())
    }

    /// The multiplicative identity.
    #[must_use]
    pub fn one(&self) -> Gf {
        Gf(Gf2Poly::one())
    }

    /// The generator `α`, a root of `P(x)`.
    #[must_use]
    pub fn alpha(&self) -> Gf {
        Gf(Gf2Poly::x())
    }

    /// `α^e` reduced into the field.
    #[must_use]
    pub fn alpha_pow(&self, e: u64) -> Gf {
        self.pow_u64(&self.alpha(), e)
    }

    /// Builds an element from an arbitrary `F_2[x]` polynomial (reduced
    /// modulo `P`).
    #[must_use]
    pub fn element(&self, p: Gf2Poly) -> Gf {
        let kl = self.reducer.element_limbs();
        let pl = p.limbs();
        if pl.len() <= 2 * kl {
            // Word-level reduction: copy into a guarded buffer and fold.
            let blen = pl.len().max(kl) + 1;
            if blen <= STACK_ACC {
                let mut buf = [0u64; STACK_ACC];
                buf[..pl.len()].copy_from_slice(pl);
                self.reducer.reduce_in_place(&mut buf[..blen]);
                return Gf(Gf2Poly::from_limb_slice(&buf[..blen]));
            }
            let mut buf = vec![0u64; blen];
            buf[..pl.len()].copy_from_slice(pl);
            self.reducer.reduce_in_place(&mut buf);
            return Gf(Gf2Poly::from_limb_slice(&buf));
        }
        // Far-oversized input (degree ≥ 2·64·kl): generic division, the
        // fold tables don't reach that high. Construction-time only.
        Gf(p.rem(&self.modulus))
    }

    /// Builds an element from its low 64 polynomial-basis bits.
    #[must_use]
    pub fn from_u64(&self, bits: u64) -> Gf {
        self.element(Gf2Poly::from_u64(bits))
    }

    /// Builds an element from little-endian limbs that are already reduced
    /// (degree < k; checked in debug builds), skipping the modular fold of
    /// [`GfContext::element`]. Trailing zero limbs are allowed, so a
    /// fixed-width copy of [`Gf2Poly::limbs`] round-trips.
    #[must_use]
    pub fn from_reduced_limbs(&self, limbs: &[u64]) -> Gf {
        let p = Gf2Poly::from_limb_slice(limbs);
        debug_assert!(
            p.degree().is_none_or(|d| d < self.k),
            "limbs of degree {:?} are not reduced into F_2^{}",
            p.degree(),
            self.k
        );
        Gf(p)
    }

    /// Builds an element from a bit slice (`bits[i]` is the coefficient of
    /// `α^i`). Slices longer than `k` are reduced modulo `P`.
    #[must_use]
    pub fn from_bits(&self, bits: &[bool]) -> Gf {
        let mut p = Gf2Poly::zero();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.set_coeff(i, true);
            }
        }
        self.element(p)
    }

    /// The `k` polynomial-basis bits of an element, LSB first.
    #[must_use]
    pub fn to_bits(&self, a: &Gf) -> Vec<bool> {
        (0..self.k).map(|i| a.0.coeff(i)).collect()
    }

    /// Field addition (coefficient-wise XOR).
    #[must_use]
    pub fn add(&self, a: &Gf, b: &Gf) -> Gf {
        Gf(a.0.add(&b.0))
    }

    /// In-place field addition.
    pub fn add_assign(&self, a: &mut Gf, b: &Gf) {
        a.0.add_assign(&b.0);
    }

    /// Field multiplication: the carry-less product folded by the
    /// precomputed modular reducer. When either operand is a single power
    /// `α^e` (one set bit, as is every tail coefficient of a word
    /// definition), the product is the other operand shifted up by `e`
    /// bits; every other product runs the 4-bit windowed comb. Either way
    /// the unreduced product, and so the fold count, is the same. For
    /// k ≤ 576 the entire operation runs on stack buffers and the result
    /// lands in inline limb storage — no heap allocation.
    #[must_use]
    pub fn mul(&self, a: &Gf, b: &Gf) -> Gf {
        kernel::on_mul();
        if a.is_zero() || b.is_zero() {
            return self.zero();
        }
        let (al, bl) = (a.0.limbs(), b.0.limbs());
        let n = al.len() + bl.len();
        let shift = match (single_power(al), single_power(bl)) {
            (Some(e), _) => Some((e, bl)),
            (None, Some(e)) => Some((e, al)),
            (None, None) => None,
        };
        if al.len() <= INLINE_LIMBS && bl.len() <= INLINE_LIMBS {
            let mut acc = [0u64; STACK_ACC];
            if let Some((e, x)) = shift {
                xor_slice_shifted(&mut acc[e / 64..n], x, e % 64);
            } else {
                let mut table = [0u64; STACK_TABLE];
                mul_comb(al, bl, &mut acc[..n], &mut table);
            }
            self.reducer.reduce_in_place(&mut acc[..n + 1]);
            let out = Gf2Poly::from_limb_slice(&acc[..n]);
            kernel::note_result(out.is_inline());
            return Gf(out);
        }
        BIG_SCRATCH.with(|s| {
            let (acc, table) = &mut *s.borrow_mut();
            let tw = al.len().max(bl.len()) + 1;
            if acc.len() < n + 1 {
                acc.resize(n + 1, 0);
            }
            if table.len() < 16 * tw {
                table.resize(16 * tw, 0);
            }
            if let Some((e, x)) = shift {
                acc[..=n].fill(0);
                xor_slice_shifted(&mut acc[e / 64..n], x, e % 64);
            } else {
                acc[n] = 0;
                mul_comb(al, bl, &mut acc[..n], table);
            }
            self.reducer.reduce_in_place(&mut acc[..n + 1]);
            let out = Gf2Poly::from_limb_slice(&acc[..n]);
            kernel::note_result(out.is_inline());
            Gf(out)
        })
    }

    /// Field squaring (linear in characteristic 2; faster than `mul(a, a)`):
    /// table-driven bit spread followed by the precomputed reducer.
    #[must_use]
    pub fn square(&self, a: &Gf) -> Gf {
        kernel::on_square();
        let al = a.0.limbs();
        if al.is_empty() {
            return self.zero();
        }
        let n = 2 * al.len();
        if al.len() <= INLINE_LIMBS {
            let mut acc = [0u64; STACK_ACC];
            square_into(al, &mut acc[..n]);
            self.reducer.reduce_in_place(&mut acc[..n + 1]);
            let out = Gf2Poly::from_limb_slice(&acc[..n]);
            kernel::note_result(out.is_inline());
            return Gf(out);
        }
        BIG_SCRATCH.with(|s| {
            let (acc, _) = &mut *s.borrow_mut();
            if acc.len() < n + 1 {
                acc.resize(n + 1, 0);
            }
            acc[n] = 0;
            square_into(al, &mut acc[..n]);
            self.reducer.reduce_in_place(&mut acc[..n + 1]);
            let out = Gf2Poly::from_limb_slice(&acc[..n]);
            kernel::note_result(out.is_inline());
            Gf(out)
        })
    }

    /// `a^e` by square-and-multiply over the fast field kernels.
    #[must_use]
    pub fn pow_u64(&self, a: &Gf, e: u64) -> Gf {
        let mut base = a.clone();
        let mut acc = self.one();
        let mut e = e;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(&acc, &base);
            }
            base = self.square(&base);
            e >>= 1;
        }
        acc
    }

    /// `a^e` where `e` is given as little-endian 64-bit limbs, allowing
    /// exponents up to `2^(64·n)` (needed for `X^q` with `q = 2^k`, k > 63).
    #[must_use]
    pub fn pow_limbs(&self, a: &Gf, e_limbs: &[u64]) -> Gf {
        let mut acc = self.one();
        let mut base = a.clone();
        for &limb in e_limbs {
            let mut l = limb;
            for _ in 0..64 {
                if l & 1 == 1 {
                    acc = self.mul(&acc, &base);
                }
                base = self.square(&base);
                l >>= 1;
            }
        }
        acc
    }

    /// The multiplicative inverse via the extended Euclidean algorithm.
    /// Inverting many elements at once? Use [`GfContext::batch_inv`] —
    /// one of these plus ~3 multiplies per element.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] for the zero element.
    pub fn inv(&self, a: &Gf) -> Result<Gf, FieldError> {
        if a.is_zero() {
            return Err(FieldError::ZeroInverse);
        }
        let (g, s, _) = a.0.ext_gcd(&self.modulus);
        debug_assert!(g.is_one(), "modulus is irreducible, gcd must be 1");
        Ok(self.element(s))
    }

    /// Batch inversion by Montgomery's trick: inverts all of `xs` with a
    /// single extended-GCD inversion plus `3(n-1)` field multiplications.
    ///
    /// Returns the inverses in input order. The whole batch fails if any
    /// element is zero (checked up front — no partial work is done).
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] if any element of `xs` is zero.
    pub fn batch_inv(&self, xs: &[Gf]) -> Result<Vec<Gf>, FieldError> {
        if xs.iter().any(Gf::is_zero) {
            return Err(FieldError::ZeroInverse);
        }
        let n = xs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // prefix[i] = x_0 · x_1 · … · x_i
        let mut prefix = Vec::with_capacity(n);
        prefix.push(xs[0].clone());
        for x in &xs[1..] {
            let next = self.mul(prefix.last().expect("non-empty"), x);
            prefix.push(next);
        }
        // One real inversion of the total product, then sweep backwards:
        // inv_run = (x_0 … x_i)⁻¹ after step i.
        let mut inv_run = self.inv(&prefix[n - 1])?;
        let mut out = vec![self.zero(); n];
        for i in (1..n).rev() {
            out[i] = self.mul(&inv_run, &prefix[i - 1]);
            inv_run = self.mul(&inv_run, &xs[i]);
        }
        out[0] = inv_run;
        Ok(out)
    }

    /// Field division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] if `b` is zero.
    pub fn div(&self, a: &Gf, b: &Gf) -> Result<Gf, FieldError> {
        Ok(self.mul(a, &self.inv(b)?))
    }

    /// A uniformly random field element.
    #[must_use]
    pub fn random(&self, rng: &mut Rng) -> Gf {
        let nlimbs = self.k.div_ceil(64);
        let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.next_u64()).collect();
        let top_bits = self.k % 64;
        if top_bits != 0 {
            let mask = (1u64 << top_bits) - 1;
            *limbs.last_mut().expect("k >= 2 implies at least one limb") &= mask;
        }
        Gf(Gf2Poly::from_limbs(limbs))
    }

    /// Iterates over all `2^k` field elements (intended for small fields;
    /// panics if `k > 20` to prevent accidental exhaustive sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `k > 20`.
    pub fn iter_elements(&self) -> impl Iterator<Item = Gf> + '_ {
        assert!(
            self.k <= 20,
            "exhaustive element iteration requires k <= 20"
        );
        (0u64..(1 << self.k)).map(|bits| self.from_u64(bits))
    }

    /// The square root `√a = a^(2^(k-1))` (squaring is a bijection in
    /// characteristic 2, so every element has a unique square root, and
    /// the square-root map is `F_2`-linear).
    #[must_use]
    pub fn sqrt(&self, a: &Gf) -> Gf {
        let mut r = a.clone();
        for _ in 0..self.k.saturating_sub(1) {
            r = self.square(&r);
        }
        r
    }

    /// The absolute trace `Tr(a) = a + a² + a⁴ + … + a^(2^(k-1))`, always
    /// an element of `F_2 ⊂ F_{2^k}`. Used pervasively in hardware (e.g.
    /// point-compression and half-trace solvers in ECC).
    #[must_use]
    pub fn trace(&self, a: &Gf) -> Gf {
        let mut acc = a.clone();
        let mut pow = a.clone();
        for _ in 1..self.k {
            pow = self.square(&pow);
            acc = self.add(&acc, &pow);
        }
        debug_assert!(acc.is_zero() || acc.is_one(), "trace lands in F_2");
        acc
    }

    /// The dual basis `β_0, …, β_{k−1}` of the polynomial basis
    /// `1, α, …, α^{k−1}` under the trace form, `Tr(α^i·β_j) = δ_ij`, so
    /// bit `j` of every element `a` is `Tr(β_j·a)`. Computed on first use
    /// by one k × k solve over `F_2` of `T[i][m] = Tr(α^(i+m))`, then kept
    /// with the context.
    #[must_use]
    pub fn dual_basis(&self) -> &[Gf] {
        self.dual.get_or_init(|| {
            let k = self.k;
            // tr[j] = Tr(α^j) for j < 2k − 1: every entry of T.
            let mut tr = Vec::with_capacity(2 * k - 1);
            let mut power = self.one();
            for _ in 0..2 * k - 1 {
                tr.push(self.trace(&power).is_one());
                power = self.mul(&power, &self.alpha());
            }
            // Gauss–Jordan on [T | I], row i holding T's row in bits
            // 0..k and the identity in bits k..2k: the right half ends as
            // T⁻¹.
            let mut rows: Vec<Gf2Poly> = (0..k)
                .map(|i| {
                    let mut row = Gf2Poly::monomial(k + i);
                    for m in (0..k).filter(|&m| tr[i + m]) {
                        row.set_coeff(m, true);
                    }
                    row
                })
                .collect();
            for col in 0..k {
                let pivot = (col..k)
                    .find(|&r| rows[r].coeff(col))
                    .expect("the trace form of a separable extension is non-degenerate");
                rows.swap(col, pivot);
                let pivot_row = rows[col].clone();
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != col && row.coeff(col) {
                        row.add_assign(&pivot_row);
                    }
                }
            }
            // T is symmetric, so β_j = Σ_m T⁻¹[j][m]·α^m is row j.
            rows.iter()
                .map(|row| {
                    let mut beta = Gf2Poly::zero();
                    for m in (0..k).filter(|&m| row.coeff(k + m)) {
                        beta.set_coeff(m, true);
                    }
                    Gf(beta)
                })
                .collect()
        })
    }

    /// Montgomery radix `R = x^k mod P` (as a field element this is `α^k`).
    #[must_use]
    pub fn montgomery_r(&self) -> Gf {
        self.element(Gf2Poly::monomial(self.k))
    }

    /// `R² mod P`, the pre-multiplication constant of Fig. 1 of the paper.
    #[must_use]
    pub fn montgomery_r2(&self) -> Gf {
        self.element(Gf2Poly::monomial(2 * self.k))
    }

    /// `R⁻¹ mod P`, the factor a single Montgomery reduction introduces.
    #[must_use]
    pub fn montgomery_r_inv(&self) -> Gf {
        self.inv(&self.montgomery_r())
            .expect("x^k is non-zero modulo an irreducible P of degree k")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f16() -> GfContext {
        GfContext::new(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap()
    }

    #[test]
    fn rejects_reducible_and_tiny_moduli() {
        assert!(matches!(
            GfContext::new(Gf2Poly::from_exponents(&[4, 2, 0])),
            Err(FieldError::ReducibleModulus(_))
        ));
        assert!(matches!(
            GfContext::new(Gf2Poly::x()),
            Err(FieldError::DegreeTooSmall)
        ));
    }

    #[test]
    fn f4_multiplication_table() {
        // F_4 with P = x^2 + x + 1: elements {0, 1, α, α+1}.
        let ctx = GfContext::new(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let a = ctx.alpha();
        let a1 = ctx.add(&a, &ctx.one());
        assert_eq!(ctx.mul(&a, &a), a1); // α² = α+1
        assert_eq!(ctx.mul(&a, &a1), ctx.one()); // α(α+1) = α²+α = 1
        assert_eq!(ctx.mul(&a1, &a1), a); // (α+1)² = α²+1 = α
    }

    #[test]
    fn every_nonzero_element_has_inverse_f16() {
        let ctx = f16();
        for bits in 1u64..16 {
            let a = ctx.from_u64(bits);
            let ai = ctx.inv(&a).unwrap();
            assert_eq!(ctx.mul(&a, &ai), ctx.one(), "a = {a}");
        }
        assert_eq!(ctx.inv(&ctx.zero()), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn batch_inv_matches_individual_inverses() {
        let ctx = f16();
        let xs: Vec<Gf> = (1u64..16).map(|b| ctx.from_u64(b)).collect();
        let invs = ctx.batch_inv(&xs).unwrap();
        for (x, xi) in xs.iter().zip(&invs) {
            assert_eq!(Ok(xi.clone()), ctx.inv(x));
            assert_eq!(ctx.mul(x, xi), ctx.one());
        }
        assert_eq!(ctx.batch_inv(&[]), Ok(Vec::new()));
        let single = ctx.batch_inv(&[ctx.alpha()]).unwrap();
        assert_eq!(single, vec![ctx.inv(&ctx.alpha()).unwrap()]);
    }

    #[test]
    fn batch_inv_rejects_zero_elements() {
        let ctx = f16();
        let xs = vec![ctx.alpha(), ctx.zero(), ctx.one()];
        assert_eq!(ctx.batch_inv(&xs), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn mul_matches_reference_path_nist_571() {
        let ctx = GfContext::new(crate::nist::nist_polynomial(571).unwrap()).unwrap();
        let mut rng = Rng::seed_from_u64(571);
        for _ in 0..16 {
            let a = ctx.random(&mut rng);
            let b = ctx.random(&mut rng);
            let want = Gf(crate::reference::field_mul(
                ctx.modulus(),
                a.as_poly(),
                b.as_poly(),
            ));
            assert_eq!(ctx.mul(&a, &b), want);
            assert_eq!(
                ctx.square(&a),
                Gf(crate::reference::field_square(ctx.modulus(), a.as_poly()))
            );
        }
    }

    #[test]
    fn kernel_results_stay_inline_for_nist_fields() {
        let ctx = GfContext::new(crate::nist::nist_polynomial(571).unwrap()).unwrap();
        let mut rng = Rng::seed_from_u64(9);
        let before = crate::kernel::snapshot();
        let mut acc = ctx.one();
        for _ in 0..32 {
            let b = ctx.random(&mut rng);
            acc = ctx.mul(&acc, &b);
            acc = ctx.square(&acc);
        }
        assert!(acc.as_poly().is_inline());
        let d = crate::kernel::snapshot().delta_since(&before);
        assert_eq!(d.coeff_muls, 32);
        assert_eq!(d.coeff_squares, 32);
        assert_eq!(d.heap_results, 0);
        assert_eq!(d.inline_results, 64);
        assert!(d.reduction_folds > 0);
    }

    #[test]
    fn frobenius_fixes_field() {
        // a^(2^k) = a for all a in F_{2^k}.
        let ctx = f16();
        for a in ctx.iter_elements() {
            assert_eq!(ctx.pow_u64(&a, 16), a);
        }
    }

    #[test]
    fn pow_limbs_matches_pow_u64() {
        let ctx = f16();
        let a = ctx.from_u64(0b1011);
        for e in 0u64..40 {
            assert_eq!(ctx.pow_limbs(&a, &[e]), ctx.pow_u64(&a, e));
        }
        // Multi-limb exponent: a^(2^64) = a^(2^64 mod 15) since ord | 15.
        let big = ctx.pow_limbs(&a, &[0, 1]); // e = 2^64
        let reduced = ctx.pow_u64(&a, (1u128 << 64).rem_euclid(15) as u64);
        assert_eq!(big, reduced);
    }

    #[test]
    fn montgomery_constants_consistent() {
        let ctx = f16();
        let r = ctx.montgomery_r();
        let r2 = ctx.montgomery_r2();
        let rinv = ctx.montgomery_r_inv();
        assert_eq!(ctx.mul(&r, &r), r2);
        assert_eq!(ctx.mul(&r, &rinv), ctx.one());
    }

    #[test]
    fn random_elements_fit_in_field() {
        let ctx = f16();
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..100 {
            let a = ctx.random(&mut rng);
            assert!(a.as_poly().degree().unwrap_or(0) < 4);
        }
    }

    #[test]
    fn sqrt_inverts_squaring() {
        let ctx = f16();
        for a in ctx.iter_elements() {
            assert_eq!(ctx.sqrt(&ctx.square(&a)), a);
            assert_eq!(ctx.square(&ctx.sqrt(&a)), a);
        }
    }

    #[test]
    fn sqrt_is_linear() {
        let ctx = f16();
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                assert_eq!(
                    ctx.sqrt(&ctx.add(&a, &b)),
                    ctx.add(&ctx.sqrt(&a), &ctx.sqrt(&b))
                );
            }
        }
    }

    #[test]
    fn trace_is_linear_and_binary_and_balanced() {
        let ctx = f16();
        let mut ones = 0;
        for a in ctx.iter_elements() {
            let t = ctx.trace(&a);
            assert!(t.is_zero() || t.is_one());
            if t.is_one() {
                ones += 1;
            }
            for b in ctx.iter_elements() {
                assert_eq!(
                    ctx.trace(&ctx.add(&a, &b)),
                    ctx.add(&ctx.trace(&a), &ctx.trace(&b))
                );
            }
        }
        // Exactly half the field has trace 1.
        assert_eq!(ones, 8);
    }

    #[test]
    fn trace_is_frobenius_invariant() {
        let ctx = f16();
        for a in ctx.iter_elements() {
            assert_eq!(ctx.trace(&ctx.square(&a)), ctx.trace(&a));
        }
    }

    #[test]
    fn dual_basis_reads_every_bit_through_the_trace() {
        // Small fields, k = 63 (the largest Case 2 substitutes in) and
        // the NIST field at k = 163.
        for k in [2usize, 3, 4, 8, 63, 163] {
            let ctx = GfContext::new(crate::nist::irreducible_polynomial(k).unwrap()).unwrap();
            let dual = ctx.dual_basis();
            assert_eq!(dual.len(), k);
            for (i, j) in (0..k).flat_map(|i| (0..k).map(move |j| (i, j))) {
                let t = ctx.trace(&ctx.mul(&ctx.alpha_pow(i as u64), &dual[j]));
                assert_eq!(t.is_one(), i == j, "k = {k}: Tr(α^{i}·β_{j})");
            }
            let mut rng = Rng::seed_from_u64(k as u64);
            for _ in 0..8 {
                let a = ctx.random(&mut rng);
                let bits: Vec<bool> = dual
                    .iter()
                    .map(|b| ctx.trace(&ctx.mul(b, &a)).is_one())
                    .collect();
                assert_eq!(bits, ctx.to_bits(&a), "k = {k}");
            }
        }
        // The basis is cached, and equality still compares fields only.
        let (warm, cold) = (f16(), f16());
        assert!(std::ptr::eq(warm.dual_basis(), warm.dual_basis()));
        assert_eq!(warm, cold);
    }

    #[test]
    fn bits_roundtrip() {
        let ctx = f16();
        let a = ctx.from_u64(0b1101);
        let bits = ctx.to_bits(&a);
        assert_eq!(bits, vec![true, false, true, true]);
        assert_eq!(ctx.from_bits(&bits), a);
    }

    #[test]
    fn display_uses_alpha() {
        let ctx = f16();
        assert_eq!(ctx.from_u64(0b1011).to_string(), "α^3 + α + 1");
        assert_eq!(ctx.zero().to_string(), "0");
    }
}
