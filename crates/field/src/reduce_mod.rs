//! Precomputed modular reduction for `F_2[x] / (P(x))`.
//!
//! Built once per [`crate::GfContext`], a [`ModReducer`] reduces an
//! unreduced product (up to `2k` coefficient bits) in place, word at a
//! time, without ever running the generic Euclidean division:
//!
//! * **Sparse moduli** (trinomials/pentanomials — every NIST polynomial):
//!   `x^k = Σ x^{t_i}` for the low terms `t_i` of `P`, so a whole limb of
//!   overflow bits folds down with one shifted XOR per tail term.
//! * **Dense moduli**: a precomputed table of `x^{64j} mod P` for each
//!   overflow limb position `j`; folding a limb XORs the table row shifted
//!   by each set bit. Slower than the sparse path but still divmod-free.
//!
//! Both paths iterate until the degree drops below `k`; each fold strictly
//! decreases the maximum exponent, so termination is immediate (one pass
//! for every NIST modulus, whose tails sit far below `k − 64`).

use crate::gf2poly::Gf2Poly;

/// Maximum modulus weight that still uses the sparse shift-XOR path.
/// Anything heavier precomputes the dense fold table instead.
const SPARSE_WEIGHT_LIMIT: usize = 16;

/// A reduction plan for a fixed modulus `P` of degree `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ModReducer {
    /// `P = x^k + Σ x^{t}` with few tails: fold by shifted XOR.
    Sparse {
        /// Degree of the modulus.
        k: usize,
        /// Exponents of `P` below `k`, descending (so the largest shift,
        /// the one that can re-pollute the current limb, comes first).
        tails: Vec<usize>,
    },
    /// Dense modulus: table-driven folding.
    Dense {
        /// Degree of the modulus.
        k: usize,
        /// `folds[j]` = limbs of `x^{64·(kl+j)} mod P` (each `kl` limbs,
        /// zero-padded), for overflow limb positions `kl..=2·kl`.
        folds: Vec<Vec<u64>>,
        /// Limbs of `x^k mod P` (zero-padded to `kl`), for the partial
        /// top-limb bits when `k` is not a multiple of 64.
        xk: Vec<u64>,
    },
}

impl ModReducer {
    /// Builds the plan for `modulus` (degree ≥ 1 required).
    pub fn new(modulus: &Gf2Poly) -> ModReducer {
        let k = modulus
            .degree()
            .expect("reducer modulus must have degree >= 1");
        assert!(k >= 1, "reducer modulus must have degree >= 1");
        let kl = k.div_ceil(64);
        if modulus.weight() <= SPARSE_WEIGHT_LIMIT {
            let mut tails: Vec<usize> = modulus.exponents().filter(|&e| e < k).collect();
            tails.reverse();
            ModReducer::Sparse { k, tails }
        } else {
            let pad = |p: &Gf2Poly| {
                let mut v = p.limbs().to_vec();
                v.resize(kl, 0);
                v
            };
            let xk = Gf2Poly::monomial(k).rem(modulus);
            let folds = (kl..=2 * kl)
                .map(|j| pad(&Gf2Poly::monomial(64 * j).rem(modulus)))
                .collect();
            ModReducer::Dense {
                k,
                folds,
                xk: pad(&xk),
            }
        }
    }

    /// The modulus degree.
    pub fn k(&self) -> usize {
        match self {
            ModReducer::Sparse { k, .. } | ModReducer::Dense { k, .. } => *k,
        }
    }

    /// Limbs occupied by a reduced element.
    pub fn element_limbs(&self) -> usize {
        self.k().div_ceil(64)
    }

    /// Largest buffer (in limbs) that [`Self::reduce_in_place`] accepts.
    /// Covers any product of two reduced elements, with a guard limb.
    pub fn max_buf_limbs(&self) -> usize {
        2 * self.element_limbs() + 1
    }

    /// Reduces `buf` modulo `P` in place and returns the number of limb
    /// folds performed. On return, limbs `element_limbs()..` are zero and
    /// the value occupies limbs `..element_limbs()` with degree < `k`.
    ///
    /// `buf` must be at most [`Self::max_buf_limbs`] limbs: shifted folds
    /// from the top limb may touch one limb above it, which the guard
    /// limb inside that bound absorbs.
    pub fn reduce_in_place(&self, buf: &mut [u64]) -> u64 {
        debug_assert!(buf.len() <= self.max_buf_limbs());
        let mut fold_count = 0u64;
        match self {
            ModReducer::Sparse { k, tails } => {
                let k = *k;
                let kl = k.div_ceil(64);
                // Fold whole overflow limbs, top down. A fold whose tail
                // shift lands back in the current limb only ever sets
                // *lower* bits there, so the inner loop terminates.
                for j in (kl..buf.len()).rev() {
                    while buf[j] != 0 {
                        let w = buf[j];
                        buf[j] = 0;
                        for &t in tails {
                            xor_shifted(buf, w, 64 * j - k + t);
                        }
                        fold_count += 1;
                    }
                }
                // Partial top limb: bits k..64·kl map to x^{k+i} = Σ x^{t+i}.
                let kb = k % 64;
                if kb != 0 && kl <= buf.len() {
                    let mask = (1u64 << kb) - 1;
                    loop {
                        let w = buf[kl - 1] >> kb;
                        if w == 0 {
                            break;
                        }
                        buf[kl - 1] &= mask;
                        for &t in tails {
                            xor_shifted(buf, w, t);
                        }
                        fold_count += 1;
                        // A large tail can push bits past x^k again (never
                        // for NIST moduli); the loop re-folds them. It also
                        // cannot overflow limb kl-1: t + 63 - kb < k + 63,
                        // within the guard bound.
                        for j in (kl..buf.len()).rev() {
                            while buf[j] != 0 {
                                let v = buf[j];
                                buf[j] = 0;
                                for &t in tails {
                                    xor_shifted(buf, v, 64 * j - k + t);
                                }
                                fold_count += 1;
                            }
                        }
                    }
                }
            }
            ModReducer::Dense { k, folds, xk } => {
                let k = *k;
                let kl = k.div_ceil(64);
                // Fold whole overflow limbs, top down. Each fold of limb j
                // adds rows of degree < k shifted by < 64 bits, which can
                // reach at most limb kl — re-scanned by the outer loop.
                let mut j = buf.len().saturating_sub(1);
                while j >= kl {
                    while buf[j] != 0 {
                        let w = buf[j];
                        buf[j] = 0;
                        let row = &folds[j - kl];
                        for i in 0..64 {
                            if (w >> i) & 1 == 1 {
                                xor_slice_shifted(buf, row, i);
                            }
                        }
                        fold_count += 1;
                    }
                    j -= 1;
                }
                // Partial top limb: x^{k+i} = (x^k mod P)·x^i, which may
                // itself exceed k — iterate; the degree strictly drops.
                let kb = k % 64;
                if kb != 0 && kl <= buf.len() {
                    let mask = (1u64 << kb) - 1;
                    loop {
                        let w = buf[kl - 1] >> kb;
                        if w == 0 {
                            break;
                        }
                        buf[kl - 1] &= mask;
                        for i in 0..64 {
                            if (w >> i) & 1 == 1 {
                                xor_slice_shifted(buf, xk, i);
                            }
                        }
                        fold_count += 1;
                        let mut j = buf.len().saturating_sub(1);
                        while j >= kl {
                            while buf[j] != 0 {
                                let v = buf[j];
                                buf[j] = 0;
                                let row = &folds[j - kl];
                                for i in 0..64 {
                                    if (v >> i) & 1 == 1 {
                                        xor_slice_shifted(buf, row, i);
                                    }
                                }
                                fold_count += 1;
                            }
                            j -= 1;
                        }
                    }
                }
            }
        }
        crate::kernel::add_folds(fold_count);
        fold_count
    }
}

/// XORs the 64-bit word `w` into `buf` at bit offset `off`.
#[inline]
fn xor_shifted(buf: &mut [u64], w: u64, off: usize) {
    let (l, s) = (off / 64, off % 64);
    buf[l] ^= w << s;
    if s != 0 {
        let hi = w >> (64 - s);
        if l + 1 < buf.len() {
            buf[l + 1] ^= hi;
        } else {
            debug_assert_eq!(hi, 0, "fold overflowed the guard limb");
        }
    }
}

/// XORs the limb slice `row` into `buf` at bit offset `s < 64`; `buf`
/// must hold the bits shifted past `row`'s last limb.
#[inline]
pub(crate) fn xor_slice_shifted(buf: &mut [u64], row: &[u64], s: usize) {
    if s == 0 {
        for (dst, &src) in buf.iter_mut().zip(row) {
            *dst ^= src;
        }
    } else {
        let mut carry = 0u64;
        for (dst, &src) in buf.iter_mut().zip(row) {
            *dst ^= (src << s) | carry;
            carry = src >> (64 - s);
        }
        if carry != 0 {
            buf[row.len()] ^= carry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn reduce_via(reducer: &ModReducer, p: &Gf2Poly) -> Gf2Poly {
        let mut buf = p.limbs().to_vec();
        buf.resize(reducer.max_buf_limbs(), 0);
        let folds = reducer.reduce_in_place(&mut buf);
        assert!(folds > 0 || p.degree().is_none_or(|d| d < reducer.k()));
        Gf2Poly::from_limb_slice(&buf)
    }

    #[test]
    fn sparse_matches_generic_rem_nist() {
        for k in crate::nist::NIST_DEGREES {
            let m = crate::nist::nist_polynomial(k).unwrap();
            let reducer = ModReducer::new(&m);
            assert!(matches!(reducer, ModReducer::Sparse { .. }));
            let cases = [
                Gf2Poly::monomial(2 * k - 2),
                Gf2Poly::from_exponents(&[2 * k - 2, k, k - 1, 63, 0]),
                Gf2Poly::from_exponents(&[k]),
                Gf2Poly::from_exponents(&[k - 1]),
                Gf2Poly::one(),
                Gf2Poly::zero(),
            ];
            for p in &cases {
                assert_eq!(
                    reduce_via(&reducer, p),
                    reference::rem(p, &m),
                    "k={k} p={p}"
                );
            }
        }
    }

    #[test]
    fn dense_matches_generic_rem() {
        // A deliberately heavy modulus: weight > SPARSE_WEIGHT_LIMIT.
        let mut exps: Vec<usize> = (0..20).collect();
        exps.push(97);
        let m = Gf2Poly::from_exponents(&exps);
        let reducer = ModReducer::new(&m);
        assert!(matches!(reducer, ModReducer::Dense { .. }));
        let cases = [
            Gf2Poly::monomial(192),
            Gf2Poly::from_exponents(&[190, 97, 96, 64, 1, 0]),
            Gf2Poly::from_exponents(&[100, 99, 98, 97]),
            Gf2Poly::one(),
        ];
        for p in &cases {
            assert_eq!(reduce_via(&reducer, p), reference::rem(p, &m), "p={p}");
        }
    }

    #[test]
    fn exact_multiple_of_64_degree() {
        // k = 64: elements fill whole limbs exactly (kb == 0 path).
        let m = Gf2Poly::from_exponents(&[64, 4, 3, 1, 0]);
        assert!(m.is_irreducible());
        let reducer = ModReducer::new(&m);
        let p = Gf2Poly::from_exponents(&[126, 64, 63, 0]);
        assert_eq!(reduce_via(&reducer, &p), reference::rem(&p, &m));
    }
}
