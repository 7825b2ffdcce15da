//! # gfab-field
//!
//! Binary Galois field arithmetic for hardware verification.
//!
//! This crate provides the coefficient-field substrate used throughout the
//! GFAB workspace:
//!
//! * [`Gf2Poly`] — dense polynomials over `F_2` stored as bit vectors
//!   (`u64` limbs), with the full ring toolbox: addition (XOR),
//!   multiplication, Euclidean division, GCD, extended GCD, modular
//!   exponentiation and an irreducibility test (Rabin's algorithm).
//! * [`GfContext`] / [`Gf`] — the extension field `F_{2^k}` constructed as
//!   `F_2[x] / (P(x))` for an irreducible `P`, with element arithmetic
//!   (add, mul, square, pow, inverse), the generator `α` (a root of `P`),
//!   and the Montgomery constants `R = x^k`, `R² mod P`, `R⁻¹` used by
//!   Montgomery multiplier circuits.
//! * [`nist`] — the five NIST-recommended ECC field polynomials
//!   (k = 163, 233, 283, 409, 571) plus a search routine for small-degree
//!   irreducible trinomials/pentanomials used in tests and examples.
//! * [`reference`](mod@reference) — the original (pre-kernel) bit-serial arithmetic,
//!   retained as a differential oracle for the optimized kernels.
//! * [`kernel`] — thread-local counters (coefficient multiplies, reduction
//!   folds, inline-vs-heap residency) published by the arithmetic kernels.
//!
//! Field sizes are unbounded in `k` (elements are limb vectors), which is
//! what lets the abstraction engine in `gfab-core` run on 571-bit datapaths.
//! Elements up to 576 bits (9 limbs — every NIST field) are stored inline
//! and multiplied on stack scratch: the hot coefficient arithmetic of the
//! division chain performs no heap allocation at all.
//!
//! # Example
//!
//! ```
//! use gfab_field::{GfContext, nist};
//!
//! // F_{2^163} with the NIST polynomial x^163 + x^7 + x^6 + x^3 + 1.
//! let ctx = GfContext::new(nist::nist_polynomial(163).unwrap()).unwrap();
//! let a = ctx.alpha();
//! let b = ctx.mul(&a, &a); // α²
//! assert_eq!(ctx.mul(&a, &ctx.inv(&a).unwrap()), ctx.one());
//! assert_eq!(b, ctx.pow_u64(&a, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod ctxcache;
mod field;
mod gf2poly;
pub mod kernel;
mod limbs;
pub mod nist;
mod reduce_mod;
pub mod reference;
pub mod rng;

pub use ctxcache::ContextCache;
pub use field::{FieldError, Gf, GfContext};
pub use gf2poly::{Gf2Poly, MulScratch};
pub use kernel::KernelCounts;
pub use limbs::INLINE_LIMBS;
pub use rng::Rng;
