//! # gfab-poly
//!
//! Multivariate polynomial algebra over `F_{2^k}`, tailored to the
//! word-level abstraction method of Pruss/Kalla/Enescu (DAC 2014).
//!
//! The central objects:
//!
//! * [`Ring`] — a polynomial ring `F_{2^k}[x_0, …, x_{n-1}]` whose variables
//!   are *ranked*: variable index 0 is the **greatest** in the pure
//!   lexicographic order. The abstraction term order of the paper (circuit
//!   bits > output word `Z` > input words) and its RATO refinement are
//!   expressed simply by choosing the variable numbering.
//! * [`Monomial`] — sparse power products with `u64` exponents.
//! * [`Poly`] — sorted sparse polynomials with [`gfab_field::Gf`]
//!   coefficients.
//! * [`reduce`] — multivariate division (normal forms) against divisor sets,
//!   with "triangular" circuit polynomials of the form `x + tail(x)` held as
//!   rank-indexed [`reduce::TailRecord`]s instead of polynomials.
//! * [`buchberger`] — S-polynomials and Buchberger's algorithm with the
//!   product and chain criteria, plus reduced Gröbner bases.
//! * [`vanishing`] — the vanishing ideal
//!   `J_0 = ⟨x² − x, …, X^q − X⟩` of `F_q` (Strong Nullstellensatz,
//!   Theorem 3.2 of the paper).
//!
//! ## Exponent semantics
//!
//! A ring is created in one of two [`ExponentMode`]s:
//!
//! * [`ExponentMode::Plain`] — textbook polynomial arithmetic. Vanishing
//!   polynomials must be explicit generators (this is the mode used by the
//!   Buchberger engine, matching the paper's `GB(J + J_0)`).
//! * [`ExponentMode::Quotient`] — arithmetic in the quotient ring
//!   `F_q[X]/J_0`: bit-variable exponents cap at 1 (`x² = x`) and
//!   word-variable exponents reduce by `X^q = X` whenever `q = 2^k` fits in
//!   a `u64`. This realizes *eager* division by `J_0` and is the mode used
//!   by the guided extraction flow, where every normal form is taken modulo
//!   a set containing `J_0` anyway.
//!
//! # Example
//!
//! ```
//! use gfab_field::{GfContext, Gf2Poly};
//! use gfab_poly::{RingBuilder, VarKind, ExponentMode};
//!
//! let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap(); // F_4
//! let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Quotient);
//! let x = rb.add_var("x", VarKind::Bit);   // greatest
//! let z = rb.add_var("Z", VarKind::Word);  // smaller
//! let ring = rb.build();
//! let p = ring.var_poly(x).mul(&ring.var_poly(x), &ring).unwrap(); // x² = x
//! assert_eq!(p, ring.var_poly(x));
//! let _ = z;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buchberger;
mod monomial;
mod parse;
mod poly;
pub mod reduce;
mod ring;
pub mod vanishing;

pub use monomial::Monomial;
pub use parse::{parse_constant, parse_poly, ParsePolyError};
pub use poly::{Poly, Term};
pub use ring::{ExponentMode, PolyError, Ring, RingBuilder, VarId, VarInfo, VarKind};
