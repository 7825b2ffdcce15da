//! The canonical word-level function `Z = F(A, B, …)` of a circuit.

use gfab_field::{Gf, GfContext, Rng};
use gfab_poly::{ExponentMode, Poly, Ring, RingBuilder, VarKind};
use std::fmt;
use std::sync::Arc;

/// The unique canonical polynomial function a circuit implements over
/// `F_{2^k}` (Definition 3.1 of the paper), expressed over the circuit's
/// input words only: `Z = F(A, B, …)`.
///
/// Canonicity means two circuits compute the same function **iff** their
/// `WordFunction`s compare equal term by term — this is the coefficient
/// matching step of the paper's verification flow.
///
/// Exponents are kept reduced by `X^q = X` whenever `q = 2^k` fits in a
/// `u64`; for larger fields the extraction never produces exponents
/// anywhere near `q`, so representations remain canonical in practice.
#[derive(Debug, Clone)]
pub struct WordFunction {
    ctx: Arc<GfContext>,
    ring: Ring,
    input_names: Vec<String>,
    poly: Poly,
}

impl WordFunction {
    /// Builds a word function over fresh word variables named
    /// `input_names`, from a polynomial `poly` already expressed over
    /// `VarId(0) … VarId(n-1)` in that order.
    ///
    /// # Panics
    ///
    /// Panics if `poly` references a variable outside the declared inputs.
    pub fn new(ctx: Arc<GfContext>, input_names: Vec<String>, poly: Poly) -> Self {
        let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Quotient);
        for name in &input_names {
            rb.add_var(name.clone(), VarKind::Word);
        }
        let ring = rb.build();
        if let Some(v) = poly.variables().last() {
            assert!(
                v.index() < input_names.len(),
                "polynomial references undeclared variable {v:?}"
            );
        }
        WordFunction {
            ctx,
            ring,
            input_names,
            poly,
        }
    }

    /// The coefficient field.
    pub fn ctx(&self) -> &Arc<GfContext> {
        &self.ctx
    }

    /// The input word names, in order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The canonical polynomial `F` (so that `Z = F(inputs)`).
    pub fn poly(&self) -> &Poly {
        &self.poly
    }

    /// The word-variable ring the polynomial lives in.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Number of terms of the canonical polynomial.
    pub fn num_terms(&self) -> usize {
        self.poly.num_terms()
    }

    /// Evaluates the function on one input word per declared input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub fn eval(&self, inputs: &[Gf]) -> Gf {
        assert_eq!(inputs.len(), self.input_names.len(), "input arity");
        self.poly.eval(&self.ring, inputs)
    }

    /// Whether two word functions are identical (coefficient matching):
    /// same field, same input arity, and term-by-term equal polynomials.
    ///
    /// Input *names* are not compared — equivalence checking aligns inputs
    /// positionally (Spec's first word against Impl's first word, etc.).
    pub fn matches(&self, other: &WordFunction) -> bool {
        self.ctx.modulus() == other.ctx.modulus()
            && self.input_names.len() == other.input_names.len()
            && self.poly == other.poly
    }

    /// Whether [`find_counterexample`](Self::find_counterexample) sweeps
    /// the whole input space, of at most 2^16 points, rather than
    /// sampling it.
    #[must_use]
    pub fn exhaustive_search(&self) -> bool {
        self.ctx.k() * self.input_names.len() <= 16
    }

    /// Searches for an input assignment on which the two functions differ.
    ///
    /// Exhaustive when the whole input space has at most 2^16 points;
    /// otherwise samples `tries` random assignments. A `None` from the
    /// random path is *not* a proof of equivalence (but [`matches`]
    /// already decides equivalence exactly; this is for reporting).
    ///
    /// [`matches`]: WordFunction::matches
    pub fn find_counterexample(
        &self,
        other: &WordFunction,
        tries: usize,
        rng: &mut Rng,
    ) -> Option<Vec<Gf>> {
        if self.input_names.len() != other.input_names.len() {
            return None;
        }
        let k = self.ctx.k();
        let n = self.input_names.len();
        if self.exhaustive_search() {
            let total = 1u64 << (k * n);
            for pattern in 0..total {
                let inputs: Vec<Gf> = (0..n)
                    .map(|i| {
                        let mask = (1u64 << k) - 1;
                        self.ctx.from_u64((pattern >> (i * k)) & mask)
                    })
                    .collect();
                if self.eval(&inputs) != other.eval(&inputs) {
                    return Some(inputs);
                }
            }
            None
        } else {
            for _ in 0..tries {
                let inputs: Vec<Gf> = (0..n).map(|_| self.ctx.random(rng)).collect();
                if self.eval(&inputs) != other.eval(&inputs) {
                    return Some(inputs);
                }
            }
            None
        }
    }

    /// Formats the canonical polynomial with its input names.
    pub fn display(&self) -> impl fmt::Display + '_ {
        self.poly.display(&self.ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_field::Gf2Poly;
    use gfab_poly::{Monomial, VarId};

    fn f4() -> Arc<GfContext> {
        GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap()
    }

    /// F(A, B) = A·B as a WordFunction.
    fn product_fn(ctx: &Arc<GfContext>) -> WordFunction {
        let poly = Poly::from_terms(vec![(
            Monomial::from_factors(vec![(VarId(0), 1), (VarId(1), 1)]),
            ctx.one(),
        )]);
        WordFunction::new(ctx.clone(), vec!["A".into(), "B".into()], poly)
    }

    #[test]
    fn eval_computes_product() {
        let ctx = f4();
        let f = product_fn(&ctx);
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                assert_eq!(f.eval(&[a.clone(), b.clone()]), ctx.mul(&a, &b));
            }
        }
    }

    #[test]
    fn matches_is_positional_not_name_based() {
        let ctx = f4();
        let f = product_fn(&ctx);
        let poly = Poly::from_terms(vec![(
            Monomial::from_factors(vec![(VarId(0), 1), (VarId(1), 1)]),
            ctx.one(),
        )]);
        let g = WordFunction::new(ctx.clone(), vec!["X".into(), "Y".into()], poly);
        assert!(f.matches(&g));
    }

    #[test]
    fn counterexample_found_for_different_functions() {
        let ctx = f4();
        let f = product_fn(&ctx);
        // G(A, B) = A + B.
        let sum = Poly::from_terms(vec![
            (Monomial::var(VarId(0)), ctx.one()),
            (Monomial::var(VarId(1)), ctx.one()),
        ]);
        let g = WordFunction::new(ctx.clone(), vec!["A".into(), "B".into()], sum);
        assert!(!f.matches(&g));
        let mut rng = Rng::from_entropy();
        let cex = f
            .find_counterexample(&g, 100, &mut rng)
            .expect("must differ");
        assert_ne!(f.eval(&cex), g.eval(&cex));
    }

    #[test]
    fn identical_functions_have_no_counterexample() {
        let ctx = f4();
        let f = product_fn(&ctx);
        let g = product_fn(&ctx);
        let mut rng = Rng::from_entropy();
        assert!(f.find_counterexample(&g, 100, &mut rng).is_none());
    }

    #[test]
    fn display_uses_input_names() {
        let ctx = f4();
        let f = product_fn(&ctx);
        assert_eq!(format!("{}", f.display()), "A*B");
    }
}
