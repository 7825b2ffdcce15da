//! Case 2 of Section 5: the guided reduction left primary-input bits in
//! its remainder `r`, and the canonical `Z + G(A, B, …)` has to be read
//! off `r` and the input word definitions.
//!
//! The query path, [`case2_by_substitution`], needs no Gröbner basis.
//! Every input bit is a linear function of its word,
//!
//! ```text
//! a_j = Tr(β_j·A) = Σ_{l<k} β_j^(2^l) · A^(2^l)
//! ```
//!
//! where `β_0, …, β_{k−1}` is the dual basis of `1, α, …, α^{k−1}`
//! ([`GfContext::dual_basis`]). Substituting this for every bit of `r` and
//! reducing word exponents by `A^q = A` leaves a polynomial in `Z` and the
//! words alone, with every exponent below `q`, that vanishes wherever the
//! circuit's relations hold. By uniqueness (Theorem 4.2, Corollary 4.1) it
//! is exactly the `Z + G` of the completion's reduced basis. An input word
//! of width `w < k` only takes values in `V = span{α^0, …, α^(w−1)}`, so
//! its polynomials are reduced modulo `L_V(A) = Π_{v∈V}(A − v)` instead:
//! the monic linearized polynomial of degree `2^w` that the completion's
//! basis holds for that word (`L_V(A) = A^q − A` when `w = k`).
//!
//! The paper's route, [`case2_by_groebner`] — the reduced Gröbner basis
//! of `{r, f_wi} ∪ J_0'` — stays as the reference the substitution is
//! tested against and as table4's ablation 2.

use crate::error::CoreError;
use crate::model::{word_function, CircuitModel};
use crate::wordfn::WordFunction;
use gfab_field::budget::{Budget, BudgetExceeded};
use gfab_field::{Gf, GfContext};
use gfab_poly::buchberger::{reduced_groebner_basis_traced, GbLimits, GbOutcome};
use gfab_poly::vanishing::vanishing_ideal_all;
use gfab_poly::{ExponentMode, Monomial, Poly, RingBuilder, VarId};
use gfab_telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// How many term products run between two budget polls, each poll
/// charging that many work units (as the guided reducer does).
const BUDGET_STRIDE: u64 = 1024;

/// The term products one substitution may run before it gives up. A
/// residual term with `d` bits of one word expands to up to
/// `min(k^d, q)` terms, and a fault that fires on a single value of a
/// word (`d = k`) makes every canonical polynomial `q` terms long, so
/// without a bound a Case 2 at `k` in the tens would run for minutes and
/// hold millions of terms. At the cap the residual goes on, as any other
/// residual does, to the simulation refutation; the cap is a constant,
/// so where it binds does not depend on the machine or on the caller's
/// budget, which is charged no further than it.
pub const CASE2_MAX_PRODUCTS: u64 = 1 << 22;

/// The outcome of one Case-2 completion.
#[derive(Debug, Clone)]
pub enum Case2Outcome {
    /// The canonical word function `G` of `Z + G(A, B, …)`.
    Canonical(WordFunction),
    /// No canonical form: why (a resource limit, or k > 63).
    GaveUp(String),
}

/// The note of a residual left at `k > 63`, where the exponents below `q`
/// do not fit in a `u64`.
pub(crate) fn beyond_k63(ctx: &GfContext) -> String {
    format!(
        "case-2 completion needs k <= 63 (k = {}): exponents below q = 2^k do not fit in u64",
        ctx.k()
    )
}

/// Case 2 by dual-basis trace substitution (the module docs give the
/// method). `residual` is the guided reduction's remainder over the
/// model ring. Returns the outcome and the term products run, the
/// `term-products` work counter of the Case-2 span. Each term product is
/// one work unit charged to `budget`, which is polled every 1024
/// products and at the end; the substitution gives up, its outcome
/// naming why, when the budget runs out or after
/// [`CASE2_MAX_PRODUCTS`] products.
///
/// # Errors
///
/// [`CoreError::MissingAbstractionPolynomial`] if `residual` holds a
/// variable other than primary-input bits, `Z` and the input words (it
/// is not a remainder of the guided reduction).
pub fn case2_by_substitution(
    model: &CircuitModel,
    residual: &Poly,
    budget: &Budget,
) -> Result<(Case2Outcome, u64), CoreError> {
    let ring = &model.ring;
    let ctx = ring.ctx();
    if ctx.order_u64().is_none() {
        return Ok((Case2Outcome::GaveUp(beyond_k63(ctx)), 0));
    }
    // Bit variable -> (input word, bit position): the word definition
    // `Σ a_j·α^j + A` gives bit j the coefficient α^j = x^j.
    let mut bit_of = HashMap::new();
    let mut words = Vec::with_capacity(model.input_vars.len());
    for (i, (def, &word)) in model
        .input_word_polys
        .iter()
        .zip(&model.input_vars)
        .enumerate()
    {
        let bits = def
            .terms()
            .iter()
            .filter(|(m, _)| m.leading_var() != Some(word));
        for (m, c) in bits {
            let position = c
                .as_poly()
                .degree()
                .expect("bit coefficients are powers of α");
            bit_of.insert(m.leading_var().expect("a bit"), (i, position as u32));
        }
        words.push(WordAlgebra::new(ctx, def.num_terms() - 1));
    }

    // Term keys: the exponents of Z and of the n input words, then per
    // word the mask of its bits still to substitute.
    let n = words.len();
    let mut terms = BTreeMap::new();
    for (m, c) in residual.terms() {
        let mut key = vec![0u64; 1 + 2 * n];
        for &(v, e) in m.factors() {
            if v == model.z_var {
                key[0] = e;
            } else if let Ok(i) = model.input_vars.binary_search(&v) {
                key[1 + i] = e;
            } else if let Some(&(i, j)) = bit_of.get(&v) {
                key[1 + n + i] |= 1 << j;
            } else {
                return Err(CoreError::MissingAbstractionPolynomial);
            }
        }
        accumulate(ctx, &mut terms, &key, c.clone());
    }

    let work = &mut Work {
        budget,
        products: 0,
    };
    let terms = match substitute(ctx, &mut words, terms, work) {
        Ok(terms) => terms,
        Err(stop) => return Ok((Case2Outcome::GaveUp(stop.to_string()), work.products)),
    };
    let zg = Poly::from_terms(
        terms
            .into_iter()
            .map(|(key, c)| {
                let vars = std::iter::once(&model.z_var).chain(&model.input_vars);
                let factors = vars.copied().zip(key[..=n].iter().copied()).collect();
                (Monomial::from_factors(factors), c)
            })
            .collect(),
    );
    let f = word_function(
        ring,
        model.z_var,
        &model.input_vars,
        std::slice::from_ref(&zg),
    )?;
    Ok((Case2Outcome::Canonical(f), work.products))
}

/// Term maps are ordered, so the expansion runs in the same order, and
/// allocates the same memory, on every run.
type Terms = BTreeMap<Vec<u64>, Gf>;

/// Substitutes the bits of each input word in turn, so the terms that
/// coincide after one word merge before the next word expands them.
fn substitute(
    ctx: &GfContext,
    words: &mut [WordAlgebra],
    mut terms: Terms,
    work: &mut Work,
) -> Result<Terms, Stop> {
    let n = words.len();
    for (i, word) in words.iter_mut().enumerate() {
        let (exp, mask) = (1 + i, 1 + n + i);
        let mut next = Terms::new();
        for (mut key, c) in terms {
            if key[mask] == 0 && key[exp] < word.top {
                accumulate(ctx, &mut next, &key, c);
                continue;
            }
            let factor = word.factor(key[mask], key[exp], work)?;
            key[mask] = 0;
            for (e, d) in factor.iter() {
                work.tick()?;
                key[exp] = *e;
                accumulate(ctx, &mut next, &key, ctx.mul(&c, d));
            }
        }
        next.retain(|_, c| !c.is_zero());
        terms = next;
    }
    work.finish()?;
    Ok(terms)
}

/// Adds `c` to the term of `map` at `key`.
fn accumulate(ctx: &GfContext, map: &mut Terms, key: &[u64], c: Gf) {
    match map.get_mut(key) {
        Some(acc) => ctx.add_assign(acc, &c),
        None => {
            map.insert(key.to_vec(), c);
        }
    }
}

/// The term products of one substitution, charged to the budget in
/// strides of [`BUDGET_STRIDE`] and the rest at the end: one unit per
/// product, and none past [`CASE2_MAX_PRODUCTS`].
struct Work<'a> {
    budget: &'a Budget,
    products: u64,
}

/// Why a substitution stopped short of its result.
enum Stop {
    Budget(BudgetExceeded),
    Cap,
}

impl From<BudgetExceeded> for Stop {
    fn from(e: BudgetExceeded) -> Self {
        Stop::Budget(e)
    }
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stop::Budget(e) => write!(f, "budget exhausted: {}", e.reason),
            Stop::Cap => write!(
                f,
                "case-2 substitution stopped at its cap of {CASE2_MAX_PRODUCTS} term products"
            ),
        }
    }
}

impl Work<'_> {
    fn tick(&mut self) -> Result<(), Stop> {
        if self.products == CASE2_MAX_PRODUCTS {
            return Err(Stop::Cap);
        }
        self.products += 1;
        if self.products.is_multiple_of(BUDGET_STRIDE) {
            self.budget.tick(BUDGET_STRIDE)?;
        }
        Ok(())
    }

    fn finish(&self) -> Result<(), Stop> {
        Ok(self.budget.tick(self.products % BUDGET_STRIDE)?)
    }
}

/// A univariate polynomial in one word: `(exponent, coefficient)` terms.
type UniPoly = Vec<(u64, Gf)>;

/// Polynomials in one input word `W` of width `w`, modulo the vanishing
/// polynomial `L_V(W)` of the `2^w` values the word takes.
struct WordAlgebra<'a> {
    ctx: &'a GfContext,
    /// `2^w`, the degree of `L_V`.
    top: u64,
    /// The nonzero `(2^i, c_i)` with `W^(2^w) = Σ_{i<w} c_i·W^(2^i)`
    /// modulo `L_V` (just `(1, 1)` when `w = k`: `W^q = W`).
    fold: Vec<(u64, Gf)>,
    /// Bit `j` of the word as a polynomial in `W`.
    bits: Vec<UniPoly>,
    /// `W^e · Π_{j ∈ mask} a_j` by `(mask, e)`.
    factors: HashMap<(u64, u64), Rc<UniPoly>>,
}

impl<'a> WordAlgebra<'a> {
    fn new(ctx: &'a GfContext, w: usize) -> Self {
        let k = ctx.k();
        // L_V(W) = Σ_{i≤w} lc[i]·W^(2^i), one basis vector u = α^t at a
        // time: L_{U+⟨u⟩}(W) = L_U(W)·L_U(W + u) = L_U(W)² + L_U(u)·L_U(W).
        let mut lc = vec![ctx.one()];
        for t in 0..w {
            let mut at_u = ctx.zero();
            let mut u_pow = ctx.alpha_pow(t as u64);
            for c in &lc {
                ctx.add_assign(&mut at_u, &ctx.mul(c, &u_pow));
                u_pow = ctx.square(&u_pow);
            }
            let mut next = vec![ctx.zero(); lc.len() + 1];
            for (i, c) in lc.iter().enumerate() {
                ctx.add_assign(&mut next[i + 1], &ctx.square(c));
                ctx.add_assign(&mut next[i], &ctx.mul(&at_u, c));
            }
            lc = next;
        }
        let fold: Vec<(u64, Gf)> = (0..w)
            .filter(|&i| !lc[i].is_zero())
            .map(|i| (1 << i, lc[i].clone()))
            .collect();

        // Bit j is Σ_{l<k} β_j^(2^l)·R_l, where R_l = W^(2^l) mod L_V is
        // linearized: frob[i] is its coefficient of W^(2^i). Squaring
        // shifts it up one place, and the W^(2^w) term folds back.
        let mut coeffs = vec![vec![ctx.zero(); w]; w];
        let mut conj: Vec<Gf> = ctx.dual_basis()[..w].to_vec();
        let mut frob = vec![ctx.zero(); w];
        if w > 0 {
            frob[0] = ctx.one();
        }
        for _ in 0..k {
            for (row, beta) in coeffs.iter_mut().zip(&conj) {
                for (i, f) in frob.iter().enumerate().filter(|(_, f)| !f.is_zero()) {
                    ctx.add_assign(&mut row[i], &ctx.mul(beta, f));
                }
            }
            if let Some(top) = frob.pop() {
                let carry = ctx.square(&top);
                frob = std::iter::once(ctx.zero())
                    .chain(frob.iter().map(|f| ctx.square(f)))
                    .zip(&lc)
                    .map(|(f, l)| ctx.add(&f, &ctx.mul(&carry, l)))
                    .collect();
            }
            conj = conj.iter().map(|b| ctx.square(b)).collect();
        }
        let bits = coeffs
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .filter(|(_, c)| !c.is_zero())
                    .map(|(i, c)| (1u64 << i, c))
                    .collect()
            })
            .collect();
        WordAlgebra {
            ctx,
            top: 1 << w,
            fold,
            bits,
            factors: HashMap::new(),
        }
    }

    /// `W^e · Π_{j ∈ mask} a_j` modulo `L_V`, built on the product of the
    /// mask without its highest bit and kept for later terms.
    fn factor(&mut self, mask: u64, e: u64, work: &mut Work) -> Result<Rc<UniPoly>, Stop> {
        if let Some(p) = self.factors.get(&(mask, e)) {
            return Ok(Rc::clone(p));
        }
        let one = self.ctx.one();
        let p = if e > 0 {
            let bits = self.factor(mask, 0, work)?;
            self.mul(&bits, &[(e, one)], work)?
        } else if mask == 0 {
            vec![(0, one)]
        } else {
            let high = 63 - mask.leading_zeros() as usize;
            let rest = self.factor(mask & !(1 << high), 0, work)?;
            self.mul(&rest, &self.bits[high], work)?
        };
        let p = Rc::new(p);
        self.factors.insert((mask, e), Rc::clone(&p));
        Ok(p)
    }

    /// `a · b` modulo `L_V`. Both operands' exponents are below
    /// `q ≤ 2^63`, so every sum fits in a `u64`. Long division from the
    /// top replaces `c·W^e`, `e ≥ 2^w`, by `c·W^(e − 2^w)·Σ c_i·W^(2^i)`;
    /// with `w = k` that is `W^e = W^(e − q + 1)`, so `W^(q−1)` stays
    /// apart from `W^0`.
    fn mul(&self, a: &[(u64, Gf)], b: &[(u64, Gf)], work: &mut Work) -> Result<UniPoly, Stop> {
        let ctx = self.ctx;
        let mut acc: BTreeMap<u64, Gf> = BTreeMap::new();
        let add = |acc: &mut BTreeMap<u64, Gf>, e: u64, c: Gf| {
            acc.entry(e)
                .and_modify(|t| ctx.add_assign(t, &c))
                .or_insert(c);
        };
        for (ea, ca) in a {
            for (eb, cb) in b {
                work.tick()?;
                add(&mut acc, ea + eb, ctx.mul(ca, cb));
            }
        }
        while let Some((e, c)) = acc.pop_last() {
            if e < self.top {
                acc.insert(e, c);
                break;
            }
            if c.is_zero() {
                continue;
            }
            for (p, l) in &self.fold {
                work.tick()?;
                add(&mut acc, e - self.top + p, ctx.mul(&c, l));
            }
        }
        Ok(acc.into_iter().filter(|(_, c)| !c.is_zero()).collect())
    }
}

/// Case 2 by the paper's route: the reduced Gröbner basis of
/// `{r, f_wi} ∪ J_0'` over the remaining variables (primary-input bits,
/// `Z`, input words), whose unique element led by `Z` is `Z + G(A, B, …)`.
/// Its cost grows with `q = 2^k` (the word vanishing polynomials have
/// degree `q`), so the query path uses [`case2_by_substitution`]; this is
/// the reference it is tested against and table4's ablation 2.
///
/// # Errors
///
/// [`CoreError::Poly`] on exponent overflow, and
/// [`CoreError::MissingAbstractionPolynomial`] if the basis holds no
/// `Z + G`.
pub fn case2_by_groebner(
    model: &CircuitModel,
    residual: &Poly,
    limits: &GbLimits,
    budget: &Budget,
    tele: &Telemetry,
) -> Result<Case2Outcome, CoreError> {
    let ctx = model.ring.ctx();
    if ctx.order_u64().is_none() {
        return Ok(Case2Outcome::GaveUp(beyond_k63(ctx)));
    }
    // The completion ring is the tail of the model ring: every variable
    // from the first primary-input bit onward, in the same order and with
    // the same names (the words') or none (the bits), but in Plain mode
    // (the vanishing polynomials must be explicit generators).
    let first_pi = model
        .input_word_polys
        .iter()
        .filter_map(|p| p.leading_monomial().and_then(|m| m.leading_var()))
        .min()
        .expect("at least one input word");
    let offset = first_pi.0;
    let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Plain);
    for (_, info) in model.ring.vars().skip(offset as usize) {
        if info.name.is_empty() {
            rb.add_unnamed(info.kind);
        } else {
            rb.add_var(info.name.clone(), info.kind);
        }
    }
    let cring = rb.build();
    let down = |v: VarId| VarId(v.0 - offset);

    let mut generators = vec![residual.relabel(down)];
    generators.extend(model.input_word_polys.iter().map(|p| p.relabel(down)));
    generators.extend(vanishing_ideal_all(&cring)?);

    match reduced_groebner_basis_traced(&cring, &generators, limits, budget, tele)? {
        GbOutcome::LimitExceeded { reason, .. } => Ok(Case2Outcome::GaveUp(reason)),
        GbOutcome::Complete { basis, .. } => {
            // The basis ran with explicit vanishing polynomials, so its
            // word exponents are already reduced.
            let inputs: Vec<VarId> = model.input_vars.iter().map(|&v| down(v)).collect();
            let f = word_function(&cring, down(model.z_var), &inputs, &basis)?;
            Ok(Case2Outcome::Canonical(f))
        }
    }
}
