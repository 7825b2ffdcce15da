//! Polynomial ring descriptions: ranked variables and exponent semantics.

use crate::monomial::Monomial;
use crate::poly::Poly;
use gfab_field::{Gf, GfContext};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::Arc;

/// Identifier of a ring variable.
///
/// The numeric value is the variable's **lex rank**: `VarId(0)` is the
/// greatest variable of the ring's pure lexicographic order, `VarId(1)` the
/// next, and so on. The abstraction term order of the paper is therefore
/// encoded entirely in how the verification layer numbers its variables
/// (reverse-topological circuit bits first, then `Z`, then the input words).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// The raw rank index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Whether a variable ranges over `{0, 1}` (a circuit net) or over the whole
/// field `F_{2^k}` (a word-level input/output).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum VarKind {
    /// A bit-level circuit variable, constrained by `x² = x`.
    Bit,
    /// A word-level variable, constrained by `X^q = X` with `q = 2^k`.
    Word,
}

/// Metadata for one ring variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarInfo {
    /// Human-readable name; empty for an unnamed variable (a circuit
    /// model names only its words, see [`RingBuilder::add_unnamed`]).
    pub name: String,
    /// Bit or word semantics.
    pub kind: VarKind,
}

/// The metadata of every unnamed bit variable.
static UNNAMED_BIT: VarInfo = VarInfo {
    name: String::new(),
    kind: VarKind::Bit,
};

/// The metadata of every unnamed word variable.
static UNNAMED_WORD: VarInfo = VarInfo {
    name: String::new(),
    kind: VarKind::Word,
};

/// How monomial multiplication treats exponents (see crate docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExponentMode {
    /// Textbook arithmetic; vanishing polynomials are explicit generators.
    Plain,
    /// Arithmetic in the quotient ring `F_q[X]/J_0`: `x² = x` for bits,
    /// `X^q = X` for words (when `q` fits in `u64`).
    Quotient,
}

/// Errors from polynomial-ring operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyError {
    /// An exponent overflowed `u64` during multiplication.
    ExponentOverflow,
    /// A word-variable vanishing polynomial `X^q − X` was requested but
    /// `q = 2^k` does not fit in `u64` (k > 63).
    FieldTooLargeForVanishing {
        /// The extension degree that was too large.
        k: usize,
    },
    /// A cooperative [`Budget`](gfab_field::budget::Budget) stopped the
    /// computation (deadline, work cap, or cancellation).
    BudgetExceeded(gfab_field::budget::BudgetExceeded),
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyError::ExponentOverflow => write!(f, "monomial exponent overflowed u64"),
            PolyError::FieldTooLargeForVanishing { k } => write!(
                f,
                "vanishing polynomial X^(2^{k}) - X requires k <= 63 (got k = {k})"
            ),
            PolyError::BudgetExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PolyError {}

impl From<gfab_field::budget::BudgetExceeded> for PolyError {
    fn from(e: gfab_field::budget::BudgetExceeded) -> Self {
        PolyError::BudgetExceeded(e)
    }
}

/// A multivariate polynomial ring `F_{2^k}[x_0, …, x_{n-1}]` with a fixed
/// pure-lex variable ranking and an exponent mode.
///
/// Construct via [`RingBuilder`], adding variables from greatest to
/// smallest.
#[derive(Debug, Clone)]
pub struct Ring {
    ctx: Arc<GfContext>,
    /// The kind of every variable, by rank.
    kinds: Vec<VarKind>,
    /// The named variables, ascending by rank.
    named: Vec<(VarId, VarInfo)>,
    by_name: HashMap<String, NameSlot>,
    mode: ExponentMode,
}

impl Ring {
    /// The coefficient field.
    pub fn ctx(&self) -> &Arc<GfContext> {
        &self.ctx
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.kinds.len()
    }

    /// The exponent mode this ring was built with.
    pub fn mode(&self) -> ExponentMode {
        self.mode
    }

    /// Metadata of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this ring.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        match self.named.binary_search_by_key(&v, |(w, _)| *w) {
            Ok(i) => &self.named[i].1,
            Err(_) => match self.var_kind(v) {
                VarKind::Bit => &UNNAMED_BIT,
                VarKind::Word => &UNNAMED_WORD,
            },
        }
    }

    /// Whether `v` ranges over bits or over the field.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this ring.
    pub fn var_kind(&self, v: VarId) -> VarKind {
        self.kinds[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).map(|slot| slot.var)
    }

    /// Iterates over `(VarId, &VarInfo)` from greatest to smallest.
    pub fn vars(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        (0..self.num_vars() as u32).map(|i| (VarId(i), self.var_info(VarId(i))))
    }

    /// The polynomial consisting of the single variable `v`.
    pub fn var_poly(&self, v: VarId) -> Poly {
        Poly::from_terms(vec![(Monomial::var(v), self.ctx.one())])
    }

    /// The constant polynomial `c`.
    pub fn constant(&self, c: Gf) -> Poly {
        if c.is_zero() {
            Poly::zero()
        } else {
            Poly::from_terms(vec![(Monomial::one(), c)])
        }
    }

    /// Reduces a word-variable exponent by `X^q = X` (valid on `F_q`), i.e.
    /// maps `e ≥ 1` to `((e − 1) mod (q − 1)) + 1`. Identity when `q` does
    /// not fit in `u64` or `e = 0`.
    pub fn reduce_word_exponent(&self, e: u64) -> u64 {
        match self.ctx.order_u64() {
            Some(q) if e >= q => ((e - 1) % (q - 1)) + 1,
            _ => e,
        }
    }

    /// Combines two exponents of variable `v` under this ring's mode.
    ///
    /// # Errors
    ///
    /// [`PolyError::ExponentOverflow`] if the sum exceeds `u64`.
    pub fn combine_exponents(&self, v: VarId, a: u64, b: u64) -> Result<u64, PolyError> {
        let sum = a.checked_add(b).ok_or(PolyError::ExponentOverflow)?;
        if self.mode == ExponentMode::Plain {
            return Ok(sum);
        }
        match self.var_kind(v) {
            VarKind::Bit => Ok(sum.min(1)),
            VarKind::Word => Ok(self.reduce_word_exponent(sum)),
        }
    }
}

/// The name map's entry for one variable name.
#[derive(Debug, Clone, Copy)]
struct NameSlot {
    /// The variable carrying this name.
    var: VarId,
    /// The last suffix `n` handed out or skipped for repeats of this
    /// name (`name@n`).
    repeats: u32,
}

/// Incremental construction of a [`Ring`], adding variables from greatest to
/// smallest in the lex order.
///
/// # Example
///
/// ```
/// use gfab_field::{GfContext, Gf2Poly};
/// use gfab_poly::{RingBuilder, VarKind, ExponentMode};
///
/// let ctx = GfContext::shared(Gf2Poly::from_exponents(&[4, 1, 0])).unwrap();
/// let mut rb = RingBuilder::new(ctx, ExponentMode::Plain);
/// let x = rb.add_var("x", VarKind::Bit);
/// let y = rb.add_var("y", VarKind::Bit);
/// let ring = rb.build();
/// assert!(x < y); // x was added first, so x is greater in lex
/// assert_eq!(ring.num_vars(), 2);
/// ```
#[derive(Debug)]
pub struct RingBuilder {
    ctx: Arc<GfContext>,
    kinds: Vec<VarKind>,
    named: Vec<(VarId, VarInfo)>,
    /// The one name map of the ring: uniqueness check while building,
    /// [`Ring::var_by_name`] afterwards.
    by_name: HashMap<String, NameSlot>,
    mode: ExponentMode,
}

impl RingBuilder {
    /// Starts a builder over the given coefficient field.
    pub fn new(ctx: Arc<GfContext>, mode: ExponentMode) -> Self {
        Self::with_capacity(ctx, mode, 0)
    }

    /// Starts a builder with room for `num_vars` variables, so building a
    /// ring of that size never regrows its tables.
    pub fn with_capacity(ctx: Arc<GfContext>, mode: ExponentMode, num_vars: usize) -> Self {
        RingBuilder {
            ctx,
            kinds: Vec::with_capacity(num_vars),
            named: Vec::new(),
            by_name: HashMap::new(),
            mode,
        }
    }

    /// Appends the next-smaller variable and returns its id.
    ///
    /// Variable names are unique within a ring. A name that is already
    /// taken is suffixed by how often it was asked for before: the
    /// variables asked to be `x`, `x`, `x` are named `x`, `x@1`, `x@2`
    /// (net names need not be unique, e.g. after netlist rebuilding
    /// passes). A suffixed name that is itself taken moves on to the next
    /// suffix.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind) -> VarId {
        let var = self.add_unnamed(kind);
        let name = match self.by_name.entry(name.into()) {
            Entry::Vacant(e) => {
                let name = e.key().clone();
                e.insert(NameSlot { var, repeats: 0 });
                name
            }
            Entry::Occupied(e) => {
                let base = e.key().clone();
                self.suffixed(&base, var)
            }
        };
        self.named.push((var, VarInfo { name, kind }));
        var
    }

    /// Appends the next-smaller variable without a name: it has no entry
    /// in the name map, [`Ring::var_info`] gives it an empty name, and
    /// polynomials print it as its rank (`v7`). A circuit model leaves its
    /// net and primary-input-bit variables unnamed; their names live in
    /// the netlist.
    pub fn add_unnamed(&mut self, kind: VarKind) -> VarId {
        let var = VarId(self.kinds.len() as u32);
        self.kinds.push(kind);
        var
    }

    /// Registers `var` under the first free `base@n`, counting `n` on from
    /// `base`'s repeat count.
    fn suffixed(&mut self, base: &str, var: VarId) -> String {
        loop {
            let slot = self.by_name.get_mut(base).expect("base name is taken");
            slot.repeats += 1;
            let n = slot.repeats;
            if let Entry::Vacant(e) = self.by_name.entry(format!("{base}@{n}")) {
                let name = e.key().clone();
                e.insert(NameSlot { var, repeats: 0 });
                return name;
            }
        }
    }

    /// Finalizes the ring.
    pub fn build(self) -> Ring {
        Ring {
            ctx: self.ctx,
            kinds: self.kinds,
            named: self.named,
            by_name: self.by_name,
            mode: self.mode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_field::Gf2Poly;

    fn ring(mode: ExponentMode) -> (Ring, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        let x = rb.add_var("x", VarKind::Bit);
        let z = rb.add_var("Z", VarKind::Word);
        (rb.build(), x, z)
    }

    #[test]
    fn variable_ranking_is_insertion_order() {
        let (r, x, z) = ring(ExponentMode::Plain);
        assert!(x < z);
        assert_eq!(r.var_info(x).name, "x");
        assert_eq!(r.var_by_name("Z"), Some(z));
        assert_eq!(r.var_by_name("nope"), None);
    }

    #[test]
    fn quotient_mode_caps_bit_exponents() {
        let (r, x, _) = ring(ExponentMode::Quotient);
        assert_eq!(r.combine_exponents(x, 1, 1).unwrap(), 1);
        assert_eq!(r.combine_exponents(x, 0, 1).unwrap(), 1);
    }

    #[test]
    fn quotient_mode_reduces_word_exponents_mod_q() {
        // F_4: q = 4, X^4 = X so exponents live in {1, 2, 3}.
        let (r, _, z) = ring(ExponentMode::Quotient);
        assert_eq!(r.combine_exponents(z, 2, 2).unwrap(), 1); // X^4 -> X
        assert_eq!(r.combine_exponents(z, 3, 3).unwrap(), 3); // X^6 -> X^3
        assert_eq!(r.combine_exponents(z, 1, 2).unwrap(), 3);
    }

    #[test]
    fn plain_mode_adds_exponents() {
        let (r, x, z) = ring(ExponentMode::Plain);
        assert_eq!(r.combine_exponents(x, 1, 1).unwrap(), 2);
        assert_eq!(r.combine_exponents(z, 2, 2).unwrap(), 4);
    }

    #[test]
    fn exponent_overflow_is_detected() {
        let (r, _, z) = ring(ExponentMode::Plain);
        assert_eq!(
            r.combine_exponents(z, u64::MAX, 1),
            Err(PolyError::ExponentOverflow)
        );
    }

    #[test]
    fn repeated_names_get_counted_suffixes() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, ExponentMode::Plain);
        let ids: Vec<VarId> = ["x", "y", "x", "x", "x@3", "x"]
            .iter()
            .map(|&n| rb.add_var(n, VarKind::Bit))
            .collect();
        let r = rb.build();
        let names: Vec<&str> = ids.iter().map(|&v| r.var_info(v).name.as_str()).collect();
        // The fourth `x` would be `x@3`, which is taken, so it becomes `x@4`.
        assert_eq!(names, ["x", "y", "x@1", "x@2", "x@3", "x@4"]);
        for (&v, name) in ids.iter().zip(names) {
            assert_eq!(r.var_by_name(name), Some(v));
        }
    }

    #[test]
    fn unnamed_variables_keep_their_kind_and_never_collide() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, ExponentMode::Quotient);
        let a = rb.add_unnamed(VarKind::Bit);
        let x = rb.add_var("x", VarKind::Bit);
        let b = rb.add_unnamed(VarKind::Bit);
        let z = rb.add_var("Z", VarKind::Word);
        let w = rb.add_unnamed(VarKind::Word);
        let r = rb.build();
        assert_eq!(r.num_vars(), 5);
        let names: Vec<&str> = r.vars().map(|(_, info)| info.name.as_str()).collect();
        assert_eq!(names, ["", "x", "", "Z", ""]);
        assert_eq!([a, x, b, z, w].map(|v| r.var_kind(v)), {
            use VarKind::{Bit, Word};
            [Bit, Bit, Bit, Word, Word]
        });
        assert_eq!(r.var_info(w).kind, VarKind::Word);
        assert_eq!((r.var_by_name("x"), r.var_by_name("")), (Some(x), None));
        // Quotient arithmetic reads the kind of an unnamed variable too.
        assert_eq!(r.combine_exponents(a, 1, 1).unwrap(), 1);
        assert_eq!(r.combine_exponents(w, 2, 2).unwrap(), 1);
        let p = Poly::from_terms(vec![(
            Monomial::from_factors(vec![(a, 1), (x, 1), (w, 2)]),
            r.ctx().one(),
        )]);
        assert_eq!(p.display(&r).to_string(), "v0*x*v4^2");
    }
}
