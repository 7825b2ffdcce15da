//! Multivariate division: normal forms against divisor sets.
//!
//! The abstraction flow of the paper is, after the single S-polynomial, a
//! long chain of divisions `Spoly(f_w, f_g) →+ r` modulo the circuit
//! polynomials and the vanishing polynomials. Under RATO every gate
//! polynomial has the form `x + tail(x)` with a distinct leading
//! *variable* and a unit-coefficient tail over at most two smaller
//! variables, fixed by the gate's kind. Such a divisor is held as a
//! 12-byte [`TailRecord`] in a table indexed by the rank of `x`, and its
//! tail is built only when the reducer divides by it (Yu–Ciesielski's
//! backward rewriting drives the same step from the gate list). Explicit
//! divisors led by a bare variable, such as the word definitions, are
//! indexed by that variable; arbitrary divisors (e.g. explicit vanishing
//! polynomials in `Plain` mode) go through a linear scan.
//!
//! # The working store
//!
//! The working polynomial of one normal form is a monotone radix queue
//! of 16-byte nodes, each a packed key, a tag and a link. A node never
//! moves, so its index also names its coefficient's slot in a limb arena
//! at the field's width, ⌈k/64⌉ words.
//!
//! * **The key** packs the monomial's first two factors in pure-lex
//!   order, 32 bits each: the inverted rank (24 bits) above the exponent
//!   (8 bits), with an absent factor packing as 0. Comparing keys as
//!   integers compares those two factors exactly as [`Monomial::cmp`]
//!   does.
//! * **Exact terms** are those the key describes whole: at most two
//!   factors, exponents below 255, ranks below 2²⁴ − 1 (every term of
//!   the Mastrovito and Montgomery division chains). They keep no
//!   monomial: it is decoded from the key when the term is popped.
//! * **Spilled terms** are all others. Their monomial goes into a spill
//!   table that the tag points at. An exponent of 255 or more saturates
//!   its field and blanks the rest of the key (else `x^300·y` against
//!   `x^400·z` would be decided on `y`/`z`); a rank the field cannot hold
//!   does the same; a third factor is simply not in the key.
//!
//! The key is therefore always a faithful prefix of the order: two
//! different keys order like their monomials, so a smaller monomial never
//! packs a larger key. Division only ever pushes terms smaller than the
//! monomial it just cancelled (a divisor's tail times the quotient), so
//! no pushed key exceeds the last key popped: the queue is monotone, and
//! a radix heap orders it (Ahuja, Mehlhorn, Orlin and Tarjan, 1990). Of
//! its 65 buckets, bucket 0 holds the keys equal to the last key popped,
//! `last`, and bucket `i` those whose highest bit differing from `last`
//! is bit `i − 1`; every key of bucket `i` exceeds every key of bucket
//! `i + 1`. A pop takes from bucket 0. When bucket 0 is empty, the lowest
//! non-empty bucket's greatest key, recorded as its nodes entered it,
//! becomes `last`, and that bucket's nodes move down into lower buckets
//! in one pass. Each bucket is a list threaded through the node arena,
//! with one free list, so the arena never holds more nodes than the
//! store's peak term count.
//!
//! Bucket 0 then holds exactly the queued copies of one key, and two
//! exact terms with equal keys have equal monomials: a pop drains it
//! whole. A spilled monomial never packs exactly, so it equals no exact
//! one; when a spilled term's key reaches bucket 0, its monomial moves
//! from the spill table into the ties, a binary max-heap by full
//! monomial, and a pop takes the ties' greatest monomial whenever it
//! exceeds that of bucket 0's exact terms. So the store pops the same
//! sequence of distinct monomials, with the same summed coefficients and
//! the same live sizes, as a max-heap of whole `(Monomial, Gf)` terms:
//! steps, peak terms, cancellations and every sampled size are those of
//! that simpler store, which the tests keep as the oracle.

use crate::monomial::Monomial;
use crate::poly::Poly;
use crate::ring::{PolyError, Ring, VarId};
use gfab_field::budget::Budget;
use gfab_field::{kernel, Gf, GfContext, KernelCounts};
use gfab_telemetry::HistData;
use std::collections::BinaryHeap;

/// How many division-loop iterations run between two budget polls. Strided
/// so the atomic loads and `Instant::now()` calls are amortised away from
/// the innermost loop.
const BUDGET_STRIDE: u64 = 1024;

/// How many division-loop iterations run between two working-store size
/// samples (feeding the `reduction-poly-size` histogram). A divisor of
/// [`BUDGET_STRIDE`] so the two strides share one modulus check; sampling
/// is deterministic because it depends only on the iteration count.
const SIZE_SAMPLE_STRIDE: u64 = 64;

/// Statistics of one normal-form computation, used by the experiment
/// harness to report reduction effort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Number of leading-term cancellation steps performed.
    pub steps: u64,
    /// Maximum number of terms simultaneously held in the working store
    /// (an upper bound on the live-term count: equal monomials awaiting
    /// merge are counted individually).
    pub peak_terms: usize,
    /// Number of coefficient cancellations: merges of equal monomials whose
    /// coefficients summed to zero, so the term vanished without a division
    /// step.
    pub cancellations: u64,
    /// Number of cooperative-budget polls issued (0 for unbudgeted runs).
    /// Derived from the iteration count at no per-iteration cost; surfaced
    /// as the `budget-polls` telemetry counter.
    pub polls: u64,
    /// Distribution of the live working-store size, sampled every
    /// `SIZE_SAMPLE_STRIDE` iterations (the `reduction-poly-size`
    /// telemetry histogram). Deterministic: sample points depend only on
    /// the iteration count, never on wall time or thread interleaving.
    pub size_hist: HistData,
    /// Coefficient-kernel effort of this reduction: field multiplies,
    /// squarings, word-level reduction folds, and inline-vs-heap residency
    /// of kernel results. Taken as a thread-local snapshot delta around
    /// the division loop (each normal form runs on a single thread), so
    /// the values are deterministic across machines and thread counts.
    pub kernel: KernelCounts,
    /// Terms the working store could not describe by their packed key
    /// (three or more factors, an exponent of 255 or more), which it kept
    /// whole in its spill table (the `spilled-terms` telemetry counter).
    /// Zero on the multiplier division chains.
    pub spilled_terms: u64,
}

/// Bits of a key factor field holding the exponent.
const EXP_BITS: u32 = 8;

/// The exponent field's largest value, standing for "255 or more": the
/// key cannot describe the exponent.
const EXP_SAT: u64 = (1 << EXP_BITS) - 1;

/// Ranks `0 .. PACKED_RANKS` pack, as the inverted rank
/// `PACKED_RANKS - rank` (1 and up, so a present factor never packs as
/// an absent one) in the 24 bits above the exponent.
const PACKED_RANKS: u64 = (1 << (32 - EXP_BITS)) - 1;

/// Packs one factor into its 32-bit key field. The flag says whether the
/// field describes the factor exactly; when it does not, the fields after
/// it must stay blank.
fn pack_factor(v: VarId, e: u64) -> (u64, bool) {
    let rank = u64::from(v.0);
    if rank >= PACKED_RANKS {
        // Below every packable rank, above an absent factor.
        return (EXP_SAT, false);
    }
    let inv = (PACKED_RANKS - rank) << EXP_BITS;
    if e >= EXP_SAT {
        (inv | EXP_SAT, false)
    } else {
        (inv | e, true)
    }
}

/// The packed key of `m`, and whether it describes `m` exactly (so that
/// [`unpack`] recovers it).
fn pack(m: &Monomial) -> (u64, bool) {
    let factors = m.factors();
    let mut key = 0;
    for (&(v, e), shift) in factors.iter().zip([32, 0]) {
        let (field, exact) = pack_factor(v, e);
        key |= field << shift;
        if !exact {
            return (key, false);
        }
    }
    (key, factors.len() <= 2)
}

/// The monomial an exact key describes.
fn unpack(key: u64) -> Monomial {
    let factor = |field: u64| {
        let rank = PACKED_RANKS - (field >> EXP_BITS);
        (VarId(rank as u32), field & EXP_SAT)
    };
    let (hi, lo) = (key >> 32, key & 0xFFFF_FFFF);
    match (hi, lo) {
        (0, _) => Monomial::one(),
        (hi, 0) => Monomial::from_canonical_inline(&[factor(hi)]),
        (hi, lo) => Monomial::from_canonical_inline(&[factor(hi), factor(lo)]),
    }
}

/// Tag bit of a node whose monomial lives in the spill table.
const SPILLED: u32 = 1 << 31;

/// Buckets of the radix queue: bucket 0 for the keys equal to the last
/// key popped, bucket `i` for those whose highest bit differing from it
/// is bit `i − 1`.
const BUCKETS: usize = 65;

/// The end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// One node of the working store: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The packed monomial key.
    key: u64,
    /// `SPILLED | i` for entry `i` of the spill table; 0 for an exact
    /// term.
    tag: u32,
    /// The next node of the same bucket, or of the free list.
    next: u32,
}

/// The bucket of `key` while `last` is the last key popped.
fn bucket(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

/// The working polynomial of one normal form (see the module docs).
struct WorkStore {
    /// Node arena. Nodes never move; a node's index is its coefficient
    /// slot.
    nodes: Vec<Node>,
    /// First node of the free list.
    free: u32,
    /// First node of each bucket's list; bucket 0 lists exact terms only.
    heads: [u32; BUCKETS],
    /// Greatest key of each non-empty bucket from 1 on.
    maxima: [u64; BUCKETS],
    /// Bit `i − 1` is set while bucket `i ≥ 1` is non-empty.
    occupied: u64,
    /// Spilled terms whose key equals `last`, by full monomial.
    ties: BinaryHeap<(Monomial, u32)>,
    /// The last key popped (`u64::MAX` before the first pop): no queued
    /// key exceeds it.
    last: u64,
    /// Queued nodes.
    len: usize,
    /// Limbs per coefficient slot: ⌈k/64⌉.
    width: usize,
    /// Coefficient arena; slot `i` is `coeffs[i * width ..][.. width]`.
    coeffs: Vec<u64>,
    /// Monomials of the spilled nodes in buckets 1 and up.
    spill: Vec<Monomial>,
    /// Spill entries free for reuse.
    free_spill: Vec<u32>,
    /// Coefficient sum of the term being merged, at slot width.
    acc: Vec<u64>,
    /// Terms that went to the spill table.
    spilled: u64,
}

impl WorkStore {
    fn new(ctx: &GfContext, terms: usize) -> Self {
        let width = ctx.k().div_ceil(64);
        WorkStore {
            nodes: Vec::with_capacity(terms),
            free: NIL,
            heads: [NIL; BUCKETS],
            maxima: [0; BUCKETS],
            occupied: 0,
            ties: BinaryHeap::new(),
            last: u64::MAX,
            len: 0,
            width,
            coeffs: Vec::with_capacity(terms * width),
            spill: Vec::new(),
            free_spill: Vec::new(),
            acc: vec![0; width],
            spilled: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Adds the term `c·m`.
    fn push(&mut self, m: Monomial, c: &Gf) {
        let (key, exact) = pack(&m);
        debug_assert!(
            key <= self.last,
            "pushed key {key:#x} exceeds the last key popped, {:#x}",
            self.last
        );
        let i = self.alloc();
        self.store_coeff(i, c);
        let tag = if exact {
            0
        } else {
            self.spilled += 1;
            let s = match self.free_spill.pop() {
                Some(s) => {
                    self.spill[s as usize] = m;
                    s
                }
                None => {
                    self.spill.push(m);
                    Self::index_of(self.spill.len() - 1)
                }
            };
            s | SPILLED
        };
        self.nodes[i as usize] = Node {
            key,
            tag,
            next: NIL,
        };
        self.file(i);
        self.len += 1;
    }

    /// A node or spill index as a `u32`, which leaves the top bit for
    /// [`SPILLED`] and `u32::MAX` for [`NIL`].
    fn index_of(index: usize) -> u32 {
        assert!(index < SPILLED as usize, "working store exceeds 2^31 terms");
        index as u32
    }

    /// A free node, from the free list or else new at the end of the
    /// arena with its coefficient slot.
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            return i;
        }
        let i = Self::index_of(self.nodes.len());
        self.nodes.push(Node {
            key: 0,
            tag: 0,
            next: NIL,
        });
        self.coeffs.resize(self.coeffs.len() + self.width, 0);
        i
    }

    /// Copies `c`'s limbs into the coefficient slot of node `i`.
    fn store_coeff(&mut self, i: u32, c: &Gf) {
        let limbs = c.as_poly().limbs();
        let w = self.width;
        debug_assert!(limbs.len() <= w, "coefficient wider than the field");
        let dst = &mut self.coeffs[i as usize * w..][..w];
        dst[..limbs.len()].copy_from_slice(limbs);
        dst[limbs.len()..].fill(0);
    }

    /// Files node `i` in the bucket of its key, recording the bucket's
    /// greatest key; a spilled node of bucket 0 joins the ties instead,
    /// and its spill entry is freed.
    fn file(&mut self, i: u32) {
        let Node { key, tag, .. } = self.nodes[i as usize];
        let b = bucket(key, self.last);
        if b == 0 && tag & SPILLED != 0 {
            let s = tag & !SPILLED;
            self.free_spill.push(s);
            let m = std::mem::take(&mut self.spill[s as usize]);
            self.ties.push((m, i));
            return;
        }
        if b > 0 {
            let bit = 1 << (b - 1);
            if self.occupied & bit == 0 {
                self.occupied |= bit;
                self.maxima[b] = key;
            } else {
                self.maxima[b] = self.maxima[b].max(key);
            }
        }
        self.nodes[i as usize].next = self.heads[b];
        self.heads[b] = i;
    }

    /// Refills the empty bucket 0 and ties from the lowest non-empty
    /// bucket: its greatest key becomes `last`, and its nodes move into
    /// buckets below it.
    fn refill(&mut self) {
        debug_assert!(self.occupied != 0, "refill of an empty store");
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= !(1 << (b - 1));
        self.last = self.maxima[b];
        let mut i = std::mem::replace(&mut self.heads[b], NIL);
        while i != NIL {
            let next = self.nodes[i as usize].next;
            self.file(i);
            i = next;
        }
    }

    /// XORs node `i`'s coefficient into the accumulator and frees the
    /// node.
    fn absorb(&mut self, i: u32) {
        let w = self.width;
        let slot = &self.coeffs[i as usize * w..][..w];
        for (a, x) in self.acc.iter_mut().zip(slot) {
            *a ^= x;
        }
        self.nodes[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
    }

    /// Takes every queued term of the greatest monomial out of the
    /// non-empty store: the monomial and the summed coefficient.
    fn take_greatest(&mut self, ctx: &GfContext) -> (Monomial, Gf) {
        if self.heads[0] == NIL && self.ties.is_empty() {
            self.refill();
        }
        self.acc.fill(0);
        let tie_first = self
            .ties
            .peek()
            .is_some_and(|(m, _)| self.heads[0] == NIL || *m > unpack(self.last));
        let m = if tie_first {
            let (m, i) = self.ties.pop().expect("peeked");
            self.absorb(i);
            while self.ties.peek().is_some_and(|(t, _)| *t == m) {
                let (_, i) = self.ties.pop().expect("peeked");
                self.absorb(i);
            }
            m
        } else {
            let mut i = std::mem::replace(&mut self.heads[0], NIL);
            while i != NIL {
                let next = self.nodes[i as usize].next;
                self.absorb(i);
                i = next;
            }
            unpack(self.last)
        };
        (m, ctx.from_reduced_limbs(&self.acc))
    }
}

/// Which unit-coefficient terms the tail of a [`TailRecord`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailShape {
    /// The product `a·b`.
    pub ab: bool,
    /// The input `a`.
    pub a: bool,
    /// The input `b`.
    pub b: bool,
    /// The constant `1`.
    pub one: bool,
}

/// A divisor `x + tail` held as a record instead of a polynomial: its
/// leading term is the bare variable `x` with coefficient 1, and its tail
/// is a sum of unit-coefficient terms among `a·b`, `a`, `b` and `1`, over
/// at most two variables that rank below `x`. Every gate polynomial of a
/// circuit under RATO has this form (Section 4 of the paper). A record
/// does not name `x`: a [`Divisors`] table holds one record per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailRecord {
    /// The greater input (the smaller rank).
    a: VarId,
    /// The other input; equal to `a` for a tail over one variable.
    b: VarId,
    shape: TailShape,
}

impl TailRecord {
    /// The record of the tail `shape` over the inputs `a` and `b` (the
    /// same variable twice for a tail over one input). Terms that coincide
    /// merge as [`Poly::from_terms`] merges them, so a tail fed twice by
    /// one variable holds exactly the terms of its polynomial in `ring`:
    /// in Quotient mode `a·a = a`, and `a + a` vanishes.
    #[must_use]
    pub fn new(ring: &Ring, a: VarId, b: VarId, shape: TailShape) -> Self {
        if a < b {
            return TailRecord { a, b, shape };
        }
        if b < a {
            let shape = TailShape {
                a: shape.b,
                b: shape.a,
                ..shape
            };
            return TailRecord { a: b, b: a, shape };
        }
        let square_is_a = ring.combine_exponents(a, 1, 1) == Ok(1);
        let copies = u8::from(shape.a) + u8::from(shape.b) + u8::from(shape.ab && square_is_a);
        let shape = TailShape {
            ab: shape.ab && !square_is_a,
            a: copies % 2 == 1,
            b: false,
            one: shape.one,
        };
        TailRecord { a, b, shape }
    }

    /// The tail's monomials in descending order, as the divisor's
    /// polynomial lists them: `a·b > a > b > 1`, since `a` ranks above
    /// `b`. A product of `a` with itself survives merging only where
    /// `a·a = a²`.
    fn tail(self) -> impl Iterator<Item = Monomial> {
        let TailRecord { a, b, shape } = self;
        let ab = (shape.ab).then(|| {
            if a == b {
                Monomial::var_pow(a, 2)
            } else {
                Monomial::from_canonical_inline(&[(a, 1), (b, 1)])
            }
        });
        let a = shape.a.then(|| Monomial::var(a));
        let b = shape.b.then(|| Monomial::var(b));
        let one = shape.one.then(Monomial::one);
        [ab, a, b, one].into_iter().flatten()
    }

    /// The divisor `x + tail` as an explicit polynomial.
    #[must_use]
    pub fn poly(self, ring: &Ring, x: VarId) -> Poly {
        let one = ring.ctx().one();
        let terms = std::iter::once(Monomial::var(x)).chain(self.tail());
        Poly::from_terms(terms.map(|m| (m, one.clone())).collect())
    }
}

/// The divisors of a [`Reducer`]: a table of [`TailRecord`]s led by
/// consecutive variables, and explicit polynomials. Any iterator of
/// polynomials converts into a set of explicit divisors alone, so
/// `Reducer::new(&ring, polys.iter())` divides by `polys`.
#[derive(Debug, Clone)]
pub struct Divisors<'a> {
    records: &'a [TailRecord],
    /// The leading variable of `records[0]`.
    first: VarId,
    polys: Vec<&'a Poly>,
}

impl<'a> Divisors<'a> {
    /// The divisors `x_i + tail(records[i])` with `x_i = first + i`, plus
    /// `polys`. Each record's inputs must rank below its variable, which
    /// RATO guarantees for gate records.
    pub fn new(
        records: &'a [TailRecord],
        first: VarId,
        polys: impl IntoIterator<Item = &'a Poly>,
    ) -> Self {
        Divisors {
            records,
            first,
            polys: polys.into_iter().collect(),
        }
    }
}

impl<'a, I: IntoIterator<Item = &'a Poly>> From<I> for Divisors<'a> {
    fn from(polys: I) -> Self {
        Divisors::new(&[], VarId(0), polys)
    }
}

/// One prepared explicit divisor: the polynomial plus the slot of its
/// precomputed inverse leading coefficient in [`Reducer::inverses`]
/// (`None` for monic divisors, the common case — the word definitions
/// have unit leading coefficients, so the table stays tiny and an entry
/// stays at 16 bytes instead of embedding a field element).
#[derive(Debug, Clone, Copy)]
struct DivEntry<'a> {
    poly: &'a Poly,
    inv_lc: Option<u32>,
}

/// The divisor [`Reducer::find_divisor`] picked for a monomial.
enum Found<'r, 'a> {
    /// The record of the divisor led by the variable.
    Record(VarId, TailRecord),
    /// An explicit divisor.
    Poly(&'r DivEntry<'a>),
}

/// [`Reducer::by_lead_var`] slot of a variable that leads no divisor.
const NO_DIVISOR: u32 = u32::MAX;

/// A set of divisors prepared for repeated normal-form computations.
///
/// Tail records are looked up by rank in their table. Explicit divisors
/// whose leading monomial is a single variable with exponent 1 (the word
/// definitions) are indexed by a dense table over the ranks they lead;
/// everything else is scanned linearly. Non-monic divisors have their
/// leading coefficients inverted once at construction (one batched
/// Montgomery-trick inversion for all of them), so the division hot loop
/// never runs an extended GCD. Construction walks the explicit divisors
/// only, never the records.
#[derive(Debug, Clone)]
pub struct Reducer<'a> {
    ring: &'a Ring,
    /// `records[i]` is the tail of the divisor led by rank
    /// `first_record + i`.
    records: &'a [TailRecord],
    first_record: usize,
    /// All prepared explicit divisors; the index tables below point in
    /// here.
    entries: Vec<DivEntry<'a>>,
    /// Inverse leading coefficients of the non-monic divisors.
    inverses: Vec<Gf>,
    /// Index into `entries` of the divisor with leading monomial `x` (a
    /// bare variable), by the rank of `x` less `lead_base`, or
    /// [`NO_DIVISOR`]. Dense over the ranks the explicit divisors lead:
    /// the lookup sits on the innermost division loop.
    by_lead_var: Vec<u32>,
    lead_base: usize,
    /// All other explicit divisors, in divisor order.
    general: Vec<usize>,
}

impl<'a> Reducer<'a> {
    /// Prepares a reducer over `divisors`.
    ///
    /// Zero divisors are ignored. If several divisors share the same bare
    /// leading variable, a record wins the index, then the first explicit
    /// divisor, and the rest go to the general list (division remains
    /// correct, just slower).
    pub fn new(ring: &'a Ring, divisors: impl Into<Divisors<'a>>) -> Self {
        let Divisors {
            records,
            first,
            polys,
        } = divisors.into();
        let first_record = first.index();
        let mut general = Vec::new();
        let mut entries: Vec<DivEntry<'a>> = Vec::with_capacity(polys.len());
        // Leading coefficients of the non-monic divisors, in slot order.
        let mut lcs: Vec<Gf> = Vec::new();
        // (rank, entry) of the divisors led by a bare variable.
        let mut bare: Vec<(usize, u32)> = Vec::new();
        for d in polys {
            let Some((lm, lc)) = d.leading_term() else {
                continue;
            };
            let idx = entries.len();
            let inv_lc = (!lc.is_one()).then(|| {
                lcs.push(lc.clone());
                (lcs.len() - 1) as u32
            });
            entries.push(DivEntry { poly: d, inv_lc });
            match lm.factors() {
                &[(v, 1)] if v.index().wrapping_sub(first_record) >= records.len() => {
                    bare.push((v.index(), idx as u32));
                }
                _ => general.push(idx),
            }
        }
        let lead_base = bare.iter().map(|&(v, _)| v).min().unwrap_or(0);
        let span = bare.iter().map(|&(v, _)| v + 1 - lead_base).max();
        let mut by_lead_var = vec![NO_DIVISOR; span.unwrap_or(0)];
        for (v, idx) in bare {
            let slot = &mut by_lead_var[v - lead_base];
            if *slot == NO_DIVISOR {
                *slot = idx;
            } else {
                general.push(idx as usize);
            }
        }
        general.sort_unstable();
        // Invert every non-unit leading coefficient in one batch
        // (Montgomery's trick: a single extended GCD for the whole set).
        let inverses = ring
            .ctx()
            .batch_inv(&lcs)
            .expect("leading coefficients are non-zero");
        Reducer {
            ring,
            records,
            first_record,
            entries,
            inverses,
            by_lead_var,
            lead_base,
            general,
        }
    }

    /// The ring this reducer divides in.
    pub fn ring(&self) -> &Ring {
        self.ring
    }

    /// Finds a divisor whose leading monomial divides `m`.
    fn find_divisor(&self, m: &Monomial) -> Option<Found<'_, 'a>> {
        for &(v, _) in m.factors() {
            if let Some(&r) = self.records.get(v.index().wrapping_sub(self.first_record)) {
                return Some(Found::Record(v, r));
            }
            let slot = self.by_lead_var.get(v.index().wrapping_sub(self.lead_base));
            if let Some(&i) = slot.filter(|&&i| i != NO_DIVISOR) {
                return Some(Found::Poly(&self.entries[i as usize]));
            }
        }
        self.general
            .iter()
            .map(|&i| &self.entries[i])
            .find(|e| e.poly.leading_monomial().is_some_and(|lm| lm.divides(m)))
            .map(Found::Poly)
    }

    /// Computes the normal form (remainder) of `f` under multivariate
    /// division by the divisor set: repeatedly cancels the greatest term
    /// divisible by some leading monomial until no term of the remainder is
    /// divisible by any divisor's leading term.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form(&self, f: &Poly) -> Result<Poly, PolyError> {
        self.normal_form_with_stats(f).map(|(p, _)| p)
    }

    /// [`Reducer::normal_form`] plus effort statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form_with_stats(&self, f: &Poly) -> Result<(Poly, ReductionStats), PolyError> {
        self.normal_form_inner(f, None)
    }

    /// [`Reducer::normal_form_with_stats`] polled against a cooperative
    /// [`Budget`] every `BUDGET_STRIDE` division-loop iterations. Each
    /// poll charges the stride as work units, so work-cap exhaustion
    /// depends only on the total division effort — deterministic across
    /// thread counts.
    ///
    /// # Errors
    ///
    /// [`PolyError::BudgetExceeded`] when the budget runs out;
    /// otherwise propagates [`PolyError::ExponentOverflow`].
    pub fn normal_form_budgeted(
        &self,
        f: &Poly,
        budget: &Budget,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        self.normal_form_inner(f, Some(budget))
    }

    fn normal_form_inner(
        &self,
        f: &Poly,
        budget: Option<&Budget>,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        let mut work = WorkStore::new(self.ring.ctx(), f.num_terms() * 2);
        self.divide(f, budget, &mut work)
    }

    /// The division loop of a normal form, over the empty working store
    /// `work`.
    fn divide(
        &self,
        f: &Poly,
        budget: Option<&Budget>,
        work: &mut WorkStore,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        let ctx = self.ring.ctx();
        let mut iterations: u64 = 0;
        let mut stats = ReductionStats::default();
        let kernel_before = kernel::snapshot();
        // Lazy-merge working store: terms are pushed without merging, and
        // equal monomials merge when they surface together in bucket 0.
        // An exact term costs O(1) to push and pop plus its moves between
        // buckets (at most 64 over its life), a spilled one O(log n) more
        // in the ties, and the store's nodes are reused across all
        // cancellations of one normal form.
        for (m, c) in f.terms() {
            work.push(m.clone(), c);
        }
        // Remainder terms accumulate in strictly descending order because we
        // always move the current maximum.
        let mut remainder: Vec<(Monomial, Gf)> = Vec::new();
        while work.len() > 0 {
            iterations += 1;
            if iterations.is_multiple_of(SIZE_SAMPLE_STRIDE) {
                stats.size_hist.record(work.len() as u64);
                if let Some(b) = budget {
                    if iterations.is_multiple_of(BUDGET_STRIDE) {
                        b.tick(BUDGET_STRIDE)?;
                    }
                }
            }
            stats.peak_terms = stats.peak_terms.max(work.len());
            // Merge every queued term with the same monomial.
            let (m, c) = work.take_greatest(ctx);
            if c.is_zero() {
                stats.cancellations += 1;
                continue;
            }
            match self.find_divisor(&m) {
                None => remainder.push((m, c)),
                Some(Found::Record(x, r)) => {
                    stats.steps += 1;
                    // m = q·x; cancel c·m with c·q·(x + tail): the same
                    // terms, in the same order, as the explicit path below
                    // pushes for the record's polynomial.
                    debug_assert!(
                        r.tail().all(|t| t.leading_var().is_none_or(|v| x < v)),
                        "a tail record's inputs rank below its variable"
                    );
                    let q = Monomial::var(x).quotient_of(&m);
                    for t in r.tail() {
                        let nm = if q.is_one() { t } else { t.mul(&q, self.ring)? };
                        work.push(nm, &c);
                    }
                }
                Some(Found::Poly(entry)) => {
                    stats.steps += 1;
                    let d = entry.poly;
                    // m = q * lm(d); cancel c*m with (c / lc(d)) * q * d.
                    // The inverse leading coefficient was precomputed (in
                    // one batch) when the reducer was built.
                    let lm = d.leading_monomial().expect("divisor is non-zero");
                    let q = lm.quotient_of(&m);
                    let scale = match entry.inv_lc {
                        None => c,
                        Some(i) => ctx.mul(&c, &self.inverses[i as usize]),
                    };
                    // Subtract scale * q * tail(d) (char 2: subtract = add).
                    // Skip the field multiplication whenever either factor
                    // is 1, and the monomial merge-multiply when q = 1.
                    let trivial_q = q.is_one();
                    for (tm, tc) in d.terms().iter().skip(1) {
                        let nm = if trivial_q {
                            tm.clone()
                        } else {
                            tm.mul(&q, self.ring)?
                        };
                        let product;
                        let nc = if tc.is_one() {
                            &scale
                        } else if scale.is_one() {
                            tc
                        } else {
                            product = ctx.mul(tc, &scale);
                            &product
                        };
                        if !nc.is_zero() {
                            work.push(nm, nc);
                        }
                    }
                }
            }
        }
        stats.polls = if budget.is_some() {
            iterations / BUDGET_STRIDE
        } else {
            0
        };
        stats.spilled_terms = work.spilled;
        stats.kernel = kernel::snapshot().delta_since(&kernel_before);
        // Nodes are freed before a step pushes, so the arena never holds
        // more nodes than the live peak.
        debug_assert_eq!(
            work.nodes.len(),
            stats.peak_terms,
            "node arena above the peak"
        );
        Ok((Poly::from_terms(remainder), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ExponentMode, RingBuilder, VarKind};
    use crate::VarId;
    use gfab_field::{Gf2Poly, GfContext};

    /// Builds F_4[x > y > Z] for tests.
    fn setup(mode: ExponentMode) -> (Ring, VarId, VarId, VarId) {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        let x = rb.add_var("x", VarKind::Bit);
        let y = rb.add_var("y", VarKind::Bit);
        let z = rb.add_var("Z", VarKind::Word);
        (rb.build(), x, y, z)
    }

    fn p(terms: Vec<(Monomial, Gf)>) -> Poly {
        Poly::from_terms(terms)
    }

    #[test]
    fn triangular_substitution_chain() {
        // x + y, y + Z  =>  NF(x) = Z.
        let (ring, x, y, z) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        let d1 = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let d2 = p(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let divisors = [d1, d2];
        let red = Reducer::new(&ring, divisors.iter());
        let f = ring.var_poly(x);
        let nf = red.normal_form(&f).unwrap();
        assert_eq!(nf, ring.var_poly(z));
    }

    #[test]
    fn remainder_not_divisible_by_any_leading_term() {
        let (ring, x, y, _) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        // divisor: x + y  => NF(x*y + y) = y*y + y = y + y = 0 (quotient mode)
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let nf = red.normal_form(&f).unwrap();
        assert!(nf.is_zero(), "got {}", nf.display(&ring));
    }

    #[test]
    fn plain_mode_same_example_leaves_square() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 1), (y, 1)]), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        // x*y -> y^2, so NF = y^2 + y.
        let nf = red.normal_form(&f).unwrap();
        let expected = p(vec![
            (Monomial::var_pow(y, 2), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        assert_eq!(nf, expected);
    }

    #[test]
    fn general_divisors_with_nontrivial_leading_monomials() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let one = ring.ctx().one();
        // divisor: x^2 + y (leading monomial x^2, not a bare variable)
        let d = p(vec![
            (Monomial::var_pow(x, 2), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        // f = x^3 => x * x^2 -> x*y; then x*y is not divisible by x^2.
        let f = p(vec![(Monomial::var_pow(x, 3), one.clone())]);
        let nf = red.normal_form(&f).unwrap();
        let expected = p(vec![(
            Monomial::from_factors(vec![(x, 1), (y, 1)]),
            one.clone(),
        )]);
        assert_eq!(nf, expected);
    }

    #[test]
    fn non_monic_divisors_are_scaled() {
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let alpha = ring.ctx().alpha();
        let one = ring.ctx().one();
        // divisor: α·x + y  => NF(x) = α⁻¹·y
        let d = p(vec![
            (Monomial::var(x), alpha.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let divisors = [d];
        let red = Reducer::new(&ring, divisors.iter());
        let nf = red.normal_form(&ring.var_poly(x)).unwrap();
        let ainv = ring.ctx().inv(&alpha).unwrap();
        assert_eq!(nf, ring.var_poly(y).scale(&ainv, &ring));
    }

    #[test]
    fn stats_count_steps() {
        let (ring, x, y, z) = setup(ExponentMode::Quotient);
        let one = ring.ctx().one();
        let d1 = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
        ]);
        let d2 = p(vec![
            (Monomial::var(y), one.clone()),
            (Monomial::var(z), one.clone()),
        ]);
        let divisors = [d1, d2];
        let red = Reducer::new(&ring, divisors.iter());
        let (_, stats) = red.normal_form_with_stats(&ring.var_poly(x)).unwrap();
        assert_eq!(stats.steps, 2); // x -> y -> Z
    }

    #[test]
    fn division_invariant_f_equals_sum_plus_remainder() {
        // Verify f ≡ NF(f) modulo the ideal by evaluating on all points of
        // the variety of the divisors (here: pick divisor x + y + 1 and
        // check on assignments satisfying it).
        let (ring, x, y, _) = setup(ExponentMode::Plain);
        let ctx = ring.ctx().clone();
        let one = ctx.one();
        let d = p(vec![
            (Monomial::var(x), one.clone()),
            (Monomial::var(y), one.clone()),
            (Monomial::one(), one.clone()),
        ]);
        let divisors = [d.clone()];
        let red = Reducer::new(&ring, divisors.iter());
        let f = p(vec![
            (Monomial::from_factors(vec![(x, 2), (y, 1)]), one.clone()),
            (Monomial::var(x), one.clone()),
        ]);
        let nf = red.normal_form(&f).unwrap();
        // On every point where d vanishes, f and nf must agree.
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                let vals = vec![a.clone(), b.clone(), ctx.zero()];
                if d.eval(&ring, &vals).is_zero() {
                    assert_eq!(f.eval(&ring, &vals), nf.eval(&ring, &vals));
                }
            }
        }
    }
    // ---- The packed-key working store against the whole-term heap ----

    use gfab_field::nist::irreducible_polynomial;
    use gfab_field::Rng;
    use std::borrow::Cow;

    /// Whether a packed key can describe `m`, stated from the monomial's
    /// shape alone: at most two factors, exponents below 255, ranks below
    /// 2^24 - 1.
    fn describable(m: &Monomial) -> bool {
        let fs = m.factors();
        fs.len() <= 2
            && fs
                .iter()
                .all(|&(v, e)| u64::from(v.0) < (1 << 24) - 1 && e < 255)
    }

    /// The division loop over a max-heap of whole `(Monomial, Gf)` terms,
    /// as it ran before the packed-key store: the oracle that store must
    /// match field for field. A tuple breaks monomial ties by coefficient,
    /// which only permutes the pops within one merge group.
    fn reference_normal_form(
        red: &Reducer,
        f: &Poly,
        budget: Option<&Budget>,
    ) -> Result<(Poly, ReductionStats), PolyError> {
        let ctx = red.ring.ctx();
        let mut iterations: u64 = 0;
        let mut stats = ReductionStats::default();
        let kernel_before = kernel::snapshot();
        let mut work: BinaryHeap<(Monomial, Gf)> = BinaryHeap::new();
        let push = |work: &mut BinaryHeap<_>, stats: &mut ReductionStats, m, c| {
            stats.spilled_terms += u64::from(!describable(&m));
            work.push((m, c));
        };
        for (m, c) in f.terms() {
            push(&mut work, &mut stats, m.clone(), c.clone());
        }
        let mut remainder = Vec::new();
        while let Some((m, mut c)) = work.pop() {
            iterations += 1;
            if iterations.is_multiple_of(SIZE_SAMPLE_STRIDE) {
                stats.size_hist.record(work.len() as u64 + 1);
                if let Some(b) = budget {
                    if iterations.is_multiple_of(BUDGET_STRIDE) {
                        b.tick(BUDGET_STRIDE)?;
                    }
                }
            }
            stats.peak_terms = stats.peak_terms.max(work.len() + 1);
            while work.peek().is_some_and(|top| top.0 == m) {
                c = c.add(&work.pop().expect("peeked").1);
            }
            if c.is_zero() {
                stats.cancellations += 1;
                continue;
            }
            // A record divides as its explicit polynomial.
            let (d, inv_lc) = match red.find_divisor(&m) {
                None => {
                    remainder.push((m, c));
                    continue;
                }
                Some(Found::Record(x, r)) => (Cow::Owned(r.poly(red.ring, x)), None),
                Some(Found::Poly(entry)) => (Cow::Borrowed(entry.poly), entry.inv_lc),
            };
            stats.steps += 1;
            let q = d.leading_monomial().expect("non-zero").quotient_of(&m);
            let scale = match inv_lc {
                None => c,
                Some(i) => ctx.mul(&c, &red.inverses[i as usize]),
            };
            for (tm, tc) in d.terms().iter().skip(1) {
                let nm = if q.is_one() {
                    tm.clone()
                } else {
                    tm.mul(&q, red.ring)?
                };
                let nc = if tc.is_one() {
                    scale.clone()
                } else if scale.is_one() {
                    tc.clone()
                } else {
                    ctx.mul(tc, &scale)
                };
                if !nc.is_zero() {
                    push(&mut work, &mut stats, nm, nc);
                }
            }
        }
        stats.polls = if budget.is_some() {
            iterations / BUDGET_STRIDE
        } else {
            0
        };
        stats.kernel = kernel::snapshot().delta_since(&kernel_before);
        Ok((Poly::from_terms(remainder), stats))
    }

    /// Variables at the bottom of a random ring that lead no divisor. They
    /// alone carry exponents on both sides of the key's saturation point
    /// and past `u32`: dividing such a power by a divisor led by its
    /// variable would take about that many steps.
    const FREE_VARS: usize = 3;

    const SMALL_EXPONENTS: [u64; 5] = [1, 1, 1, 2, 3];
    const EDGE_EXPONENTS: [u64; 10] = [1, 1, 2, 3, 254, 255, 256, 300, (1 << 32) + 3, 1 << 40];

    /// A random monomial over the variables `vars` of an `n`-variable ring
    /// with up to `max_factors` factors.
    fn random_monomial(
        rng: &mut Rng,
        vars: std::ops::Range<usize>,
        n: usize,
        max_factors: usize,
    ) -> Monomial {
        let mut factors: Vec<(VarId, u64)> = Vec::new();
        for _ in 0..rng.random_range(0..max_factors + 1) {
            let v = rng.random_range(vars.clone());
            let exps: &[u64] = if v + FREE_VARS >= n {
                &EDGE_EXPONENTS
            } else {
                &SMALL_EXPONENTS
            };
            if factors.iter().all(|&(w, _)| w.index() != v) {
                factors.push((VarId(v as u32), exps[rng.random_range(0..exps.len())]));
            }
        }
        Monomial::from_factors(factors)
    }

    fn random_coeff(rng: &mut Rng, ctx: &GfContext) -> Gf {
        if rng.random_bool(0.5) {
            ctx.one()
        } else {
            loop {
                let c = ctx.random(rng);
                if !c.is_zero() {
                    return c;
                }
            }
        }
    }

    fn random_poly(
        rng: &mut Rng,
        ring: &Ring,
        vars: std::ops::Range<usize>,
        terms: usize,
        max_factors: usize,
    ) -> Poly {
        let n = ring.num_vars();
        Poly::from_terms(
            (0..terms)
                .map(|_| {
                    let m = random_monomial(rng, vars.clone(), n, max_factors);
                    (m, random_coeff(rng, ring.ctx()))
                })
                .collect(),
        )
    }

    /// A random divisor set: gate-like `c·x + tail` polynomials over
    /// smaller variables (some non-monic), plus a few divisors whose
    /// leading monomial is a power or a product.
    fn random_divisors(rng: &mut Rng, ring: &Ring) -> Vec<Poly> {
        let n = ring.num_vars();
        let led = n - FREE_VARS;
        let ctx = ring.ctx();
        let mut out = Vec::new();
        for x in 0..led {
            if rng.random_bool(0.3) {
                continue;
            }
            let terms = rng.random_range(1..3);
            let tail = random_poly(rng, ring, x + 1..n, terms, 3);
            let lead = Poly::from_terms(vec![(
                Monomial::var(VarId(x as u32)),
                random_coeff(rng, ctx),
            )]);
            out.push(lead.add(&tail));
        }
        for _ in 0..rng.random_range(0..3) {
            let terms = rng.random_range(1..4);
            out.push(random_poly(rng, ring, 0..led, terms, 3));
        }
        out.retain(|d| !d.is_zero());
        out
    }

    /// A random table of tail records led by consecutive variables, each
    /// over inputs that rank below its variable (sometimes one input
    /// twice), with a random shape.
    fn random_records(rng: &mut Rng, ring: &Ring) -> (VarId, Vec<TailRecord>) {
        let n = ring.num_vars();
        let first = rng.random_range(0..n - FREE_VARS);
        let len = rng.random_range(0..n - FREE_VARS - first + 1);
        let records = (first..first + len)
            .map(|x| {
                let a = VarId(rng.random_range(x + 1..n) as u32);
                let b = if rng.random_bool(0.3) {
                    a
                } else {
                    VarId(rng.random_range(x + 1..n) as u32)
                };
                let mut bit = || rng.random_bool(0.5);
                let shape = TailShape {
                    ab: bit(),
                    a: bit(),
                    b: bit(),
                    one: bit(),
                };
                TailRecord::new(ring, a, b, shape)
            })
            .collect();
        (VarId(first as u32), records)
    }

    fn random_ring(rng: &mut Rng, mode: ExponentMode) -> Ring {
        // k = 8 and 9 put Quotient-mode word exponents on both sides of
        // 255; k = 40 lets them pass 2^32; k = 100 has two-limb slots.
        let k = [2, 8, 9, 40, 100][rng.random_range(0..5)];
        let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
        let mut rb = RingBuilder::new(ctx, mode);
        for i in 0..rng.random_range(FREE_VARS + 2..FREE_VARS + 7) {
            let kind = if rng.random_bool(0.5) {
                VarKind::Bit
            } else {
                VarKind::Word
            };
            rb.add_var(format!("v{i}"), kind);
        }
        rb.build()
    }

    /// Runs both stores on `f` unbudgeted and under equal fresh work caps
    /// (none left, and room for four polls), demanding the same outcome
    /// each time: remainder and every statistic, or the same error.
    /// Returns the store's outcomes under the two caps.
    fn assert_matches_reference(
        red: &Reducer,
        f: &Poly,
        what: &str,
    ) -> [Result<ReductionStats, PolyError>; 2] {
        let unbudgeted = red.normal_form_with_stats(f);
        assert_eq!(unbudgeted, reference_normal_form(red, f, None), "{what}");
        [0, 4 * BUDGET_STRIDE].map(|cap| {
            let got = red.normal_form_budgeted(f, &Budget::with_work_cap(cap));
            let want = reference_normal_form(red, f, Some(&Budget::with_work_cap(cap)));
            assert_eq!(got, want, "{what} (work cap {cap})");
            got.map(|(_, stats)| stats)
        })
    }

    #[test]
    fn working_store_matches_the_whole_term_heap() {
        let mut rng = Rng::seed_from_u64(0x5702E);
        // Each case also runs with a table of tail records over part of
        // its ring, drawn from a second stream.
        let mut record_rng = Rng::seed_from_u64(0x7A11);
        let (mut spilled, mut cut, mut record_steps) = (0, 0, 0);
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            for case in 0..150 {
                let ring = random_ring(&mut rng, mode);
                let divisors = random_divisors(&mut rng, &ring);
                let red = Reducer::new(&ring, divisors.iter());
                let terms = rng.random_range(1..7);
                let f = random_poly(&mut rng, &ring, 0..ring.num_vars(), terms, 4);
                let what = format!("{mode:?} case {case}: f = {}", f.display(&ring));
                let [no_room, room] = assert_matches_reference(&red, &f, &what);
                cut += u64::from(no_room.is_err());
                spilled += room.expect("four polls are room enough").spilled_terms;

                let (first, records) = random_records(&mut record_rng, &ring);
                let red = Reducer::new(&ring, Divisors::new(&records, first, &divisors));
                let what = format!("{what}, {} records from {first}", records.len());
                let [_, room] = assert_matches_reference(&red, &f, &what);
                let records_only = Reducer::new(&ring, Divisors::new(&records, first, []));
                if room.is_ok() {
                    record_steps += records_only.normal_form_with_stats(&f).unwrap().1.steps;
                }
            }
        }
        assert!(record_steps > 0, "no record divided a term");
        // The sample must reach the spill table and the budget's cut.
        assert!(spilled > 0, "no term spilled");
        assert!(cut > 0, "no run polled its budget");
    }

    #[test]
    fn a_record_holds_its_polynomial_merged_and_in_order() {
        use crate::ring::VarInfo;
        let shapes = (0..16u8).map(|bits| TailShape {
            ab: bits & 1 != 0,
            a: bits & 2 != 0,
            b: bits & 4 != 0,
            one: bits & 8 != 0,
        });
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            let ctx = GfContext::shared(irreducible_polynomial(3).unwrap()).unwrap();
            let mut rb = RingBuilder::new(ctx.clone(), mode);
            let [x, a, b] = [(); 3].map(|()| rb.add_unnamed(VarKind::Bit));
            let w = rb.add_var("W", VarKind::Word);
            let ring = rb.build();
            assert_eq!(
                ring.var_info(w),
                &VarInfo {
                    name: "W".into(),
                    kind: VarKind::Word
                }
            );
            for shape in shapes.clone() {
                for (i, j) in [(a, b), (b, a), (a, a), (b, w), (w, w)] {
                    // The polynomial as the terms of the tail shape, with
                    // the product taken by the ring and merged by
                    // `from_terms`.
                    let (mi, mj) = (Monomial::var(i), Monomial::var(j));
                    let terms = [
                        (true, Monomial::var(x)),
                        (shape.ab, mi.mul(&mj, &ring).unwrap()),
                        (shape.a, mi),
                        (shape.b, mj),
                        (shape.one, Monomial::one()),
                    ];
                    let want = Poly::from_terms(
                        terms
                            .into_iter()
                            .filter(|&(on, _)| on)
                            .map(|(_, m)| (m, ctx.one()))
                            .collect(),
                    );
                    let r = TailRecord::new(&ring, i, j, shape);
                    let what = format!("{mode:?} {shape:?} on {i}, {j}");
                    assert_eq!(r.poly(&ring, x), want, "{what}");
                    // The tail comes out as the polynomial lists it.
                    let tail: Vec<Monomial> = r.tail().collect();
                    let listed: Vec<Monomial> =
                        want.terms()[1..].iter().map(|(m, _)| m.clone()).collect();
                    assert_eq!(tail, listed, "{what}");
                }
            }
        }
        assert!(std::mem::size_of::<TailRecord>() <= 16);
    }

    #[test]
    fn exact_and_spilled_ties_order_by_the_full_monomial() {
        // x·y and x·y·w share a key; x·y·w is the greater monomial and
        // must surface, and merge, on its own.
        let ctx = GfContext::shared(irreducible_polynomial(8).unwrap()).unwrap();
        let mut rb = RingBuilder::new(ctx.clone(), ExponentMode::Plain);
        let [x, y, w] = ["x", "y", "w"].map(|n| rb.add_var(n, VarKind::Word));
        let ring = rb.build();
        let xy = Monomial::from_factors(vec![(x, 1), (y, 1)]);
        let xyw = Monomial::from_factors(vec![(x, 1), (y, 1), (w, 1)]);
        let x300y = Monomial::from_factors(vec![(x, 300), (y, 1)]);
        let x400w = Monomial::from_factors(vec![(x, 400), (w, 1)]);
        assert_eq!(pack(&xy).0, pack(&xyw).0);
        assert_eq!(pack(&x300y).0, pack(&x400w).0);
        let (a, b, c) = (ctx.alpha(), ctx.from_u64(5), ctx.from_u64(6));
        let mut store = WorkStore::new(&ctx, 2);
        for (m, coeff) in [
            (&xy, &a),
            (&xyw, &b),
            (&x300y, &c),
            (&xy, &b),
            (&x400w, &a),
            (&xyw, &c),
            (&xy, &c),
        ] {
            store.push(m.clone(), coeff);
        }
        assert_eq!(store.spilled, 4);
        let mut popped = Vec::new();
        while store.len() > 0 {
            popped.push(store.take_greatest(&ctx));
        }
        let sum = |cs: &[&Gf]| cs.iter().fold(ctx.zero(), |s, c| s.add(c));
        assert_eq!(
            popped,
            vec![
                (x400w, a.clone()),
                (x300y, c.clone()),
                (xyw, sum(&[&b, &c])),
                (xy, sum(&[&a, &b, &c])),
            ]
        );
        // The same terms through a reducer with nothing to divide by.
        let f = Poly::from_terms(popped.clone());
        let red = Reducer::new(&ring, std::iter::empty());
        let [_, stats] = assert_matches_reference(&red, &f, "ties");
        let stats = stats.unwrap();
        assert_eq!(stats.spilled_terms, 3);
    }

    #[test]
    fn different_keys_order_like_monomials() {
        // Ranks and exponents at every packing boundary, up to u32::MAX:
        // no ring that large is built, only the key functions are called.
        let edge = PACKED_RANKS as u32;
        let ranks = [
            0,
            1,
            2,
            edge - 2,
            edge - 1,
            edge,
            edge + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        let exps = [1, 2, 253, 254, 255, 256, 300, (1 << 32) + 1, u64::MAX];
        let mut rng = Rng::seed_from_u64(0xC0FFEE);
        let monomials: Vec<Monomial> = (0..400)
            .map(|_| {
                let mut factors: Vec<(VarId, u64)> = Vec::new();
                for _ in 0..rng.random_range(0..4) {
                    let v = VarId(ranks[rng.random_range(0..ranks.len())]);
                    if factors.iter().all(|&(w, _)| w != v) {
                        factors.push((v, exps[rng.random_range(0..exps.len())]));
                    }
                }
                Monomial::from_factors(factors)
            })
            .collect();
        for a in &monomials {
            let (ka, exact_a) = pack(a);
            assert_eq!(exact_a, describable(a), "{a:?}");
            if exact_a {
                assert_eq!(&unpack(ka), a);
            }
            for b in &monomials {
                let (kb, exact_b) = pack(b);
                if ka != kb {
                    assert_eq!(ka.cmp(&kb), a.cmp(b), "{a:?} vs {b:?}");
                } else if exact_a && exact_b {
                    assert_eq!(a, b);
                }
                if a == b {
                    assert_eq!(ka, kb);
                }
            }
        }
    }

    #[test]
    fn a_live_term_is_smaller_than_a_whole_term_heap_entry() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
        // Node and coefficient slot (the free list runs through the
        // nodes), against the 40-byte monomial plus 80-byte `Gf` of a
        // whole term.
        let whole = std::mem::size_of::<(Monomial, Gf)>();
        assert_eq!(whole, 120);
        for k in 2..=576usize {
            assert!(16 + 8 * k.div_ceil(64) < whole, "k = {k}");
        }
    }

    #[test]
    fn node_arena_ends_at_peak_terms() {
        // The arena never outgrows the live peak, in both modes, with
        // records, spilled terms and non-monic divisors. The multipliers'
        // division chains meet the same check through the assertion at
        // the end of `divide`: in a debug build, `tests/cross_method.rs`
        // runs Mastrovito and flattened Montgomery at k = 16 and 64
        // through it (this crate cannot build the circuits).
        let mut rng = Rng::seed_from_u64(0xA7E4A);
        let mut peaks = 0;
        for mode in [ExponentMode::Plain, ExponentMode::Quotient] {
            for _ in 0..100 {
                let ring = random_ring(&mut rng, mode);
                let divisors = random_divisors(&mut rng, &ring);
                let (first, records) = random_records(&mut rng, &ring);
                let red = Reducer::new(&ring, Divisors::new(&records, first, &divisors));
                let terms = rng.random_range(1..7);
                let f = random_poly(&mut rng, &ring, 0..ring.num_vars(), terms, 4);
                let mut work = WorkStore::new(ring.ctx(), 1);
                let Ok((_, stats)) = red.divide(&f, None, &mut work) else {
                    continue;
                };
                assert_eq!(work.nodes.len(), stats.peak_terms, "{}", f.display(&ring));
                assert_eq!(work.len(), 0);
                peaks += stats.peak_terms;
            }
        }
        assert!(peaks > 0);
    }
}
