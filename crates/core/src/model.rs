//! Circuit → polynomial system translation under RATO.
//!
//! This module implements Section 4 of the paper: every gate becomes a
//! polynomial over `F_{2^k}` (with `F_2 ⊂ F_{2^k}`), the word/bit
//! correspondences of Eqn. (1) become the word-definition polynomials, and
//! the ring's variable ranking encodes the Refined Abstraction Term Order
//! of Definition 5.1:
//!
//! ```text
//! circuit nets (reverse topological) > primary input bits > Z > A > B > …
//! ```

use crate::error::CoreError;
use crate::fullgb::CircuitVarOrder;
use crate::wordfn::WordFunction;
use gfab_field::budget::Budget;
use gfab_field::GfContext;
use gfab_netlist::topo::{self, Readers};
use gfab_netlist::{Gate, GateId, GateKind, NetId, Netlist, NetlistError};
use gfab_poly::reduce::{Divisors, TailRecord, TailShape};
use gfab_poly::{ExponentMode, Monomial, Poly, Ring, RingBuilder, VarId, VarKind};
use std::sync::Arc;

/// How [`CircuitModel::build_in`] divides by the gates of an XOR tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDivisors {
    /// Every gate by its own gate polynomial (Section 4 of the paper).
    Literal,
    /// Each XOR tree whose root a product gate reads by one linear
    /// divisor, every other gate by its gate polynomial.
    Linear,
}

/// The polynomial model of a circuit: its ring, one tail record per gate
/// with the leaf arena of its linear records, the word-definition
/// polynomials, and the variable maps.
#[derive(Debug, Clone)]
pub struct CircuitModel {
    /// The polynomial ring: RATO in Quotient exponent mode, as
    /// [`build`](CircuitModel::build) makes it. Only the words are named;
    /// a net's name is the netlist's ([`Netlist::net_name`]).
    pub ring: Ring,
    /// Ring variable of each net. Nets that are neither gate outputs nor
    /// primary inputs occur in no polynomial (validation guarantees it)
    /// and are parked on `z_var`.
    pub net_var: Vec<VarId>,
    /// The output word variable `Z`.
    pub z_var: VarId,
    /// The input word variables, in input-word declaration order.
    pub input_vars: Vec<VarId>,
    /// The divisor `x + tail(x)` led by variable `first_gate + i` is
    /// `gate_records[i]`, 12 bytes per gate: the gate's polynomial, or the
    /// linear divisor of the XOR tree it is the root of.
    gate_records: Vec<TailRecord>,
    /// The leaves of the linear records, tree by tree.
    leaves: Vec<VarId>,
    /// The gates absorbed into linear records.
    absorbed_gates: usize,
    /// The variable of the first gate record.
    first_gate: VarId,
    /// The output word-definition polynomial
    /// `f_w : z_0 + z_1·α + … + z_{k-1}·α^{k-1} + Z`.
    pub output_word_poly: Poly,
    /// The input word-definition polynomials
    /// `f_wi : a_0 + a_1·α + … + A`, one per input word.
    pub input_word_polys: Vec<Poly>,
}

impl CircuitModel {
    /// Builds the model from a validated netlist, with a linear divisor
    /// for each XOR tree that feeds a product gate (see
    /// [`build_in`](CircuitModel::build_in)).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Netlist`] if validation fails;
    /// * [`CoreError::WidthMismatch`] if any word is wider than `k`
    ///   (narrower output words are allowed and zero-extend).
    pub fn build(nl: &Netlist, ctx: &Arc<GfContext>) -> Result<Self, CoreError> {
        Self::build_budgeted(nl, ctx, &Budget::unlimited())
    }

    /// [`build`](CircuitModel::build) under a cooperative budget, polled
    /// every 4096 gates while the gate records are written — million-gate
    /// netlists must stay interruptible by a deadline.
    ///
    /// # Errors
    ///
    /// As [`build`](CircuitModel::build), plus
    /// [`CoreError::BudgetExhausted`] when the budget trips mid-build.
    pub fn build_budgeted(
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        budget: &Budget,
    ) -> Result<Self, CoreError> {
        let rato = CircuitVarOrder::ReverseTopological;
        let linear = GateDivisors::Linear;
        Self::build_in(nl, ctx, ExponentMode::Quotient, rato, false, linear, budget)
    }

    /// The one builder of a circuit's ring and polynomials, which decides
    /// the variable order of every Gröbner engine. The ring has one
    /// variable per gate-output net, one per primary-input bit, `Z` and
    /// one per input word:
    ///
    /// ```text
    /// words last:  nets (per `order`) > PI bits (word by word, LSB first) > Z > A > B > …
    /// words first: Z > A > B > … > nets (per `order`) > PI bits
    /// ```
    ///
    /// The guided extraction uses Quotient mode with the words last (RATO,
    /// Definition 5.1), the full-GB baseline Plain mode with the words
    /// last, and the ideal-membership baseline Quotient mode with the
    /// words first. Only the word variables are named, after their words;
    /// net and primary-input-bit variables are unnamed. The allocations
    /// of a build do not grow with the gate count: a gate costs its
    /// record, its variable's kind and its net's entry in `net_var`.
    ///
    /// With [`GateDivisors::Literal`] every gate gets its gate polynomial.
    /// With [`GateDivisors::Linear`] each XOR tree whose root a product
    /// gate reads is divided by one linear divisor (DESIGN.md §5):
    ///
    /// * a net is *absorbed* when a linear gate (XOR, XNOR, NOT, BUF)
    ///   drives it, exactly one gate input reads it, that reader is
    ///   linear, and it is no output-word bit;
    /// * a *root* is a linear gate whose output is not absorbed; its tree
    ///   is the root and the absorbed gates that feed into it, and its
    ///   *leaves* are the unabsorbed inputs of the tree's gates;
    /// * a root *qualifies* when its tree absorbs a gate and a product
    ///   gate (AND, OR, NAND, NOR) reads it. Its record becomes the linear
    ///   divisor `x + leaf_1 + … + leaf_n`, plus 1 when the tree holds an
    ///   odd number of XNOR and NOT gates; a leaf reached an even number
    ///   of times cancels.
    ///
    /// Each linear divisor is the sum of its tree's gate polynomials, and
    /// every gate keeps its literal record otherwise, absorbed gates
    /// included, so both divisor sets are triangular bases of one ideal
    /// and give every polynomial the same remainder. Only the division
    /// chain is shorter: an absorbed gate is no longer divided out once
    /// per cofactor of its root.
    ///
    /// # Errors
    ///
    /// As [`build_budgeted`](CircuitModel::build_budgeted).
    pub fn build_in(
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        mode: ExponentMode,
        order: CircuitVarOrder,
        words_first: bool,
        divisors: GateDivisors,
        budget: &Budget,
    ) -> Result<Self, CoreError> {
        // The structural checks, then the build's one Kahn pass: it ranks
        // the nets, finds a cycle and lists each gate's readers.
        nl.validate_structure()?;
        let (internal, readers) = match order {
            CircuitVarOrder::ReverseTopological => topo::rato_order(nl),
            CircuitVarOrder::Declaration => topo::topological_order(nl)
                .map(|(_, readers)| (nl.gates().iter().map(|g| g.output).collect(), readers)),
        }
        .ok_or(NetlistError::CombinationalCycle)?;
        let k = ctx.k();
        for w in nl.input_words().iter().chain([nl.output_word()]) {
            if w.width() > k {
                return Err(CoreError::WidthMismatch {
                    k,
                    word: w.name.clone(),
                    width: w.width(),
                });
            }
        }

        // --- The ring ---------------------------------------------------
        let num_vars = nl.num_nets() + 1 + nl.input_words().len();
        let mut rb = RingBuilder::with_capacity(ctx.clone(), mode, num_vars);
        let add_words = |rb: &mut RingBuilder| {
            let z = rb.add_var(nl.output_word().name.clone(), VarKind::Word);
            let inputs: Vec<VarId> = nl
                .input_words()
                .iter()
                .map(|w| rb.add_var(w.name.clone(), VarKind::Word))
                .collect();
            (z, inputs)
        };
        let words = words_first.then(|| add_words(&mut rb));
        // Every net that gets no variable is parked on `Z`, patched below.
        let unset = VarId(u32::MAX);
        let mut net_var = vec![unset; nl.num_nets()];
        let input_bits = nl.input_words().iter().flat_map(|w| &w.bits);
        for &n in internal.iter().chain(input_bits) {
            net_var[n.index()] = rb.add_unnamed(VarKind::Bit);
        }
        let (z_var, input_vars) = words.unwrap_or_else(|| add_words(&mut rb));
        let ring = rb.build();
        for v in net_var.iter_mut().filter(|v| **v == unset) {
            *v = z_var;
        }

        // --- Gate records, in rank order -----------------------------------
        let trees = (divisors == GateDivisors::Linear).then(|| Trees::new(nl, readers));
        let first_gate = internal.first().map_or(VarId(0), |&n| net_var[n.index()]);
        let mut gate_records = Vec::with_capacity(internal.len());
        let (mut leaves, mut absorbed_gates) = (Vec::new(), 0);
        for (i, &n) in internal.iter().enumerate() {
            if i % 4096 == 0 {
                budget.check().map_err(|e| CoreError::BudgetExhausted {
                    phase: gfab_telemetry::Phase::ModelBuild,
                    block: None,
                    reason: e.reason,
                })?;
            }
            let g = nl.driver_of(n).expect("every ranked net is a gate output");
            let gate = nl.gate(g);
            let record = match &trees {
                Some(trees) if gate.kind.is_linear() && trees.qualifies(g) => {
                    if leaves.capacity() == 0 {
                        // Every tree from here on lies in `internal[i..]`,
                        // and a gate has at most two inputs: one
                        // allocation holds all their leaves.
                        leaves.reserve_exact(2 * (internal.len() - i));
                    }
                    let (record, absorbed) = trees.linear_record(gate, &net_var, &mut leaves);
                    absorbed_gates += absorbed;
                    record
                }
                _ => gate_record(&ring, &net_var, gate),
            };
            gate_records.push(record);
        }
        leaves.shrink_to_fit();

        // --- Word-definition polynomials (Eqn. 1) -------------------------
        // `bits[0] + bits[1]·α + … + bits[w-1]·α^{w-1} + W`.
        let word_poly = |bits: &[NetId], word: VarId| {
            let mut terms = Vec::with_capacity(bits.len() + 1);
            for (i, &b) in bits.iter().enumerate() {
                terms.push((Monomial::var(net_var[b.index()]), ctx.alpha_pow(i as u64)));
            }
            terms.push((Monomial::var(word), ctx.one()));
            Poly::from_terms(terms)
        };
        let output_word_poly = word_poly(&nl.output_word().bits, z_var);
        let input_word_polys: Vec<Poly> = nl
            .input_words()
            .iter()
            .zip(&input_vars)
            .map(|(w, &v)| word_poly(&w.bits, v))
            .collect();

        Ok(CircuitModel {
            ring,
            net_var,
            z_var,
            input_vars,
            gate_records,
            leaves,
            absorbed_gates,
            first_gate,
            output_word_poly,
            input_word_polys,
        })
    }

    /// The polynomial of the record led by `var`, built from the record:
    /// the gate polynomial (Section 4 of the paper: the output variable
    /// plus the tail implementing the gate's Boolean operator over
    /// `F_2 ⊂ F_{2^k}`), or the linear divisor of the tree `var` is the
    /// root of. The reducer divides by the records themselves; explicit
    /// polynomials serve the full-GB baseline's generators, listings and
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not the output variable of a gate.
    #[must_use]
    pub fn gate_poly(&self, var: VarId) -> Poly {
        let i = var.index().wrapping_sub(self.first_gate.index());
        self.gate_records[i].poly(&self.ring, &self.leaves, var)
    }

    /// How many gates the linear divisors absorbed: 0 unless the model
    /// was built with them and some tree qualified.
    #[must_use]
    pub fn absorbed_gates(&self) -> usize {
        self.absorbed_gates
    }

    /// The divisor set of the guided extraction: the gate records and the
    /// input word definitions — every circuit polynomial **except** the
    /// output word definition, which is the dividend side of the single
    /// surviving critical pair.
    pub fn divisors(&self) -> Divisors<'_> {
        self.records_with(&self.input_word_polys)
    }

    /// All circuit polynomials `F = {f_1, …, f_s}` as divisors: the gate
    /// records plus every word definition (the generators of the circuit
    /// ideal `J`).
    pub fn all_divisors(&self) -> Divisors<'_> {
        self.records_with(std::iter::once(&self.output_word_poly).chain(&self.input_word_polys))
    }

    /// The gate records and `words` as one divisor set.
    fn records_with<'a>(&'a self, words: impl IntoIterator<Item = &'a Poly>) -> Divisors<'a> {
        Divisors::new(&self.gate_records, &self.leaves, self.first_gate, words)
    }
}

/// The XOR trees of a netlist, found from the Kahn pass's [`Readers`]
/// (see [`CircuitModel::build_in`]).
struct Trees<'n> {
    nl: &'n Netlist,
    readers: Readers,
    /// Bit `i % 64` of word `i / 64` is set when net `i` is an output-word
    /// bit.
    output_bits: Vec<u64>,
}

impl<'n> Trees<'n> {
    fn new(nl: &'n Netlist, readers: Readers) -> Self {
        let mut output_bits = vec![0u64; nl.num_nets().div_ceil(64)];
        for b in &nl.output_word().bits {
            output_bits[b.index() / 64] |= 1 << (b.index() % 64);
        }
        Trees {
            nl,
            readers,
            output_bits,
        }
    }

    /// The linear gate driving `n` when `n` is absorbed: exactly one gate
    /// input reads it, and it is no output-word bit. The caller knows the
    /// reader is linear.
    fn absorbed(&self, n: NetId) -> Option<GateId> {
        let g = self.nl.driver_of(n)?;
        let absorbed = self.nl.gate(g).kind.is_linear()
            && self.readers.single(g)
            && self.output_bits[n.index() / 64] & (1 << (n.index() % 64)) == 0;
        absorbed.then_some(g)
    }

    /// Whether the linear gate `g` is a qualifying root: a product gate
    /// reads it (so it is no absorbed net) and its tree absorbs a gate.
    fn qualifies(&self, g: GateId) -> bool {
        let inputs = &self.nl.gate(g).inputs;
        self.readers.by_product(g) && inputs.iter().any(|&i| self.absorbed(i).is_some())
    }

    /// The linear record of the qualifying root gate `root`, its leaves
    /// appended to `leaves`, and the number of gates its tree absorbs.
    fn linear_record(
        &self,
        root: &Gate,
        net_var: &[VarId],
        leaves: &mut Vec<VarId>,
    ) -> (TailRecord, usize) {
        let nl = self.nl;
        let flips = |kind| kind == GateKind::Xnor || kind == GateKind::Not;
        // The tree's inputs, as nets while they are pending (from `next`
        // on): an absorbed one is replaced by its driver's inputs, an
        // unabsorbed one becomes its variable.
        let start = leaves.len();
        leaves.extend(root.inputs.iter().map(|n| VarId(n.0)));
        let (mut one, mut absorbed) = (flips(root.kind), 0);
        let mut next = start;
        while let Some(&pending) = leaves.get(next) {
            let n = NetId(pending.0);
            match self.absorbed(n) {
                Some(g) => {
                    let gate = nl.gate(g);
                    absorbed += 1;
                    one ^= flips(gate.kind);
                    leaves[next] = VarId(gate.inputs[0].0);
                    leaves.extend(gate.inputs[1..].iter().map(|n| VarId(n.0)));
                }
                None => {
                    leaves[next] = net_var[n.index()];
                    next += 1;
                }
            }
        }
        // A leaf reached twice cancels: once sorted, each leaf either
        // cancels the kept copy before it or is kept.
        let tree = &mut leaves[start..];
        tree.sort_unstable();
        let mut len = 0;
        for j in 0..tree.len() {
            if len > 0 && tree[len - 1] == tree[j] {
                len -= 1;
            } else {
                tree[len] = tree[j];
                len += 1;
            }
        }
        leaves.truncate(start + len);
        (TailRecord::linear(start, len, one), absorbed)
    }
}

/// Reads the word function `G` off `Z + G(A, B, …)`, the element of
/// `polys` led by `z_var`: a Case-1 remainder, or the element of a reduced
/// Gröbner basis that Theorem 4.2 guarantees. Input word `i` becomes
/// `VarId(i)`, named after its ring variable.
///
/// # Errors
///
/// [`CoreError::MissingAbstractionPolynomial`] if no element is led by
/// `Z`, or if `G` mentions any variable other than the input words.
pub(crate) fn word_function(
    ring: &Ring,
    z_var: VarId,
    input_vars: &[VarId],
    polys: &[Poly],
) -> Result<WordFunction, CoreError> {
    let z = Monomial::var(z_var);
    let zg = polys
        .iter()
        .find(|p| p.leading_monomial() == Some(&z))
        .ok_or(CoreError::MissingAbstractionPolynomial)?;
    // G = (Z + G) + Z in characteristic 2.
    let g = zg.add(&ring.var_poly(z_var));
    let position = |v: &VarId| input_vars.binary_search(v).ok();
    if !g.variables().iter().all(|v| position(v).is_some()) {
        return Err(CoreError::MissingAbstractionPolynomial);
    }
    let relabeled = g.relabel(|v| VarId(position(&v).expect("checked above") as u32));
    let names = input_vars
        .iter()
        .map(|&v| ring.var_info(v).name.clone())
        .collect();
    Ok(WordFunction::new(ring.ctx().clone(), names, relabeled))
}

/// The tail record of gate `g` (Section 4 of the paper), over the
/// variables `net_var` gives its inputs. In Quotient mode a gate fed twice
/// from the same net has `x·x = x`, which the record merges.
fn gate_record(ring: &Ring, net_var: &[VarId], g: &Gate) -> TailRecord {
    let shape = |ab, a, b, one| TailShape { ab, a, b, one };
    let shape = match g.kind {
        GateKind::And => shape(true, false, false, false),
        GateKind::Xor => shape(false, true, true, false),
        GateKind::Or => shape(true, true, true, false),
        GateKind::Xnor => shape(false, true, true, true),
        GateKind::Nand => shape(true, false, false, true),
        GateKind::Nor => shape(true, true, true, true),
        GateKind::Not => shape(false, true, false, true),
        GateKind::Buf => shape(false, true, false, false),
        GateKind::Const0 => shape(false, false, false, false),
        GateKind::Const1 => shape(false, false, false, true),
    };
    let var = |i: usize| g.inputs.get(i).map(|n| net_var[n.index()]);
    let a = var(0).unwrap_or(VarId(0));
    TailRecord::new(ring, a, var(1).unwrap_or(a), shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_field::Gf2Poly;

    fn fig2() -> Netlist {
        let mut nl = Netlist::new("fig2");
        let a = nl.add_input_word("A", 2);
        let b = nl.add_input_word("B", 2);
        let s0 = nl.and(a[0], b[0]);
        let s1 = nl.and(a[0], b[1]);
        let s2 = nl.and(a[1], b[0]);
        let s3 = nl.and(a[1], b[1]);
        let r0 = nl.xor(s1, s2);
        let z0 = nl.xor(s0, s3);
        let z1 = nl.xor(r0, s3);
        nl.set_output_word("Z", vec![z0, z1]);
        nl
    }

    /// The net a bit variable of `m` stands for.
    fn net_of(m: &CircuitModel, v: VarId) -> NetId {
        assert_eq!(m.ring.var_info(v).kind, VarKind::Bit);
        let i = m
            .net_var
            .iter()
            .position(|&w| w == v)
            .expect("a net's variable");
        NetId(i as u32)
    }

    #[test]
    fn fig2_model_has_expected_shape() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        // 7 internal nets + 4 PI bits + Z + A + B = 14 variables.
        assert_eq!(m.ring.num_vars(), 14);
        assert_eq!(m.gate_records.len(), 7);
        assert_eq!(m.input_word_polys.len(), 2);
        // z0 is the greatest variable; Z ranks above A and B.
        assert_eq!(nl.net_name(net_of(&m, VarId(0))), "z0");
        assert!(m.z_var < m.input_vars[0]);
        assert!(m.input_vars[0] < m.input_vars[1]);
        // Only the words carry names in the ring.
        let named: Vec<&str> = m.ring.vars().map(|(_, i)| i.name.as_str()).collect();
        assert_eq!(named[11..], ["Z", "A", "B"]);
        assert!(named[..11].iter().all(|n| n.is_empty()));
    }

    #[test]
    fn shared_net_names_get_distinct_variables() {
        use crate::fullgb::{full_gb_abstraction, CircuitVarOrder, FullGbOutcome};
        use crate::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        // Fig. 2 with the AND outputs s1, s2, s3 all named `x`.
        let mut nl = fig2();
        let [s1, s2, s3] = [1, 2, 3].map(|g| nl.gates()[g].output);
        for n in [s1, s2, s3] {
            nl.set_net_name(n, "x");
        }
        // RATO ranks s3 (level 1) above s1 and s2 (level 2); each keeps
        // its own variable, and its name is the netlist's.
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        let var = |n: NetId| m.net_var[n.index()];
        assert!(var(s3) < var(s1) && var(s1) < var(s2));
        for n in [s1, s2, s3] {
            assert_eq!(nl.net_name(net_of(&m, var(n))), "x");
        }
        assert_eq!(m.ring.var_by_name("x"), None);

        // The full-GB baseline's declaration-order ring keeps them apart
        // too, and every engine still decides the circuit.
        let decl = CircuitVarOrder::Declaration;
        let unlimited = Budget::unlimited();
        let literal = GateDivisors::Literal;
        let m = CircuitModel::build_in(
            &nl,
            &ctx,
            ExponentMode::Plain,
            decl,
            false,
            literal,
            &unlimited,
        )
        .unwrap();
        let var = |n: NetId| m.net_var[n.index()];
        assert!(var(s1) < var(s2) && var(s2) < var(s3));
        for order in [
            CircuitVarOrder::Declaration,
            CircuitVarOrder::ReverseTopological,
        ] {
            let limits = gfab_poly::buchberger::GbLimits::default();
            match full_gb_abstraction(&nl, &ctx, order, &limits).unwrap() {
                FullGbOutcome::Canonical { function, .. } => {
                    assert_eq!(format!("{}", function.display()), "A*B", "{order:?}");
                }
                FullGbOutcome::GaveUp { reason, .. } => panic!("{order:?}: {reason}"),
            }
        }
        let sr = spec_ring(&nl, &ctx);
        let spec = multiplier_spec(&sr, &ctx);
        assert!(verify_against_spec(&nl, &ctx, &sr, &spec).unwrap().verified);
    }

    #[test]
    fn gate_polys_lead_with_their_output() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        for g in nl.gates() {
            let x = m.net_var[g.output.index()];
            let p = m.gate_poly(x);
            let lm = p.leading_monomial().expect("gate polys are non-zero");
            assert_eq!(lm, &Monomial::var(x));
        }
    }

    #[test]
    fn word_polys_lead_with_bit0() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        let lead = |p: &Poly| net_of(&m, p.leading_monomial().unwrap().leading_var().unwrap());
        // f_w leads with z0.
        assert_eq!(nl.net_name(lead(&m.output_word_poly)), "z0");
        // f_wA leads with a0, f_wB with b0.
        for (wp, want) in m.input_word_polys.iter().zip(["a0", "b0"]) {
            assert_eq!(nl.net_name(lead(wp)), want);
        }
    }

    #[test]
    fn gate_polynomials_vanish_on_gate_behaviour() {
        // For every gate kind, the polynomial must vanish exactly on the
        // gate's truth table (z = f(a, b) ⇒ poly(z, a, b) = 0).
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        for kind in GateKind::ALL {
            let mut nl = Netlist::new("g");
            let arity = kind.arity();
            let a = nl.add_input_word("A", arity.max(1));
            let ins: Vec<NetId> = a.iter().copied().take(arity).collect();
            let z = nl.add_gate(kind, &ins);
            nl.set_output_word("Z", vec![z]);
            let m = CircuitModel::build(&nl, &ctx).unwrap();
            let p = &m.gate_poly(m.net_var[z.index()]);
            // Enumerate all input combinations.
            for bits in 0u32..(1 << arity.max(1)) {
                let in_vals: Vec<bool> = (0..arity).map(|i| (bits >> i) & 1 == 1).collect();
                let out = kind.eval(&in_vals);
                // Assignment for every ring variable.
                let mut assign = vec![ctx.zero(); m.ring.num_vars()];
                let to_gf = |b: bool| if b { ctx.one() } else { ctx.zero() };
                assign[m.net_var[z.index()].index()] = to_gf(out);
                for (i, &inet) in ins.iter().enumerate() {
                    assign[m.net_var[inet.index()].index()] = to_gf(in_vals[i]);
                }
                assert!(
                    p.eval(&m.ring, &assign).is_zero(),
                    "{kind} polynomial must vanish on its truth table"
                );
                // And must NOT vanish when the output is flipped.
                assign[m.net_var[z.index()].index()] = to_gf(!out);
                assert!(
                    !p.eval(&m.ring, &assign).is_zero(),
                    "{kind} polynomial must reject wrong outputs"
                );
            }
        }
    }

    #[test]
    fn words_first_layout_puts_z_and_the_inputs_on_top() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let order = CircuitVarOrder::ReverseTopological;
        let build = |words_first| {
            let (mode, unlimited) = (ExponentMode::Quotient, Budget::unlimited());
            let literal = GateDivisors::Literal;
            CircuitModel::build_in(&nl, &ctx, mode, order, words_first, literal, &unlimited)
                .unwrap()
        };
        let (last, first) = (build(false), build(true));
        assert_eq!(first.z_var, VarId(0));
        assert_eq!(first.input_vars, [VarId(1), VarId(2)]);
        // Both layouts rank the nets alike: shifted by the three words.
        for (a, b) in last.net_var.iter().zip(&first.net_var) {
            assert_eq!(a.0 + 3, b.0);
        }
        assert_eq!(last.z_var, VarId(11));
    }

    #[test]
    fn validation_errors_reach_the_caller_through_every_engine() {
        use crate::fullgb::full_gb_abstraction;
        use crate::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        // Two drivers on one net and a wrong arity cannot be built:
        // `push_gate` and `replace_gate` panic on them (the netlist
        // crate's tests reach them through its fields).
        let cyclic = {
            let mut nl = Netlist::new("cyclic");
            let (a, b) = (nl.add_input_word("A", 2), nl.add_input_word("B", 2));
            let fb = nl.add_net();
            let t = nl.xor(a[0], fb);
            nl.push_gate(GateKind::Buf, vec![t], fb);
            let u = nl.and(a[1], b[1]);
            nl.set_output_word("Z", vec![t, u]);
            (nl, NetlistError::CombinationalCycle)
        };
        let undriven = {
            let mut nl = Netlist::new("undriven");
            let (a, b) = (nl.add_input_word("A", 2), nl.add_input_word("B", 2));
            let dangling = nl.add_net();
            let t = nl.and(a[0], dangling);
            let u = nl.and(a[1], b[1]);
            nl.set_output_word("Z", vec![t, u]);
            (nl, NetlistError::Undriven(dangling))
        };
        let driven_input = {
            let mut nl = Netlist::new("driven-input");
            let (a, b) = (nl.add_input_word("A", 2), nl.add_input_word("B", 2));
            nl.push_gate(GateKind::Not, vec![b[0]], a[1]);
            let t = nl.and(a[0], b[0]);
            let u = nl.and(a[1], b[1]);
            nl.set_output_word("Z", vec![t, u]);
            (nl, NetlistError::DrivenInput(a[1]))
        };
        let no_output = {
            let mut nl = Netlist::new("no-output");
            let (a, b) = (nl.add_input_word("A", 2), nl.add_input_word("B", 2));
            nl.and(a[0], b[0]);
            (nl, NetlistError::MissingOutputWord)
        };
        let limits = gfab_poly::buchberger::GbLimits::default();
        for (nl, want) in [cyclic, undriven, driven_input, no_output] {
            let is_want =
                |r: Result<(), CoreError>| matches!(r, Err(CoreError::Netlist(e)) if e == want);
            assert!(
                is_want(CircuitModel::build(&nl, &ctx).map(drop)),
                "{want:?}: build"
            );
            assert!(
                is_want(crate::extract_word_polynomial(&nl, &ctx).map(drop)),
                "{want:?}: extraction"
            );
            for order in [
                CircuitVarOrder::Declaration,
                CircuitVarOrder::ReverseTopological,
            ] {
                assert!(
                    is_want(full_gb_abstraction(&nl, &ctx, order, &limits).map(drop)),
                    "{want:?}: full GB, {order:?}"
                );
            }
            if nl.try_output_word().is_some() {
                // The spec ring is named after the output word.
                let sr = spec_ring(&nl, &ctx);
                let spec = multiplier_spec(&sr, &ctx);
                assert!(
                    is_want(verify_against_spec(&nl, &ctx, &sr, &spec).map(drop)),
                    "{want:?}: membership"
                );
            }
        }
    }

    #[test]
    fn oversized_word_rejected() {
        use crate::fullgb::full_gb_abstraction;
        use crate::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut nl = Netlist::new("wide");
        let a = nl.add_input_word("A", 3); // wider than k = 2
        let b = nl.add_input_word("B", 2);
        let z = nl.and(a[0], b[0]);
        nl.set_output_word("Z", vec![z]);
        let wide = |r: Result<(), CoreError>| match r {
            Err(CoreError::WidthMismatch { k, word, width }) => {
                (k, width, word) == (2, 3, "A".into())
            }
            _ => false,
        };
        assert!(wide(CircuitModel::build(&nl, &ctx).map(drop)));
        assert!(wide(crate::extract_word_polynomial(&nl, &ctx).map(drop)));
        let limits = gfab_poly::buchberger::GbLimits::default();
        for order in [
            CircuitVarOrder::Declaration,
            CircuitVarOrder::ReverseTopological,
        ] {
            assert!(wide(
                full_gb_abstraction(&nl, &ctx, order, &limits).map(drop)
            ));
        }
        let sr = spec_ring(&nl, &ctx);
        let spec = multiplier_spec(&sr, &ctx);
        assert!(wide(verify_against_spec(&nl, &ctx, &sr, &spec).map(drop)));
    }
}
