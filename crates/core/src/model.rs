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
use gfab_field::GfContext;
use gfab_netlist::{GateKind, NetId, Netlist};
use gfab_poly::{ExponentMode, Monomial, Poly, Ring, RingBuilder, VarId, VarKind};
use std::sync::Arc;

/// The polynomial model of a circuit: the RATO ring, the per-gate
/// polynomials, the word-definition polynomials, and the variable maps.
#[derive(Debug, Clone)]
pub struct CircuitModel {
    /// The polynomial ring under RATO (Quotient exponent mode).
    pub ring: Ring,
    /// Ring variable of each net.
    pub net_var: Vec<VarId>,
    /// The output word variable `Z`.
    pub z_var: VarId,
    /// The input word variables, in input-word declaration order.
    pub input_vars: Vec<VarId>,
    /// One polynomial `x + tail(x)` per gate, in gate order.
    pub gate_polys: Vec<Poly>,
    /// The output word-definition polynomial
    /// `f_w : z_0 + z_1·α + … + z_{k-1}·α^{k-1} + Z`.
    pub output_word_poly: Poly,
    /// The input word-definition polynomials
    /// `f_wi : a_0 + a_1·α + … + A`, one per input word.
    pub input_word_polys: Vec<Poly>,
}

impl CircuitModel {
    /// Builds the model from a validated netlist.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Netlist`] if validation fails;
    /// * [`CoreError::WidthMismatch`] if any word is wider than `k`
    ///   (narrower output words are allowed and zero-extend).
    pub fn build(nl: &Netlist, ctx: &Arc<GfContext>) -> Result<Self, CoreError> {
        Self::build_budgeted(nl, ctx, &gfab_field::budget::Budget::unlimited())
    }

    /// [`build`](CircuitModel::build) under a cooperative budget, polled
    /// every few thousand gates while the gate polynomials are
    /// constructed — million-gate netlists spend whole seconds here, long
    /// enough that a deadline must be able to interrupt the build.
    ///
    /// # Errors
    ///
    /// As [`build`](CircuitModel::build), plus
    /// [`CoreError::BudgetExhausted`] when the budget trips mid-build.
    pub fn build_budgeted(
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        budget: &gfab_field::budget::Budget,
    ) -> Result<Self, CoreError> {
        nl.validate()?;
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

        // --- Variable ordering (RATO) ---------------------------------
        // 1. Gate-output nets by ascending reverse-topological level, with
        //    output-word bits pulled to the front of their level in bit
        //    order ({z0 > z1} in Example 5.1).
        let levels = gfab_netlist::topo::reverse_topological_levels(nl)
            .expect("validated netlist is acyclic");
        // Precomputed per-net output-bit position: the sort below compares
        // O(n log n) keys, and scanning the k-bit output word per
        // comparison is a measurable fixed cost at k = 571.
        let mut out_bit_pos = vec![u32::MAX; nl.num_nets()];
        for (p, &b) in nl.output_word().bits.iter().enumerate() {
            out_bit_pos[b.index()] = p as u32;
        }
        let mut internal: Vec<NetId> = nl
            .gates()
            .iter()
            .map(|g| g.output)
            .filter(|&n| !nl.is_primary_input(n))
            .collect();
        internal.sort_by_key(|&n| (levels[n.index()], out_bit_pos[n.index()], n.0));

        // 2. Primary input bits, word by word, LSB (a_0) first.
        // 3. Z, then the input words.
        let mut rb = ring_builder(nl, ctx, ExponentMode::Quotient);
        let net_var = add_net_vars(&mut rb, nl, &internal);
        let z_var = rb.add_var(nl.output_word().name.clone(), VarKind::Word);
        let input_vars: Vec<VarId> = nl
            .input_words()
            .iter()
            .map(|w| rb.add_var(w.name.clone(), VarKind::Word))
            .collect();
        let ring = rb.build();
        let net_var: Vec<VarId> = net_var
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.unwrap_or_else(|| {
                    // Nets that are neither gate outputs nor primary inputs
                    // are unused (validation guarantees this); park them on
                    // Z's id — they never occur in any polynomial.
                    debug_assert!(
                        nl.driver_of(NetId(i as u32)).is_none(),
                        "driven net must have a variable"
                    );
                    z_var
                })
            })
            .collect();

        // --- Gate polynomials ------------------------------------------
        let nv = |n: NetId| net_var[n.index()];
        let mut gate_polys: Vec<Poly> = Vec::with_capacity(nl.num_gates());
        for (i, g) in nl.gates().iter().enumerate() {
            if i % 4096 == 0 {
                budget.check().map_err(|e| CoreError::BudgetExhausted {
                    phase: gfab_telemetry::Phase::ModelBuild,
                    block: None,
                    reason: e.reason,
                })?;
            }
            gate_polys.push(gate_polynomial(&ring, ctx, g, &nv));
        }

        // --- Word-definition polynomials (Eqn. 1) ----------------------
        let output_word_poly = word_polynomial(ctx, &nl.output_word().bits, z_var, &nv);
        let input_word_polys: Vec<Poly> = nl
            .input_words()
            .iter()
            .zip(&input_vars)
            .map(|(w, &v)| word_polynomial(ctx, &w.bits, v, &nv))
            .collect();

        Ok(CircuitModel {
            ring,
            net_var,
            z_var,
            input_vars,
            gate_polys,
            output_word_poly,
            input_word_polys,
        })
    }

    /// All circuit polynomials `F = {f_1, …, f_s}`: gates plus word
    /// definitions (the generators of the circuit ideal `J`).
    pub fn all_polys(&self) -> Vec<&Poly> {
        self.gate_polys
            .iter()
            .chain([&self.output_word_poly])
            .chain(self.input_word_polys.iter())
            .collect()
    }

    /// The divisor set used by the guided extraction: every polynomial
    /// **except** the output word definition (which is the dividend side of
    /// the single surviving critical pair).
    pub fn divisors(&self) -> Vec<&Poly> {
        self.gate_polys
            .iter()
            .chain(self.input_word_polys.iter())
            .collect()
    }
}

/// A ring builder sized for `nl`'s model: at most one variable per net,
/// plus the output word and the input words.
pub(crate) fn ring_builder(nl: &Netlist, ctx: &Arc<GfContext>, mode: ExponentMode) -> RingBuilder {
    let num_vars = nl.num_nets() + 1 + nl.input_words().len();
    RingBuilder::with_capacity(ctx.clone(), mode, num_vars)
}

/// Adds one bit variable per net of `internal`, then one per primary-input
/// bit (word by word, LSB first), each named after its net (the ring
/// suffixes repeated net names). Returns the variable of every net, `None`
/// for nets that are neither.
pub(crate) fn add_net_vars(
    rb: &mut RingBuilder,
    nl: &Netlist,
    internal: &[NetId],
) -> Vec<Option<VarId>> {
    let mut net_var = vec![None; nl.num_nets()];
    let input_bits = nl.input_words().iter().flat_map(|w| &w.bits);
    for &n in internal.iter().chain(input_bits) {
        net_var[n.index()] = Some(rb.add_var(nl.net_name(n), VarKind::Bit));
    }
    net_var
}

/// The word-definition polynomial of Eqn. (1),
/// `bits[0] + bits[1]·α + … + bits[w-1]·α^{w-1} + W`.
pub(crate) fn word_polynomial(
    ctx: &GfContext,
    bits: &[NetId],
    word: VarId,
    net_var: &dyn Fn(NetId) -> VarId,
) -> Poly {
    let mut terms = Vec::with_capacity(bits.len() + 1);
    for (i, &b) in bits.iter().enumerate() {
        terms.push((Monomial::var(net_var(b)), ctx.alpha_pow(i as u64)));
    }
    terms.push((Monomial::var(word), ctx.one()));
    Poly::from_terms(terms)
}

/// The polynomial model of one gate (Section 4 of the paper): output
/// variable plus the tail implementing the Boolean operator over
/// `F_2 ⊂ F_{2^k}`. Shared between the abstraction model and the
/// ideal-membership baseline (which uses a different variable order).
/// The term vector is allocated at its final length. In Quotient mode a
/// gate fed twice from the same net yields `x·x = x` automatically.
pub(crate) fn gate_polynomial(
    ring: &Ring,
    ctx: &GfContext,
    g: &gfab_netlist::Gate,
    net_var: &dyn Fn(NetId) -> VarId,
) -> Poly {
    let term = |m: Monomial| (m, ctx.one());
    let out = || term(Monomial::var(net_var(g.output)));
    let input = |i: usize| term(Monomial::var(net_var(g.inputs[i])));
    let product = || {
        let (a, b) = (
            Monomial::var(net_var(g.inputs[0])),
            Monomial::var(net_var(g.inputs[1])),
        );
        term(a.mul(&b, ring).expect("bit exponents cannot overflow"))
    };
    let one = || term(Monomial::one());
    let terms = match g.kind {
        GateKind::And => vec![out(), product()],
        GateKind::Xor => vec![out(), input(0), input(1)],
        GateKind::Or => vec![out(), input(0), input(1), product()],
        GateKind::Xnor => vec![out(), input(0), input(1), one()],
        GateKind::Nand => vec![out(), product(), one()],
        GateKind::Nor => vec![out(), input(0), input(1), product(), one()],
        GateKind::Not => vec![out(), input(0), one()],
        GateKind::Buf => vec![out(), input(0)],
        GateKind::Const0 => vec![out()],
        GateKind::Const1 => vec![out(), one()],
    };
    Poly::from_terms(terms)
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

    #[test]
    fn fig2_model_has_expected_shape() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        // 7 internal nets + 4 PI bits + Z + A + B = 14 variables.
        assert_eq!(m.ring.num_vars(), 14);
        assert_eq!(m.gate_polys.len(), 7);
        assert_eq!(m.input_word_polys.len(), 2);
        // z0 is the greatest variable; Z ranks above A and B.
        assert_eq!(m.ring.var_info(VarId(0)).name, "z0");
        assert!(m.z_var < m.input_vars[0]);
        assert!(m.input_vars[0] < m.input_vars[1]);
    }

    #[test]
    fn shared_net_names_get_counted_suffixes() {
        use crate::fullgb::{full_gb_abstraction, CircuitVarOrder, FullGbOutcome};
        use crate::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        // Fig. 2 with the AND outputs s1, s2, s3 all named `x`.
        let mut nl = fig2();
        let [s1, s2, s3] = [1, 2, 3].map(|g| nl.gates()[g].output);
        for n in [s1, s2, s3] {
            nl.set_net_name(n, "x");
        }
        // RATO adds s3 (level 1) before s1 and s2 (level 2).
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        let name = |n: NetId| m.ring.var_info(m.net_var[n.index()]).name.as_str();
        assert_eq!([name(s3), name(s1), name(s2)], ["x", "x@1", "x@2"]);
        let named_x: Vec<&str> = m
            .ring
            .vars()
            .map(|(_, info)| info.name.as_str())
            .filter(|n| n.starts_with('x'))
            .collect();
        assert_eq!(named_x, ["x", "x@1", "x@2"]);

        // The other two ring builders name their variables the same way
        // and still decide the circuit.
        let mut rb = ring_builder(&nl, &ctx, ExponentMode::Plain);
        rb.add_var("Z", VarKind::Word);
        let nv = add_net_vars(&mut rb, &nl, &[s1, s2, s3]);
        let ring = rb.build();
        let name = |n: NetId| ring.var_info(nv[n.index()].unwrap()).name.as_str();
        assert_eq!([name(s1), name(s2), name(s3)], ["x", "x@1", "x@2"]);
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
        for (g, p) in nl.gates().iter().zip(&m.gate_polys) {
            let lm = p.leading_monomial().expect("gate polys are non-zero");
            assert_eq!(lm, &Monomial::var(m.net_var[g.output.index()]));
        }
    }

    #[test]
    fn word_polys_lead_with_bit0() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let nl = fig2();
        let m = CircuitModel::build(&nl, &ctx).unwrap();
        // f_w leads with z0.
        let lm = m.output_word_poly.leading_monomial().unwrap();
        assert_eq!(m.ring.var_info(lm.leading_var().unwrap()).name, "z0");
        // f_wA leads with a0, f_wB with b0.
        for (wp, want) in m.input_word_polys.iter().zip(["a0", "b0"]) {
            let lv = wp.leading_monomial().unwrap().leading_var().unwrap();
            assert_eq!(m.ring.var_info(lv).name, want);
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
            let p = &m.gate_polys[0];
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
    fn oversized_word_rejected() {
        let ctx = GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        let mut nl = Netlist::new("wide");
        let a = nl.add_input_word("A", 3); // wider than k = 2
        let z = nl.not(a[0]);
        nl.set_output_word("Z", vec![z]);
        assert!(matches!(
            CircuitModel::build(&nl, &ctx),
            Err(CoreError::WidthMismatch { .. })
        ));
    }
}
