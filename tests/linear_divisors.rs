//! `CircuitModel::build` divides each XOR tree whose root a product gate
//! reads by one linear divisor, `x + leaf_1 + … + leaf_n (+ 1)`. These
//! tests hold that divisor set to the literal chain of gate polynomials:
//! on every registry architecture, clean and with each structural fault,
//! both give the same remainder, unbudgeted and under work caps; and on a
//! hand-built netlist every rule of the collapse shows in the divisors.

use gfab::circuits::montgomery_multiplier_hier;
use gfab::circuits::registry::{build_pair, ALL_ARCHES};
use gfab::core::fullgb::CircuitVarOrder;
use gfab::core::model::{CircuitModel, GateDivisors};
use gfab::field::budget::Budget;
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{GfContext, Rng};
use gfab::fuzz::fault::{inject_structural, ALL_FAULTS};
use gfab::netlist::{GateKind, NetId, Netlist};
use gfab::poly::reduce::Reducer;
use gfab::poly::{ExponentMode, Monomial, Poly, PolyError, VarId, VarKind};
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// The model with literal gate records only.
fn literal_model(nl: &Netlist, ctx: &Arc<GfContext>) -> CircuitModel {
    let (mode, rato) = (ExponentMode::Quotient, CircuitVarOrder::ReverseTopological);
    let literal = GateDivisors::Literal;
    CircuitModel::build_in(nl, ctx, mode, rato, false, literal, &Budget::unlimited()).unwrap()
}

/// The explicit gate polynomials of `m`, one per gate.
fn gate_polys(nl: &Netlist, m: &CircuitModel) -> Vec<Poly> {
    nl.gates()
        .iter()
        .map(|g| m.gate_poly(m.net_var[g.output.index()]))
        .collect()
}

/// What one netlist showed: steps of both chains, gates absorbed, and
/// whether the remainder was a Case-2 residual.
struct Outcome {
    literal_steps: u64,
    linear_steps: u64,
    absorbed: usize,
    residual: bool,
}

/// Reduces `f_w` by `CircuitModel::build`'s divisors and by the explicit
/// literal gate polynomials, and demands the same remainder; under work
/// caps 0 and 4096 the collapsed chain must stop on its budget or return
/// that remainder.
fn assert_collapse_keeps_the_remainder(nl: &Netlist, ctx: &Arc<GfContext>, what: &str) -> Outcome {
    let literal = literal_model(nl, ctx);
    let polys = gate_polys(nl, &literal);
    let explicit: Vec<&Poly> = polys.iter().chain(&literal.input_word_polys).collect();
    let (want, literal_stats) = Reducer::new(&literal.ring, explicit)
        .normal_form_with_stats(&literal.output_word_poly)
        .unwrap();

    let m = CircuitModel::build(nl, ctx).unwrap();
    // The same ring: the collapse changes records, never variables.
    assert_eq!(m.net_var, literal.net_var, "{what}");
    assert_eq!(m.ring.num_vars(), literal.ring.num_vars(), "{what}");
    let red = Reducer::new(&m.ring, m.divisors());
    let (got, stats) = red.normal_form_with_stats(&m.output_word_poly).unwrap();
    assert_eq!(
        got,
        want,
        "{what}: {} vs {}",
        got.display(&m.ring),
        want.display(&m.ring)
    );
    for cap in [0, 4096] {
        match red.normal_form_budgeted(&m.output_word_poly, &Budget::with_work_cap(cap)) {
            Ok((r, _)) => assert_eq!(r, want, "{what}, work cap {cap}"),
            Err(PolyError::BudgetExceeded(_)) => {}
            Err(e) => panic!("{what}, work cap {cap}: {e}"),
        }
    }
    let residual = got
        .variables()
        .iter()
        .any(|&v| m.ring.var_info(v).kind == VarKind::Bit);
    Outcome {
        literal_steps: literal_stats.steps,
        linear_steps: stats.steps,
        absorbed: m.absorbed_gates(),
        residual,
    }
}

#[test]
fn linear_divisors_keep_the_literal_remainder_on_the_registry() {
    let mut rng = Rng::seed_from_u64(0x11EA);
    let (mut cases, mut residuals, mut collapsed) = (0, 0, 0);
    let (mut literal_steps, mut linear_steps) = (0, 0);
    for k in [2, 3, 4, 8, 16] {
        let ctx = field(k);
        for arch in ALL_ARCHES.into_iter().filter(|a| a.supports_k(k)) {
            for seed in 0..8 {
                let (spec, clean) = build_pair(arch, &ctx, seed);
                let mut set = vec![(spec, "spec".to_string()), (clean.clone(), "clean".into())];
                for kind in ALL_FAULTS.into_iter().filter(|f| f.is_structural()) {
                    if let Some((bad, fault)) = inject_structural(&clean, kind, &mut rng) {
                        set.push((bad, fault.to_string()));
                    }
                }
                for (nl, fault) in &set {
                    let what = format!("k={k} {} seed {seed} ({fault})", arch.name());
                    let o = assert_collapse_keeps_the_remainder(nl, &ctx, &what);
                    cases += 1;
                    residuals += usize::from(o.residual);
                    collapsed += usize::from(o.absorbed > 0);
                    literal_steps += o.literal_steps;
                    linear_steps += o.linear_steps;
                    if o.absorbed == 0 {
                        assert_eq!(o.linear_steps, o.literal_steps, "{what}");
                    }
                }
            }
        }
    }
    // The sweep must reach both cases and the collapse itself.
    assert!(cases > 1_000, "{cases} netlists");
    assert!(residuals > 500, "{residuals} case-2 residuals");
    assert!(collapsed > 100, "{collapsed} netlists absorbed a gate");
    assert!(
        linear_steps < literal_steps,
        "{linear_steps} vs {literal_steps} steps"
    );
}

#[test]
fn flattened_montgomery_collapses_and_mastrovito_does_not() {
    let ctx = field(16);
    let montgomery = montgomery_multiplier_hier(&ctx).flatten();
    let o = assert_collapse_keeps_the_remainder(&montgomery, &ctx, "montgomery_16");
    assert_eq!(
        (o.absorbed, o.literal_steps, o.linear_steps),
        (94, 5_102, 2_797)
    );
    let mastrovito = gfab::circuits::mastrovito_multiplier(&ctx);
    let o = assert_collapse_keeps_the_remainder(&mastrovito, &ctx, "mastrovito_16");
    assert_eq!(o.absorbed, 0);
    assert_eq!(o.linear_steps, o.literal_steps);
}

/// A 4-bit circuit with one qualifying tree and one output-bit tree:
///
/// ```text
/// u = XNOR(a0, a1)   v = NOT(a2)   w = BUF(a0)      (absorbed)
/// p = XOR(u, v)                                      (absorbed)
/// r = XNOR(p, w)     read by z0 = AND(r, b0), z1 = AND(r, b1), z3 = XOR(r, b1)
/// s = XOR(b2, b3)                                    (absorbed)
/// z2 = XOR(s, b0)    an output bit that no gate reads
/// ```
///
/// `r`'s tree holds three XNOR and NOT gates and reaches `a0` twice, so
/// its linear divisor is `r + a1 + a2 + 1`. `z2`'s tree is only read as
/// the output word, so `z2` keeps its literal record.
fn two_trees() -> (Netlist, [NetId; 3]) {
    let mut nl = Netlist::new("two_trees");
    let a = nl.add_input_word("A", 4);
    let b = nl.add_input_word("B", 4);
    let u = nl.add_gate(GateKind::Xnor, &[a[0], a[1]]);
    let v = nl.add_gate(GateKind::Not, &[a[2]]);
    let w = nl.add_gate(GateKind::Buf, &[a[0]]);
    let p = nl.xor(u, v);
    let r = nl.add_gate(GateKind::Xnor, &[p, w]);
    let z0 = nl.and(r, b[0]);
    let z1 = nl.and(r, b[1]);
    let z3 = nl.xor(r, b[1]);
    let s = nl.xor(b[2], b[3]);
    let z2 = nl.xor(s, b[0]);
    nl.set_output_word("Z", vec![z0, z1, z2, z3]);
    (nl, [r, s, z2])
}

#[test]
fn a_hand_built_tree_shows_every_rule() {
    let ctx = field(4);
    let (nl, [r, s, z2]) = two_trees();
    let m = CircuitModel::build(&nl, &ctx).unwrap();
    let literal = literal_model(&nl, &ctx);
    let var = |n: NetId| m.net_var[n.index()];
    let input_bit = |word: usize, i: usize| var(nl.input_words()[word].bits[i]);
    let one = ctx.one();
    let linear_poly = |vars: &[VarId], constant: bool| {
        let mut terms: Vec<_> = vars
            .iter()
            .map(|&v| (Monomial::var(v), one.clone()))
            .collect();
        if constant {
            terms.push((Monomial::one(), one.clone()));
        }
        Poly::from_terms(terms)
    };
    // u, v, w and p are absorbed into r's divisor; s stays with z2.
    assert_eq!(m.absorbed_gates(), 4);
    assert_eq!(
        m.gate_poly(var(r)),
        linear_poly(&[var(r), input_bit(0, 1), input_bit(0, 2)], true)
    );
    assert_eq!(literal.absorbed_gates(), 0);
    assert_eq!(
        literal.gate_poly(var(r)),
        literal_poly_of(&nl, &literal, r),
        "the literal model keeps r's gate polynomial"
    );
    // The output-bit root and its absorbed input keep their records.
    for n in [z2, s] {
        assert_eq!(m.gate_poly(var(n)), literal.gate_poly(var(n)));
    }
    assert_eq!(
        m.gate_poly(var(z2)),
        linear_poly(&[var(z2), var(s), input_bit(1, 0)], false)
    );

    // Dividing r takes one step instead of the literal chain's five, and
    // z2's chain is the literal one.
    let collapsed = Reducer::new(&m.ring, m.divisors());
    let literal_red = Reducer::new(&literal.ring, literal.divisors());
    let steps = |red: &Reducer, n: NetId| {
        let (nf, stats) = red
            .normal_form_with_stats(&m.ring.var_poly(var(n)))
            .unwrap();
        (nf, stats.steps)
    };
    let (nf_r, collapsed_r) = steps(&collapsed, r);
    assert_eq!(nf_r, linear_poly(&[input_bit(0, 1), input_bit(0, 2)], true));
    assert_eq!((collapsed_r, steps(&literal_red, r)), (1, (nf_r, 5)));
    assert_eq!(steps(&collapsed, z2), steps(&literal_red, z2));
    // z2, s, and b0, which leads B's word definition.
    assert_eq!(steps(&collapsed, z2).1, 3);

    // And the whole extraction keeps its remainder.
    let o = assert_collapse_keeps_the_remainder(&nl, &ctx, "two trees");
    assert!(o.residual);
    assert!(o.linear_steps < o.literal_steps);
}

/// `r`'s gate polynomial, from its gate: `r + p + w + 1`.
fn literal_poly_of(nl: &Netlist, m: &CircuitModel, r: NetId) -> Poly {
    let g = nl.gate(nl.driver_of(r).unwrap());
    assert_eq!(g.kind, GateKind::Xnor);
    let one = m.ring.ctx().one();
    let mut terms = vec![(Monomial::var(m.net_var[r.index()]), one.clone())];
    terms.extend(
        g.inputs
            .iter()
            .map(|i| (Monomial::var(m.net_var[i.index()]), one.clone())),
    );
    terms.push((Monomial::one(), one));
    Poly::from_terms(terms)
}
