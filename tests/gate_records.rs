//! The guided reducer divides by gate records: when it pops a term led by
//! a gate's variable it builds that gate's tail from a 12-byte record,
//! instead of reading a stored polynomial. These tests hold the record
//! path to the explicit polynomials of the records: on every registry
//! architecture, clean and with each structural fault, and on gates fed
//! twice by one net, both give the same remainder and every
//! `ReductionStats` field alike, in both layouts of the circuit ring, with
//! literal records only and with linear divisors, unbudgeted and under
//! work caps. `tests/linear_divisors.rs` holds the linear divisors to the
//! literal chain.

use gfab::circuits::registry::{build_pair, ALL_ARCHES};
use gfab::core::fullgb::CircuitVarOrder;
use gfab::core::model::{CircuitModel, GateDivisors};
use gfab::field::budget::Budget;
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{GfContext, Rng};
use gfab::fuzz::fault::{inject_structural, ALL_FAULTS};
use gfab::netlist::{GateKind, Netlist};
use gfab::poly::reduce::Reducer;
use gfab::poly::{ExponentMode, Poly, Ring};
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// A `k`-bit circuit whose gates of every two-input kind are fed twice by
/// one net, among other gates.
fn fed_twice(k: usize) -> Netlist {
    use GateKind::{And, Nand, Nor, Or, Xnor, Xor};
    let kinds = [And, Or, Xor, Nand, Nor, Xnor];
    let mut nl = Netlist::new("fed_twice");
    let a = nl.add_input_word("A", k);
    let b = nl.add_input_word("B", k);
    let bits = (0..k)
        .map(|i| {
            let t = nl.add_gate(kinds[i % 6], &[a[i], a[i]]);
            let u = nl.add_gate(kinds[(i + 1) % 6], &[t, b[i]]);
            let v = nl.add_gate(kinds[(i + 2) % 6], &[u, u]);
            nl.add_gate(kinds[(i + 3) % 6], &[v, t])
        })
        .collect();
    nl.set_output_word("Z", bits);
    nl
}

/// Reduces `f` by `records` and by `explicit` (the same divisors as
/// polynomials), unbudgeted and under work caps 0 and 4096, and demands
/// the same outcome each time. Returns the division steps.
fn assert_same_reduction(records: &Reducer, explicit: &Reducer, f: &Poly, what: &str) -> u64 {
    let unbudgeted = records.normal_form_with_stats(f);
    assert_eq!(unbudgeted, explicit.normal_form_with_stats(f), "{what}");
    for cap in [0, 4096] {
        let budget = || Budget::with_work_cap(cap);
        assert_eq!(
            records.normal_form_budgeted(f, &budget()),
            explicit.normal_form_budgeted(f, &budget()),
            "{what}, work cap {cap}"
        );
    }
    unbudgeted.expect("no exponent overflows").1.steps
}

/// A reducer over the explicit gate polynomials and `words`.
fn explicit_reducer<'a>(ring: &'a Ring, gates: &'a [Poly], words: &[&'a Poly]) -> Reducer<'a> {
    let polys: Vec<&Poly> = gates.iter().chain(words.iter().copied()).collect();
    Reducer::new(ring, polys)
}

/// Both layouts of `nl`'s RATO ring: the guided extraction's divisors
/// (words last) and the membership test's (words first), each with and
/// without linear divisors, each against its explicit twin.
fn assert_records_match_polys(nl: &Netlist, ctx: &Arc<GfContext>, what: &str) -> u64 {
    let mut steps = 0;
    let (literal, linear) = (GateDivisors::Literal, GateDivisors::Linear);
    for (words_first, divisors) in [
        (false, literal),
        (true, literal),
        (false, linear),
        (true, linear),
    ] {
        let (mode, rato) = (ExponentMode::Quotient, CircuitVarOrder::ReverseTopological);
        let unlimited = Budget::unlimited();
        let m =
            CircuitModel::build_in(nl, ctx, mode, rato, words_first, divisors, &unlimited).unwrap();
        let gate_polys: Vec<Poly> = nl
            .gates()
            .iter()
            .map(|g| m.gate_poly(m.net_var[g.output.index()]))
            .collect();
        let inputs: Vec<&Poly> = m.input_word_polys.iter().collect();
        let all_words: Vec<&Poly> = [&m.output_word_poly]
            .into_iter()
            .chain(&m.input_word_polys)
            .collect();
        let what = format!("{what}, words first: {words_first}, {divisors:?} divisors");
        // The guided extraction's dividend, and a membership-style one
        // that every word definition takes part in.
        let z_plus_a = m
            .ring
            .var_poly(m.z_var)
            .add(&m.ring.var_poly(m.input_vars[0]));
        steps += assert_same_reduction(
            &Reducer::new(&m.ring, m.divisors()),
            &explicit_reducer(&m.ring, &gate_polys, &inputs),
            &m.output_word_poly,
            &format!("{what}, f_w"),
        );
        steps += assert_same_reduction(
            &Reducer::new(&m.ring, m.all_divisors()),
            &explicit_reducer(&m.ring, &gate_polys, &all_words),
            &z_plus_a,
            &format!("{what}, Z + A"),
        );
    }
    steps
}

#[test]
fn gate_records_reduce_like_explicit_gate_polynomials() {
    let mut rng = Rng::seed_from_u64(0x6A7E);
    let mut cases = 0;
    for k in [2, 3, 4, 8, 16] {
        let ctx = field(k);
        let twice = fed_twice(k);
        assert!(assert_records_match_polys(&twice, &ctx, &format!("fed twice, k={k}")) > 0);
        for arch in ALL_ARCHES.into_iter().filter(|a| a.supports_k(k)) {
            for seed in 0..4 {
                let (_, clean) = build_pair(arch, &ctx, seed);
                let mut set = vec![(clean.clone(), "clean".to_string())];
                for kind in ALL_FAULTS.into_iter().filter(|f| f.is_structural()) {
                    if let Some((bad, fault)) = inject_structural(&clean, kind, &mut rng) {
                        set.push((bad, fault.to_string()));
                    }
                }
                for (nl, fault) in &set {
                    let what = format!("k={k} {} seed {seed} ({fault})", arch.name());
                    assert_records_match_polys(nl, &ctx, &what);
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 400, "{cases} netlists");
}
