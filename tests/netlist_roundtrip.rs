//! Netlist-level integration: text-format roundtrips, optimization
//! equivalence, and miter behaviour on the real benchmark generators.
//! Randomized cases use deterministic seeds (an earlier proptest harness
//! was replaced so the suite runs without external dependencies).

use gfab::circuits::registry::{build_pair, ALL_ARCHES};
use gfab::circuits::{mastrovito_multiplier, monpro, montgomery_multiplier_hier, MonproOperand};
use gfab::core::fullgb::{full_gb_abstraction, CircuitVarOrder, FullGbOutcome};
use gfab::core::ideal_membership::{multiplier_spec, spec_ring, verify_against_spec};
use gfab::core::{extract_word_polynomial_with, ExtractOptions};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::{GfContext, Rng};
use gfab::fuzz::fault::{inject_structural, ALL_FAULTS};
use gfab::netlist::opt::optimize;
use gfab::netlist::random::{random_circuit, RandomCircuitSpec};
use gfab::netlist::sim::random_equivalence_check;
use gfab::netlist::{format, NetId, Netlist};
use gfab::poly::buchberger::GbLimits;
use gfab::Verifier;
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

fn assert_same_function(a: &Netlist, b: &Netlist, ctx: &Arc<GfContext>) {
    let mut rng = Rng::seed_from_u64(1234);
    random_equivalence_check(a, b, ctx, 64, &mut rng)
        .unwrap_or_else(|w| panic!("functions differ at {w:?}"));
}

fn canonical(nl: &Netlist, ctx: &Arc<GfContext>) -> gfab::core::WordFunction {
    Verifier::new(ctx)
        .extract(nl)
        .unwrap()
        .function()
        .cloned()
        .unwrap()
}

#[test]
fn format_roundtrip_mastrovito_k8() {
    let ctx = field(8);
    let nl = mastrovito_multiplier(&ctx);
    let text = format::emit(&nl);
    let back = format::parse(&text).unwrap();
    assert_eq!(back.num_gates(), nl.num_gates());
    assert_same_function(&nl, &back, &ctx);
    // Round-trip again: stable.
    assert_eq!(format::emit(&back), text);
}

/// `nl` with its nets renumbered by a seeded shuffle and renamed; the gate
/// list and the words keep their order.
fn renumbered(nl: &Netlist, rng: &mut Rng) -> Netlist {
    let mut id: Vec<u32> = (0..nl.num_nets() as u32).collect();
    for i in (1..id.len()).rev() {
        id.swap(i, rng.random_range(0..i + 1));
    }
    let map = |nets: &[NetId]| nets.iter().map(|n| NetId(id[n.index()])).collect();
    let mut out = Netlist::new(nl.name());
    for i in 0..nl.num_nets() {
        out.add_named_net(format!("w{i}"));
    }
    for w in nl.input_words() {
        out.add_input_word_from_nets(w.name.clone(), map(&w.bits));
    }
    for g in nl.gates() {
        out.push_gate(g.kind, map(&g.inputs), NetId(id[g.output.index()]));
    }
    let z = nl.output_word();
    out.set_output_word(z.name.clone(), map(&z.bits));
    out
}

/// One circuit in its three forms: in memory, through the text format,
/// and renumbered.
fn forms(nl: &Netlist, rng: &mut Rng) -> [Netlist; 3] {
    let text = format::parse(&format::emit(nl)).unwrap();
    [nl.clone(), text, renumbered(nl, rng)]
}

/// The Fig. 2 multiplier plus a dead cone, `t = a0 AND b0` feeding
/// `d = t XOR s3`, that reaches no output bit.
fn fig2_with_dead_logic() -> Netlist {
    let mut nl = Netlist::new("fig2_dead");
    let a = nl.add_input_word("A", 2);
    let b = nl.add_input_word("B", 2);
    let s0 = nl.and(a[0], b[0]);
    let s1 = nl.and(a[0], b[1]);
    let s2 = nl.and(a[1], b[0]);
    let s3 = nl.and(a[1], b[1]);
    let r0 = nl.xor(s1, s2);
    let z0 = nl.xor(s0, s3);
    let z1 = nl.xor(r0, s3);
    let t = nl.and(a[0], b[0]);
    nl.xor(t, s3);
    nl.set_output_word("Z", vec![z0, z1]);
    nl
}

#[test]
fn format_roundtrip_preserves_extraction() {
    let ctx = field(4);
    let nl = monpro(&ctx, "mm", MonproOperand::Word);
    let back = format::parse(&format::emit(&nl)).unwrap();
    assert!(canonical(&nl, &ctx).matches(&canonical(&back, &ctx)));

    // One circuit, one cost: the guided reduction does the same work in
    // every form, for every registry architecture, clean and with each
    // structural fault. Case 2 stays off, so the counts are the guided
    // reduction's own.
    let opts = ExtractOptions {
        complete_case2: false,
        ..ExtractOptions::default()
    };
    let mut rng = Rng::seed_from_u64(1234);
    let mut cases = vec![(field(2), fig2_with_dead_logic(), "clean".to_string())];
    for k in [3, 4, 5, 8] {
        let ctx = field(k);
        for arch in ALL_ARCHES.into_iter().filter(|a| a.supports_k(k)) {
            let (_, clean) = build_pair(arch, &ctx, k as u64);
            for kind in ALL_FAULTS.into_iter().filter(|f| f.is_structural()) {
                if let Some((bad, fault)) = inject_structural(&clean, kind, &mut rng) {
                    cases.push((ctx.clone(), bad, fault.to_string()));
                }
            }
            cases.push((ctx.clone(), clean, "clean".to_string()));
        }
    }
    for (ctx, nl, what) in &cases {
        let [mem, text, renum] = forms(nl, &mut rng).map(|form| {
            let s = extract_word_polynomial_with(&form, ctx, &opts)
                .unwrap()
                .stats;
            (s.reduction_steps, s.peak_terms, s.cancellations)
        });
        let label = format!("k={} {} ({what})", ctx.k(), nl.name());
        assert_eq!(text, mem, "text vs in memory: {label}");
        assert_eq!(renum, mem, "renumbered vs in memory: {label}");
    }
}

#[test]
fn baselines_cost_the_same_in_every_form() {
    // Ideal membership and the full-GB baseline share the guided
    // extraction's rank, so their effort does not depend on the form
    // either.
    let mut rng = Rng::seed_from_u64(1234);
    for k in [2, 3, 4] {
        let ctx = field(k);
        for nl in [
            mastrovito_multiplier(&ctx),
            montgomery_multiplier_hier(&ctx).flatten(),
        ] {
            let [mem, text, renum] = forms(&nl, &mut rng).map(|form| {
                let sr = spec_ring(&form, &ctx);
                let spec = multiplier_spec(&sr, &ctx);
                let member = verify_against_spec(&form, &ctx, &sr, &spec).unwrap();
                assert!(member.verified, "k={k} {}", nl.name());
                let order = CircuitVarOrder::ReverseTopological;
                match full_gb_abstraction(&form, &ctx, order, &GbLimits::default()).unwrap() {
                    FullGbOutcome::Canonical {
                        basis_size, stats, ..
                    } => (member.stats, basis_size, stats),
                    FullGbOutcome::GaveUp { reason, .. } => {
                        panic!("k={k} {}: full GB gave up: {reason}", nl.name())
                    }
                }
            });
            assert_eq!(text, mem, "text vs in memory: k={k} {}", nl.name());
            assert_eq!(renum, mem, "renumbered vs in memory: k={k} {}", nl.name());
        }
    }
}

#[test]
fn optimizer_preserves_monpro_constant_blocks() {
    // MonPro with a constant operand is already constant-folded by the
    // generator; running the generic optimizer on the *word* version wired
    // to constants must reach a comparable size and the same function.
    let ctx = field(8);
    let r2 = ctx.montgomery_r2();
    let direct = monpro(&ctx, "direct", MonproOperand::Const(r2.clone()));

    // Build the word version and tie B to the constant with const gates.
    let word = monpro(&ctx, "word", MonproOperand::Word);
    let mut wired = Netlist::new("wired");
    let a = wired.add_input_word("A", 8);
    let bbits: Vec<_> = (0..8).map(|i| wired.constant(r2.bit(i))).collect();
    let mut inputs = a.clone();
    inputs.extend(bbits);
    let outs = gfab::netlist::miter::instantiate(&mut wired, &word, &inputs, "u");
    wired.set_output_word("Z", outs);

    let (opt, stats) = optimize(&wired);
    opt.validate().unwrap();
    assert!(stats.gates_folded > 0);
    assert!(opt.num_gates() < wired.num_gates());
    assert_same_function(&opt, &direct, &ctx);
    // And extraction agrees too.
    assert!(canonical(&opt, &ctx).matches(&canonical(&direct, &ctx)));
}

#[test]
fn roundtrip_random_circuits() {
    let ctx = field(3);
    for seed in 0..20u64 {
        let spec = RandomCircuitSpec {
            num_input_words: 2,
            width: 3,
            num_gates: 30,
            seed: seed * 499,
        };
        let nl = random_circuit(&spec);
        let back = format::parse(&format::emit(&nl)).unwrap();
        assert_same_function(&nl, &back, &ctx);
    }
}

#[test]
fn optimizer_preserves_random_circuits() {
    let ctx = field(3);
    for seed in 0..20u64 {
        let nl = random_circuit(&RandomCircuitSpec {
            num_input_words: 2,
            width: 3,
            num_gates: 40,
            seed: seed * 499,
        });
        let (opt, _) = optimize(&nl);
        opt.validate().unwrap();
        assert_same_function(&nl, &opt, &ctx);
    }
}

#[test]
fn extraction_survives_optimization() {
    // Canonical polynomials before and after optimization must match
    // (they are functions of the circuit behaviour only).
    let ctx = field(2);
    for seed in 0..20u64 {
        let nl = random_circuit(&RandomCircuitSpec {
            num_input_words: 2,
            width: 2,
            num_gates: 18,
            seed: seed * 97,
        });
        let (opt, _) = optimize(&nl);
        assert!(
            canonical(&nl, &ctx).matches(&canonical(&opt, &ctx)),
            "seed {seed}"
        );
    }
}
