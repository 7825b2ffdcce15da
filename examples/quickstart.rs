//! Quickstart: the paper's running example, end to end.
//!
//! Rebuilds the 2-bit multiplier over `F_4` of Fig. 2, prints its
//! polynomial model (Example 4.2), extracts `Z = A·B` with the RATO-guided
//! flow (Example 5.1), re-derives it with the unguided full Gröbner basis
//! (Example 4.2's `g7 : Z + AB`), then injects the paper's exact bug
//! (`r0 = s0 ⊕ s2`) and reproduces the buggy canonical polynomial
//! `Z + α·A²B² + A²B + (α+1)·AB² + (α+1)·AB`.
//!
//! Run with: `cargo run --release --example quickstart`

use gfab::core::fullgb::{full_gb_abstraction, CircuitVarOrder, FullGbOutcome};
use gfab::core::model::CircuitModel;
use gfab::core::CoreError;
use gfab::field::{Gf2Poly, GfContext, Rng};
use gfab::netlist::{mutate, GateId, NetId, Netlist};
use gfab::poly::buchberger::GbLimits;
use gfab::poly::{Ring, RingBuilder, VarKind};
use gfab::Verifier;

fn fig2_multiplier() -> Netlist {
    let mut nl = Netlist::new("fig2");
    let a = nl.add_input_word("A", 2);
    let b = nl.add_input_word("B", 2);
    let s0 = nl.and(a[0], b[0]);
    let s1 = nl.and(a[0], b[1]);
    let s2 = nl.and(a[1], b[0]);
    let s3 = nl.and(a[1], b[1]);
    for (net, name) in [(s0, "s0"), (s1, "s1"), (s2, "s2"), (s3, "s3")] {
        nl.set_net_name(net, name);
    }
    let r0 = nl.xor(s1, s2);
    nl.set_net_name(r0, "r0");
    let z0 = nl.xor(s0, s3);
    let z1 = nl.xor(r0, s3);
    nl.set_output_word("Z", vec![z0, z1]);
    nl
}

/// `model`'s ring with each net variable named after its net, for
/// printing: the model's ring names only the words.
fn named_ring(model: &CircuitModel, nl: &Netlist) -> Ring {
    let mut net_of = vec![None; model.ring.num_vars()];
    for (n, &v) in model.net_var.iter().enumerate() {
        if model.ring.var_kind(v) == VarKind::Bit {
            net_of[v.index()] = Some(NetId(n as u32));
        }
    }
    let mut rb = RingBuilder::new(model.ring.ctx().clone(), model.ring.mode());
    for (v, info) in model.ring.vars() {
        let name = net_of[v.index()].map_or(info.name.as_str(), |n| nl.net_name(n));
        rb.add_var(name, info.kind);
    }
    rb.build()
}

fn main() -> Result<(), CoreError> {
    // F_4 with P(x) = x² + x + 1 (the paper's field for Fig. 2).
    let ctx =
        GfContext::shared(Gf2Poly::from_exponents(&[2, 1, 0])).expect("x^2+x+1 is irreducible");
    let nl = fig2_multiplier();

    println!("== Fig. 2: 2-bit multiplier over F_4, P(x) = x^2 + x + 1 ==\n");
    println!("netlist ({} gates):", nl.num_gates());
    print!("{}", gfab::netlist::format::emit(&nl));

    // A verification session: one builder, reused for every extraction.
    let verifier = Verifier::new(&ctx);

    // The polynomial model (Example 4.2's f_1 … f_10): the gate
    // polynomials, built from the model's gate records, then the words.
    let report = verifier.extract(&nl)?;
    let result = report.as_flat().expect("flat netlist gives flat report");
    let model = &result.model;
    println!("\npolynomial model under RATO (f_1 ... f_{}):", {
        nl.num_gates() + 1 + model.input_word_polys.len()
    });
    let names = named_ring(model, &nl);
    for g in nl.gates() {
        let p = model.gate_poly(model.net_var[g.output.index()]);
        println!("  {}", p.display(&names));
    }
    for p in [&model.output_word_poly]
        .into_iter()
        .chain(&model.input_word_polys)
    {
        println!("  {}", p.display(&names));
    }

    // Guided extraction (Example 5.1, correct circuit).
    let f = result.canonical().expect("correct circuit is Case 1");
    println!("\nguided RATO extraction:   Z = {}", f.display());
    println!(
        "  ({} reduction steps, peak {} terms)",
        result.stats.reduction_steps, result.stats.peak_terms
    );

    // Full Gröbner basis (Example 4.2's g7).
    match full_gb_abstraction(
        &nl,
        &ctx,
        CircuitVarOrder::ReverseTopological,
        &GbLimits::default(),
    )? {
        FullGbOutcome::Canonical {
            function,
            basis_size,
            stats,
        } => {
            println!("\nfull GB (Example 4.2):    Z = {}", function.display());
            println!(
                "  (reduced basis of {} polynomials, {} S-polynomial reductions, {} pairs pruned by the product criterion)",
                basis_size,
                stats.pairs_reduced,
                stats.pairs_skipped_product + stats.pairs_skipped_chain,
            );
            assert!(function.matches(f), "both routes agree (Theorem 4.2)");
        }
        FullGbOutcome::GaveUp { reason, .. } => {
            println!("full GB gave up: {reason}");
        }
    }

    // Example 5.1's bug: replace f8 : r0 = s1 ⊕ s2 by r0 = s0 ⊕ s2.
    let mut buggy = fig2_multiplier();
    let r0_gate = GateId(4);
    let s0_net = buggy.gate(GateId(0)).output;
    let mutation = mutate::swap_wire(&mut buggy, r0_gate, 0, s0_net);
    println!("\n== Injecting the paper's bug: {mutation} ==");

    let buggy_report = verifier.extract(&buggy)?;
    let buggy_result = buggy_report.as_flat().expect("flat report");
    assert!(buggy_result.stats.case2_completion, "bug lands in Case 2");
    let fb = buggy_result
        .canonical()
        .expect("Case-2 completion succeeds on F_4");
    println!("buggy canonical polynomial: Z = {}", fb.display());
    println!("(paper Example 5.1: Z + α*A^2*B^2 + A^2*B + (α+1)*A*B^2 + (α+1)*A*B)");

    // Coefficient matching flags the difference immediately.
    assert!(!f.matches(fb));
    let mut rng = Rng::from_entropy();
    if let Some(cex) = f.find_counterexample(fb, 64, &mut rng) {
        println!(
            "counterexample: A = {}, B = {} (spec: {}, buggy: {})",
            cex[0],
            cex[1],
            f.eval(&cex),
            fb.eval(&cex)
        );
    }
    println!("\nequivalence verdict: INEQUIVALENT (as expected)");
    Ok(())
}
