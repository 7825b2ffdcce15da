//! Bug hunting with word-level abstraction: inject random gate-level bugs
//! into a multiplier and show what the verifier reports — the buggy
//! circuit's *own* canonical polynomial (via the Case-2 completion, here
//! by dual-basis trace substitution) plus a concrete counterexample.
//!
//! This demonstrates the diagnostic advantage the paper's method has over
//! plain SAT: the verdict is not just "inequivalent" but the exact
//! polynomial function the broken hardware computes.
//!
//! Run with: `cargo run --release --example bug_hunting`

use gfab::circuits::mastrovito_multiplier;
use gfab::core::equiv::Verdict;
use gfab::field::nist::irreducible_polynomial;
use gfab::field::GfContext;
use gfab::netlist::mutate::inject_random_bug;
use gfab::sat::equiv::{check_equivalence_sat, SatVerdict};
use gfab::Verifier;

fn main() {
    let k = 4usize;
    let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
    let spec = mastrovito_multiplier(&ctx);
    println!(
        "golden model: {}-bit Mastrovito multiplier ({} gates) over P(x) = {}\n",
        k,
        spec.num_gates(),
        ctx.modulus()
    );

    let verifier = Verifier::new(&ctx);
    let mut real_bugs = 0;
    let mut benign = 0;
    for seed in 0..12u64 {
        let (buggy, mutation) = inject_random_bug(&spec, seed);
        let report = verifier.check(&spec, &buggy).expect("extraction succeeds");
        println!("seed {seed:2}: mutation [{mutation}]");
        match &report.verdict {
            Verdict::Equivalent { .. } => {
                benign += 1;
                println!("        benign — function unchanged");
            }
            Verdict::Inequivalent {
                impl_: buggy_fn,
                counterexample,
                ..
            } => {
                real_bugs += 1;
                println!(
                    "        BUG — buggy circuit computes Z = {}",
                    buggy_fn.display()
                );
                if let Some(cex) = counterexample {
                    println!("        counterexample: A = {}, B = {}", cex[0], cex[1]);
                }
                // Cross-check with the SAT miter baseline.
                let sat = check_equivalence_sat(&spec, &buggy, 1_000_000);
                match sat.verdict {
                    SatVerdict::Counterexample(_) => {
                        println!("        (SAT miter agrees: counterexample found)")
                    }
                    other => println!("        (SAT miter: {other:?})"),
                }
            }
            Verdict::InequivalentBySimulation { counterexample } => {
                real_bugs += 1;
                println!(
                    "        BUG — refuted by simulation at A = {}, B = {}",
                    counterexample[0], counterexample[1]
                );
            }
            Verdict::EquivalentBySat { conflicts } => {
                benign += 1;
                println!("        benign — SAT fallback proved UNSAT ({conflicts} conflicts)");
            }
            Verdict::InequivalentBySat { counterexample, .. } => {
                real_bugs += 1;
                println!(
                    "        BUG — SAT fallback witness at A = {}, B = {}",
                    counterexample[0], counterexample[1]
                );
            }
            Verdict::Unknown { reason } => println!("        UNKNOWN: {reason}"),
        }
        println!();
    }
    println!("summary: {real_bugs} real bugs, {benign} benign mutations out of 12");
}
