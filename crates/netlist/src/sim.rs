//! Netlist simulation: scalar, 64-way bit-parallel, and word-level over
//! `F_{2^k}`.

use crate::netlist::{NetId, Netlist};
use crate::topo::topological_gates;
use gfab_field::budget::{Budget, ExhaustedReason};
use gfab_field::{Gf, GfContext, Rng};
use gfab_telemetry::{Counter, Hist, Phase, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of a budgeted random-equivalence sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// All sampled assignments agreed.
    Agree,
    /// The circuits differ on this input assignment (a genuine
    /// counterexample: any mismatch found is real even if the sweep was
    /// later cut short).
    Differ(Vec<Gf>),
    /// The budget ran out before the sweep finished and no mismatch had
    /// been found.
    OutOfBudget(ExhaustedReason),
}

/// Resolves a requested thread count: `0` means "use all available
/// parallelism" (falling back to 1 if the platform cannot report it).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Simulates the netlist on a full bit assignment of the primary inputs.
///
/// `inputs[i]` is the value of the i-th primary input bit in
/// [`Netlist::input_bits`] order (input words in declaration order, LSB
/// first). Returns the value of every net.
///
/// # Panics
///
/// Panics if the netlist is cyclic or `inputs` has the wrong length.
pub fn simulate_bits(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let wide: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
    let vals = simulate_wide(nl, &wide);
    vals.into_iter().map(|v| v & 1 == 1).collect()
}

/// Simulates 64 input patterns at once; each net carries a `u64` whose bit
/// `p` is the net's value under pattern `p`.
///
/// # Panics
///
/// Panics if the netlist is cyclic or `inputs` has the wrong length.
pub fn simulate_wide(nl: &Netlist, inputs: &[u64]) -> Vec<u64> {
    let pis = nl.input_bits();
    assert_eq!(inputs.len(), pis.len(), "input width mismatch");
    let order = topological_gates(nl).expect("netlist must be acyclic");
    let mut vals = vec![0u64; nl.num_nets()];
    for (net, &v) in pis.iter().zip(inputs) {
        vals[net.index()] = v;
    }
    let mut buf: Vec<u64> = Vec::with_capacity(2);
    for g in order {
        let gate = nl.gate(g);
        buf.clear();
        buf.extend(gate.inputs.iter().map(|i| vals[i.index()]));
        vals[gate.output.index()] = gate.kind.eval_wide(&buf);
    }
    vals
}

/// Simulates the netlist on field-element inputs (one per input word) and
/// returns the field-element value of the output word.
///
/// # Panics
///
/// Panics if `words.len()` differs from the number of input words, if any
/// word is wider than the circuit expects, or if the netlist is cyclic.
pub fn simulate_word(nl: &Netlist, ctx: &GfContext, words: &[Gf]) -> Gf {
    assert_eq!(
        words.len(),
        nl.input_words().len(),
        "input word count mismatch"
    );
    let mut bits = Vec::new();
    for (word, value) in nl.input_words().iter().zip(words) {
        for i in 0..word.width() {
            bits.push(value.bit(i));
        }
    }
    let vals = simulate_bits(nl, &bits);
    output_word_value(nl, ctx, &vals)
}

/// Packs the output word's net values into a field element.
pub fn output_word_value(nl: &Netlist, ctx: &GfContext, net_values: &[bool]) -> Gf {
    let bits: Vec<bool> = nl
        .output_word()
        .bits
        .iter()
        .map(|b| net_values[b.index()])
        .collect();
    ctx.from_bits(&bits)
}

/// Exhaustively checks `nl` against `f` on all input combinations; intended
/// for small circuits (total input bits ≤ 20).
///
/// # Panics
///
/// Panics if the circuit has more than 20 input bits.
pub fn exhaustive_check(
    nl: &Netlist,
    ctx: &GfContext,
    f: impl Fn(&[Gf]) -> Gf,
) -> Result<(), Vec<Gf>> {
    let widths: Vec<usize> = nl.input_words().iter().map(|w| w.width()).collect();
    let total: usize = widths.iter().sum();
    assert!(total <= 20, "exhaustive check limited to 20 input bits");
    for pattern in 0u64..(1 << total) {
        let mut words = Vec::with_capacity(widths.len());
        let mut off = 0;
        for &w in &widths {
            let mask = (1u64 << w) - 1;
            words.push(ctx.from_u64((pattern >> off) & mask));
            off += w;
        }
        let got = simulate_word(nl, ctx, &words);
        let want = f(&words);
        if got != want {
            return Err(words);
        }
    }
    Ok(())
}

/// Compares two netlists with identical input signatures on `n` random
/// word assignments; returns the first mismatching assignment found. The
/// plain entry point of [`random_equivalence_check_traced`] (one thread,
/// no budget, telemetry off).
///
/// # Panics
///
/// As [`random_equivalence_check_traced`].
pub fn random_equivalence_check(
    a: &Netlist,
    b: &Netlist,
    ctx: &GfContext,
    n: usize,
    rng: &mut Rng,
) -> Result<(), Vec<Gf>> {
    let (budget, tele) = (Budget::unlimited(), Telemetry::disabled());
    match random_equivalence_check_traced(a, b, ctx, n, rng, 1, &budget, &tele, "") {
        SimOutcome::Agree => Ok(()),
        SimOutcome::Differ(cex) => Err(cex),
        SimOutcome::OutOfBudget(_) => unreachable!("unlimited budget cannot run out"),
    }
}

/// Packs word assignments `lo..hi` of `assignments` into one 64-lane wide
/// input vector (lane `l` carries assignment `lo + l`).
fn pack_lanes(nl: &Netlist, assignments: &[Vec<Gf>], lo: usize, hi: usize) -> Vec<u64> {
    let mut wide = Vec::with_capacity(nl.input_bits().len());
    for (w, word) in nl.input_words().iter().enumerate() {
        for bit in 0..word.width() {
            let mut v = 0u64;
            for (lane, assignment) in assignments[lo..hi].iter().enumerate() {
                if assignment[w].bit(bit) {
                    v |= 1 << lane;
                }
            }
            wide.push(v);
        }
    }
    wide
}

/// Returns a mask of lanes (bits `0..lanes`) where the output words of the
/// two wide-simulation traces differ.
fn lane_diff_mask(a: &Netlist, avals: &[u64], b: &Netlist, bvals: &[u64], lanes: usize) -> u64 {
    let mut diff = 0u64;
    for (na, nb) in a.output_word().bits.iter().zip(&b.output_word().bits) {
        diff |= avals[na.index()] ^ bvals[nb.index()];
    }
    if lanes == 64 {
        diff
    } else {
        diff & ((1u64 << lanes) - 1)
    }
}

/// Compares two netlists on `n` random word assignments using the 64-way
/// bit-parallel simulator, sharding 64-assignment chunks across `threads`
/// worker threads (`0` = available parallelism), under a cooperative
/// [`Budget`] polled once per chunk and a labelled [`Phase::Simulation`]
/// span carrying a `sim-vectors` counter.
///
/// The assignments are drawn from `rng` up front, so the verdict — and
/// the specific counterexample returned (the mismatching assignment with
/// the lowest index) — is **identical for every thread count**.
/// Simulation charges no work units (work caps are an algebra knob); it
/// honours the wall-clock deadline and cancellation only. A
/// [`SimOutcome::Differ`] counterexample is always genuine, even when the
/// budget cut the sweep short.
///
/// # Panics
///
/// Panics if the two netlists disagree on input/output word widths, or if
/// either is cyclic.
#[allow(clippy::too_many_arguments)]
pub fn random_equivalence_check_traced(
    a: &Netlist,
    b: &Netlist,
    ctx: &GfContext,
    n: usize,
    rng: &mut Rng,
    threads: usize,
    budget: &Budget,
    tele: &Telemetry,
    label: &str,
) -> SimOutcome {
    let mut span = tele.span_labeled(Phase::Simulation, label);
    let start = std::time::Instant::now();
    assert_eq!(
        a.input_words().len(),
        b.input_words().len(),
        "input signature mismatch"
    );
    for (wa, wb) in a.input_words().iter().zip(b.input_words()) {
        assert_eq!(wa.width(), wb.width(), "input width mismatch");
    }
    assert_eq!(
        a.output_word().width(),
        b.output_word().width(),
        "output width mismatch"
    );
    let num_words = a.input_words().len();
    // Draw every assignment up front from the caller's RNG: the stream
    // consumed is independent of the sharding, which keeps the check
    // bit-identical between serial and parallel runs.
    let assignments: Vec<Vec<Gf>> = (0..n)
        .map(|_| (0..num_words).map(|_| ctx.random(rng)).collect())
        .collect();
    let num_chunks = n.div_ceil(64);
    let threads = resolve_threads(threads).min(num_chunks.max(1));

    let check_chunk = |chunk: usize| -> Option<usize> {
        let lo = chunk * 64;
        let hi = (lo + 64).min(n);
        let wide_a = pack_lanes(a, &assignments, lo, hi);
        let wide_b = pack_lanes(b, &assignments, lo, hi);
        let avals = simulate_wide(a, &wide_a);
        let bvals = simulate_wide(b, &wide_b);
        let diff = lane_diff_mask(a, &avals, b, &bvals, hi - lo);
        if diff == 0 {
            None
        } else {
            Some(lo + diff.trailing_zeros() as usize)
        }
    };

    let first_mismatch = if threads <= 1 {
        let mut best = None;
        for chunk in 0..num_chunks {
            if budget.check().is_err() {
                break;
            }
            if let Some(idx) = check_chunk(chunk) {
                best = Some(idx);
                break;
            }
        }
        best
    } else {
        let next_chunk = AtomicUsize::new(0);
        let found = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut best: Option<usize> = None;
                        loop {
                            if budget.check().is_err() {
                                break;
                            }
                            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                            if chunk >= num_chunks {
                                break;
                            }
                            if let Some(idx) = check_chunk(chunk) {
                                best = Some(best.map_or(idx, |b| b.min(idx)));
                            }
                        }
                        best
                    })
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().expect("simulation worker panicked"))
                .min()
        });
        found
    };
    let outcome = match first_mismatch {
        // Any mismatch is a real counterexample, budget or not.
        Some(idx) => SimOutcome::Differ(assignments[idx].clone()),
        None => match budget.exhausted() {
            Some(reason) => SimOutcome::OutOfBudget(reason),
            None => SimOutcome::Agree,
        },
    };
    span.counter(Counter::SimVectors, n as u64);
    if span.is_enabled() {
        // Wall-clock sample; Hist::SimBatchUs is flagged non-deterministic
        // so trace-diff never gates on it.
        span.observe(Hist::SimBatchUs, start.elapsed().as_micros() as u64);
    }
    let _ = span.finish();
    outcome
}

/// The per-net value trace for one input assignment, for debugging:
/// `(net name, value)` pairs in net-id order.
pub fn trace(nl: &Netlist, inputs: &[bool]) -> Vec<(String, bool)> {
    let vals = simulate_bits(nl, inputs);
    (0..nl.num_nets())
        .map(|i| (nl.net_name(NetId(i as u32)).to_string(), vals[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
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

    fn f4() -> GfContext {
        GfContext::new(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap()
    }

    #[test]
    fn fig2_multiplies_over_f4() {
        let nl = fig2();
        let ctx = f4();
        exhaustive_check(&nl, &ctx, |w| ctx.mul(&w[0], &w[1]))
            .unwrap_or_else(|w| panic!("mismatch at {w:?}"));
    }

    #[test]
    fn wide_simulation_matches_scalar() {
        let nl = fig2();
        // Patterns 0..16 in parallel lanes.
        let mut wide = vec![0u64; 4];
        for p in 0..16u64 {
            for (i, w) in wide.iter_mut().enumerate() {
                if (p >> i) & 1 == 1 {
                    *w |= 1 << p;
                }
            }
        }
        let vals = simulate_wide(&nl, &wide);
        for p in 0..16u64 {
            let scalar: Vec<bool> = (0..4).map(|i| (p >> i) & 1 == 1).collect();
            let svals = simulate_bits(&nl, &scalar);
            for (net, &wv) in vals.iter().enumerate() {
                assert_eq!((wv >> p) & 1 == 1, svals[net], "net {net} pattern {p}");
            }
        }
    }

    #[test]
    fn word_simulation_respects_lsb_first() {
        let nl = fig2();
        let ctx = f4();
        let alpha = ctx.alpha();
        // α * α = α + 1 in F_4.
        let got = simulate_word(&nl, &ctx, &[alpha.clone(), alpha.clone()]);
        assert_eq!(got, ctx.add(&alpha, &ctx.one()));
    }

    #[test]
    fn random_check_detects_buggy_clone() {
        let good = fig2();
        let mut bad = fig2();
        // Flip the r0 XOR into an OR.
        let r0_gate = crate::netlist::GateId(4);
        assert_eq!(bad.gate(r0_gate).kind, GateKind::Xor);
        let ins = bad.gate(r0_gate).inputs.clone();
        bad.replace_gate(r0_gate, GateKind::Or, ins);
        let ctx = f4();
        let mut rng = Rng::from_entropy();
        // 64 random samples over F_4 x F_4 will very likely hit (1,1)*(1,*)…
        // use exhaustive instead to be deterministic:
        let mut found = false;
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                if simulate_word(&good, &ctx, &[a.clone(), b.clone()])
                    != simulate_word(&bad, &ctx, &[a.clone(), b.clone()])
                {
                    found = true;
                }
            }
        }
        assert!(found, "bug must be observable");
        // random_equivalence_check on equal circuits passes.
        random_equivalence_check(&good, &good.clone(), &ctx, 16, &mut rng).unwrap();
    }
}
