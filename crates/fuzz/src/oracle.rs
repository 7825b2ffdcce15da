//! The cross-engine differential oracle.
//!
//! Every fuzz specimen is judged three ways and the verdicts are
//! cross-checked:
//!
//! 1. **Simulation ground truth** — exhaustive 64-lane bit-parallel
//!    sweep when the pair has at most [`OracleConfig::exhaustive_bits`]
//!    input bits, otherwise a seeded random sample of
//!    [`OracleConfig::sample_vectors`] patterns.
//! 2. **Word-level abstraction** — [`check_equivalence`] (the paper's
//!    Gröbner-basis extraction), single-threaded, with the Case-2
//!    completion enabled on fields where it is routinely decidable
//!    (`k ≤ 8`) and only *deterministic* structural limits (no wall
//!    clock), so the verdict is a pure function of the specimen.
//! 3. **SAT miter** — [`check_equivalence_sat`] under a deterministic
//!    conflict cap.
//!
//! Any counterexample an engine produces is re-simulated before it is
//! believed; a validated counterexample upgrades a sampled-equal ground
//! truth to *differs*. The oracle then flags four classes of
//! cross-engine trouble ([`FindingClass`]): a verdict contradicting the
//! ground truth without a witness, an equivalence claim on a pair that
//! demonstrably differs, a counterexample that fails simulation, and an
//! `Unknown` where the engine is expected to decide. A capped-out SAT
//! `Unknown` is always an *allowed* outcome — counted, not flagged — and
//! [`word_must_decide`] says when the same grace extends to the word
//! rung (random-structure specimens, or faulted ones an external work
//! cap may cut short).

use gfab_core::equiv::{check_equivalence, Verdict};
use gfab_core::ExtractOptions;
use gfab_field::budget::BudgetSpec;
use gfab_field::{Gf, GfContext, Rng};
use gfab_netlist::sim::{simulate_bits, simulate_wide, simulate_word};
use gfab_netlist::Netlist;
use gfab_sat::equiv::{check_equivalence_sat, SatVerdict};
use gfab_telemetry::Counter;
use std::fmt;
use std::sync::Arc;

/// Oracle resource parameters. All deterministic: no wall-clock limit
/// participates in any verdict.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Exhaustive simulation up to this many total input bits; larger
    /// pairs get a seeded random sample instead.
    pub exhaustive_bits: usize,
    /// Number of random patterns in the sampled ground truth.
    pub sample_vectors: u64,
    /// Conflict cap for the SAT rung (capped-out = allowed `Unknown`).
    pub sat_conflicts: u64,
    /// Optional work-unit cap for the word-level rung. `None` (the
    /// default) lets extraction run to its structural limits.
    pub word_work_cap: Option<u64>,
    /// Seed for the sampled ground-truth sweep.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            exhaustive_bits: 16,
            sample_vectors: 4096,
            sat_conflicts: 20_000,
            word_work_cap: None,
            seed: 0,
        }
    }
}

/// A class of cross-engine disagreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FindingClass {
    /// Engines (or an engine and the ground truth) reached contradictory
    /// verdicts with no witness to arbitrate.
    Disagreement,
    /// An engine claimed equivalence on a pair that demonstrably differs.
    Escape,
    /// An engine produced a counterexample that simulation rejects.
    BogusCounterexample,
    /// An engine answered `Unknown` where it is expected to decide.
    UnexpectedUnknown,
}

impl FindingClass {
    /// Stable kebab-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FindingClass::Disagreement => "disagreement",
            FindingClass::Escape => "escape",
            FindingClass::BogusCounterexample => "bogus-counterexample",
            FindingClass::UnexpectedUnknown => "unexpected-unknown",
        }
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One confirmed cross-engine problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The finding class.
    pub class: FindingClass,
    /// The engine that misbehaved (`"word"` or `"sat"`).
    pub engine: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.class, self.engine, self.detail)
    }
}

/// The oracle's combined judgement of one specimen.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Whether the pair demonstrably computes different functions
    /// (exhaustive proof, or a validated concrete witness).
    pub truth_differs: bool,
    /// Whether the ground truth was exhaustive (vs. sampled).
    pub truth_exhaustive: bool,
    /// A distinguishing input-bit assignment, when one is known
    /// (`Netlist::input_bits` order). Present whenever `truth_differs`
    /// came from simulation or a bit-validated counterexample.
    pub witness: Option<Vec<bool>>,
    /// Cross-engine problems found.
    pub findings: Vec<Finding>,
    /// The word-level rung answered `Unknown` (allowed or not).
    pub word_unknown: bool,
    /// The SAT rung capped out.
    pub sat_unknown: bool,
    /// Deterministic effort, one entry per work-unit counter: simulated
    /// ground-truth vectors, extraction reduction steps and modelled
    /// gates (both sides), and SAT conflicts.
    pub work: [(Counter, u64); 4],
}

impl OracleOutcome {
    /// Total deterministic work units (the sum of [`OracleOutcome::work`]).
    #[must_use]
    pub fn work_units(&self) -> u64 {
        self.work.iter().map(|(_, v)| v).sum()
    }
}

/// Lane masks for the 64-pattern-per-round exhaustive sweep: input bit
/// `i < 6` of pattern `base + lane` is bit `i` of `lane`.
const LANE: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Simulates both sides on 64 packed patterns and returns the XOR
/// difference mask over all output bits.
fn wide_diff(spec: &Netlist, impl_: &Netlist, inputs: &[u64]) -> u64 {
    let sv = simulate_wide(spec, inputs);
    let iv = simulate_wide(impl_, inputs);
    let sb = &spec.output_word().bits;
    let ib = &impl_.output_word().bits;
    assert_eq!(sb.len(), ib.len(), "output width mismatch");
    sb.iter()
        .zip(ib)
        .fold(0u64, |d, (s, i)| d | (sv[s.index()] ^ iv[i.index()]))
}

/// Exhaustive ground truth over all `2^n` patterns (`n ≤ 63` assumed,
/// enforced by the caller's `exhaustive_bits` cap). Returns the lowest
/// differing pattern of the first differing 64-block, plus the number of
/// patterns simulated.
fn exhaustive_diff(spec: &Netlist, impl_: &Netlist) -> (Option<Vec<bool>>, u64) {
    let n = spec.input_bits().len();
    let patterns = 1u64 << n;
    let mut base = 0u64;
    while base < patterns {
        let lanes = (patterns - base).min(64);
        let inputs: Vec<u64> = (0..n)
            .map(|i| {
                if i < 6 {
                    LANE[i]
                } else if (base >> i) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                }
            })
            .collect();
        let valid = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let diff = wide_diff(spec, impl_, &inputs) & valid;
        if diff != 0 {
            let pattern = base + u64::from(diff.trailing_zeros());
            let witness = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            return (Some(witness), base + lanes);
        }
        base += 64;
    }
    (None, patterns)
}

/// Sampled ground truth: `vectors` seeded random patterns, 64 per round.
/// Returns the first witness found, plus the number of patterns simulated.
fn sampled_diff(
    spec: &Netlist,
    impl_: &Netlist,
    vectors: u64,
    seed: u64,
) -> (Option<Vec<bool>>, u64) {
    let n = spec.input_bits().len();
    let mut rng = Rng::seed_from_u64(seed ^ 0x6772_6f75_6e64_7472); // "groundtr"
    let rounds = vectors.div_ceil(64).max(1);
    for r in 0..rounds {
        let inputs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let diff = wide_diff(spec, impl_, &inputs);
        if diff != 0 {
            let lane = diff.trailing_zeros();
            let witness = inputs.iter().map(|m| (m >> lane) & 1 == 1).collect();
            return (Some(witness), (r + 1) * 64);
        }
    }
    (None, rounds * 64)
}

/// Whether `bits` distinguishes the two netlists (bit-level simulation).
fn bits_distinguish(spec: &Netlist, impl_: &Netlist, bits: &[bool]) -> bool {
    let sv = simulate_bits(spec, bits);
    let iv = simulate_bits(impl_, bits);
    spec.output_word()
        .bits
        .iter()
        .zip(&impl_.output_word().bits)
        .any(|(s, i)| sv[s.index()] != iv[i.index()])
}

/// Result of re-simulating an engine's counterexample.
enum CexCheck {
    /// Distinguishes at the bit level; the payload is the bit witness.
    BitWitness(Vec<bool>),
    /// Distinguishes at the word level only (a narrowed input word hides
    /// the high bits of the element) — valid, but no bit witness.
    WordOnly,
    /// Does not distinguish at all.
    Bogus,
}

/// Validates a word-domain counterexample (one `Gf` per input word).
fn check_word_cex(spec: &Netlist, impl_: &Netlist, ctx: &GfContext, cex: &[Gf]) -> CexCheck {
    let mut bits = Vec::new();
    for (w, v) in spec.input_words().iter().zip(cex) {
        let mut vb = ctx.to_bits(v);
        vb.resize(w.width(), false);
        bits.extend(vb);
    }
    if bits_distinguish(spec, impl_, &bits) {
        return CexCheck::BitWitness(bits);
    }
    if simulate_word(spec, ctx, cex) != simulate_word(impl_, ctx, cex) {
        return CexCheck::WordOnly;
    }
    CexCheck::Bogus
}

/// One engine's digested claim about the specimen.
struct Claim {
    engine: &'static str,
    /// `Some(true)` = equivalent, `Some(false)` = inequivalent, `None` =
    /// unknown.
    equal: Option<bool>,
    /// Bit-validated distinguishing assignment, if the engine gave one.
    witness: Option<Vec<bool>>,
    /// The engine's counterexample validated at the word level only.
    word_only_cex: bool,
    /// The engine's counterexample failed validation.
    bogus: Option<String>,
    /// Reason text when `equal` is `None`.
    unknown: Option<String>,
}

impl Claim {
    fn unknown(engine: &'static str, reason: String) -> Claim {
        Claim {
            engine,
            equal: None,
            witness: None,
            word_only_cex: false,
            bogus: None,
            unknown: Some(reason),
        }
    }
}

/// The word-rung `Unknown` policy: whether the word-level engine is
/// expected to reach a verdict on a specimen.
///
/// Pairs produced by a word-level *generator* (every architecture except
/// the structurally-random one) compute genuine word polynomials, so
/// when unfaulted the Case-1 extraction must decide them at any `k` —
/// and comfortably inside any sane work cap. A *faulted* generator pair
/// is still decidable through the Case-2 completion when `k` is small,
/// but only if no external work cap may cut the completion short.
/// Structurally random netlists can legitimately exhaust the Gröbner
/// engine even unfaulted, so nothing is expected of them.
#[must_use]
pub fn word_must_decide(generator: bool, faulted: bool, k: usize, work_cap: Option<u64>) -> bool {
    generator && (!faulted || (k <= 8 && work_cap.is_none()))
}

/// Runs the full three-rung differential oracle on one specimen pair.
///
/// `expect_word_verdict` sets the `Unknown` policy for the word-level
/// rung (see [`word_must_decide`]): when `true`, a word-level `Unknown`
/// is flagged as [`FindingClass::UnexpectedUnknown`]; when `false` it is
/// counted but allowed. A capped-out SAT rung is always allowed.
///
/// # Panics
///
/// Panics if the two netlists disagree on input/output signature — a
/// harness bug, not a specimen bug.
pub fn run_oracle(
    spec: &Netlist,
    impl_: &Netlist,
    ctx: &Arc<GfContext>,
    expect_word_verdict: bool,
    cfg: &OracleConfig,
) -> OracleOutcome {
    let total_bits = spec.input_bits().len();
    assert_eq!(
        total_bits,
        impl_.input_bits().len(),
        "input signature mismatch"
    );

    // Rung 1: simulation ground truth.
    let truth_exhaustive = total_bits <= cfg.exhaustive_bits;
    let (sim_witness, vectors) = if truth_exhaustive {
        exhaustive_diff(spec, impl_)
    } else {
        sampled_diff(spec, impl_, cfg.sample_vectors, cfg.seed)
    };

    // Rung 2: word-level abstraction (deterministic limits only).
    let mut options = ExtractOptions {
        complete_case2: ctx.k() <= 8,
        threads: 1,
        ..ExtractOptions::default()
    };
    if let Some(cap) = cfg.word_work_cap {
        options.budget = BudgetSpec::work(cap);
    }
    let (mut steps, mut gates) = (0u64, 0u64);
    let word_claim = match check_equivalence(spec, impl_, ctx, &options) {
        Ok(report) => {
            steps = report.spec_stats.reduction_steps + report.impl_stats.reduction_steps;
            gates = (report.spec_stats.gates + report.impl_stats.gates) as u64;
            let digest = |cex: Option<&[Gf]>, equal: Option<bool>| match cex {
                Some(c) => match check_word_cex(spec, impl_, ctx, c) {
                    CexCheck::BitWitness(w) => Claim {
                        engine: "word",
                        equal,
                        witness: Some(w),
                        word_only_cex: false,
                        bogus: None,
                        unknown: None,
                    },
                    CexCheck::WordOnly => Claim {
                        engine: "word",
                        equal,
                        witness: None,
                        word_only_cex: true,
                        bogus: None,
                        unknown: None,
                    },
                    CexCheck::Bogus => Claim {
                        engine: "word",
                        equal,
                        witness: None,
                        word_only_cex: false,
                        bogus: Some(format!("counterexample {c:?} fails re-simulation")),
                        unknown: None,
                    },
                },
                None => Claim {
                    engine: "word",
                    equal,
                    witness: None,
                    word_only_cex: false,
                    bogus: None,
                    unknown: None,
                },
            };
            match &report.verdict {
                Verdict::Equivalent { .. } | Verdict::EquivalentBySat { .. } => {
                    digest(None, Some(true))
                }
                Verdict::Inequivalent { counterexample, .. } => {
                    digest(counterexample.as_deref(), Some(false))
                }
                Verdict::InequivalentBySimulation { counterexample }
                | Verdict::InequivalentBySat { counterexample, .. } => {
                    digest(Some(counterexample), Some(false))
                }
                Verdict::Unknown { reason } => Claim::unknown("word", reason.to_string()),
            }
        }
        Err(e) => Claim::unknown("word", format!("error: {e}")),
    };

    // Rung 3: SAT miter under a deterministic conflict cap.
    let sat_report = check_equivalence_sat(spec, impl_, cfg.sat_conflicts);
    let sat_claim = match &sat_report.verdict {
        SatVerdict::Equivalent => Claim {
            engine: "sat",
            equal: Some(true),
            witness: None,
            word_only_cex: false,
            bogus: None,
            unknown: None,
        },
        SatVerdict::Counterexample(bits) => {
            if bits_distinguish(spec, impl_, bits) {
                Claim {
                    engine: "sat",
                    equal: Some(false),
                    witness: Some(bits.clone()),
                    word_only_cex: false,
                    bogus: None,
                    unknown: None,
                }
            } else {
                Claim {
                    engine: "sat",
                    equal: Some(false),
                    witness: None,
                    word_only_cex: false,
                    bogus: Some("SAT model fails re-simulation".to_string()),
                    unknown: None,
                }
            }
        }
        SatVerdict::Unknown(i) => Claim::unknown("sat", i.to_string()),
    };

    // Synthesis: settle the ground truth, then judge each claim.
    let claims = [word_claim, sat_claim];
    let mut truth_differs = sim_witness.is_some();
    let mut witness = sim_witness;
    for c in &claims {
        if c.witness.is_some() || c.word_only_cex {
            truth_differs = true;
        }
        if witness.is_none() {
            witness = c.witness.clone();
        }
    }

    let mut findings = Vec::new();
    let mut word_unknown = false;
    let mut sat_unknown = false;
    for c in &claims {
        if let Some(b) = &c.bogus {
            findings.push(Finding {
                class: FindingClass::BogusCounterexample,
                engine: c.engine,
                detail: b.clone(),
            });
        }
        match c.equal {
            Some(true) if truth_differs => findings.push(Finding {
                class: FindingClass::Escape,
                engine: c.engine,
                detail: "claims equivalent, but the pair demonstrably differs".to_string(),
            }),
            Some(false) if !truth_differs && c.bogus.is_none() => findings.push(Finding {
                class: FindingClass::Disagreement,
                engine: c.engine,
                detail: format!(
                    "claims inequivalent without a witness, but the {} ground truth found none",
                    if truth_exhaustive {
                        "exhaustive"
                    } else {
                        "sampled"
                    }
                ),
            }),
            None => {
                let reason = c.unknown.clone().unwrap_or_default();
                if c.engine == "word" {
                    word_unknown = true;
                    if expect_word_verdict {
                        findings.push(Finding {
                            class: FindingClass::UnexpectedUnknown,
                            engine: "word",
                            detail: format!("unknown ({reason}) where a verdict is expected"),
                        });
                    }
                } else {
                    // A capped-out SAT rung is always an allowed outcome.
                    sat_unknown = true;
                }
            }
            _ => {}
        }
    }

    OracleOutcome {
        truth_differs,
        truth_exhaustive,
        witness,
        findings,
        word_unknown,
        sat_unknown,
        work: [
            (Counter::SimVectors, vectors),
            (Counter::ReductionSteps, steps),
            (Counter::Gates, gates),
            (Counter::Conflicts, sat_report.stats.conflicts),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_circuits::mastrovito_multiplier;
    use gfab_field::nist::irreducible_polynomial;
    use gfab_netlist::mutate;

    fn field(k: usize) -> Arc<GfContext> {
        GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
    }

    #[test]
    fn clean_pair_is_clean() {
        let ctx = field(4);
        let nl = mastrovito_multiplier(&ctx);
        let out = run_oracle(&nl, &nl.clone(), &ctx, true, &OracleConfig::default());
        assert!(!out.truth_differs);
        assert!(out.truth_exhaustive);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(!out.word_unknown);
        assert!(out.work.iter().all(|&(c, _)| c.is_work()));
        // 8 input bits: the exhaustive sweep simulates all 256 vectors.
        assert_eq!(out.work[0], (Counter::SimVectors, 256));
        assert!(out.work_units() > 256);
    }

    #[test]
    fn mutated_pair_is_caught_with_a_valid_witness() {
        let ctx = field(4);
        let spec = mastrovito_multiplier(&ctx);
        let (bad, _) = mutate::inject_random_bug(&spec, 11);
        let out = run_oracle(&spec, &bad, &ctx, true, &OracleConfig::default());
        assert!(out.truth_differs);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let w = out.witness.expect("witness");
        assert!(bits_distinguish(&spec, &bad, &w));
    }

    #[test]
    fn sampled_ground_truth_kicks_in_past_the_exhaustive_cap() {
        let ctx = field(9); // 18 input bits > 16
        let spec = mastrovito_multiplier(&ctx);
        let (bad, _) = mutate::inject_random_bug(&spec, 3);
        // Faulted past the completion range: the word rung need not decide.
        let expect = word_must_decide(true, true, 9, None);
        assert!(!expect);
        let out = run_oracle(&spec, &bad, &ctx, expect, &OracleConfig::default());
        assert!(!out.truth_exhaustive);
        assert!(out.truth_differs);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn oracle_is_deterministic() {
        let ctx = field(5);
        let spec = mastrovito_multiplier(&ctx);
        let (bad, _) = mutate::inject_random_bug(&spec, 5);
        let a = run_oracle(&spec, &bad, &ctx, true, &OracleConfig::default());
        let b = run_oracle(&spec, &bad, &ctx, true, &OracleConfig::default());
        assert_eq!(a.witness, b.witness);
        assert_eq!(a.work, b.work);
        assert_eq!(a.truth_differs, b.truth_differs);
    }
}
