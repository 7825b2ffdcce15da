//! # gfab-fuzz
//!
//! Deterministic fuzzing and fault injection for the GFAB verification
//! stack, with a cross-engine differential oracle and counterexample
//! shrinking.
//!
//! A campaign ([`run_campaign`]) draws specimens from the weighted
//! architecture pool of [`gfab_circuits::registry`] (Mastrovito,
//! flattened Montgomery, squarers, adders, constant multipliers,
//! structurally random netlists over `F_{2^k}`), optionally injects one
//! typed fault ([`fault::FaultKind`]) into the impl side, and judges
//! every specimen with the three-rung differential oracle of
//! [`oracle`]: exhaustive/sampled simulation ground truth, the paper's
//! word-level Gröbner-basis abstraction, and the SAT miter baseline.
//! Any disagreement between the rungs is a *finding*; a detected
//! injected fault is a *catch*. Failing specimens are minimised by the
//! delta-debugging shrinker of [`shrink`] and persisted to a replayable
//! strict-JSON corpus ([`corpus`]).
//!
//! Everything is deterministic: each case derives its own RNG stream
//! from `campaign_seed` and its index, cases are independent, results
//! are collected in index order (work-stealing via
//! [`gfab_core::pool::run_indexed`] — the same scheduler the batch
//! verification engine runs on), and no wall-clock measurement
//! participates in any verdict. The same seed produces byte-identical
//! summaries and corpora at any worker count; wall-clock deadlines can
//! only *skip* whole cases (counted in the summary), never change a
//! case's outcome.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fault;
pub mod oracle;
pub mod shrink;

pub use crate::corpus::CorpusCase;
pub use crate::fault::{Fault, FaultKind, ALL_FAULTS};
pub use crate::oracle::{Finding, FindingClass, OracleConfig};
pub use crate::shrink::{ShrinkConfig, ShrinkResult};

use crate::fault::{alternate_modulus, inject_structural};
use crate::oracle::run_oracle;
use crate::shrink::shrink_pair;
use gfab_circuits::{build_pair, choose_arch, Arch};
use gfab_core::pool;
use gfab_field::budget::Budget;
use gfab_field::nist::irreducible_polynomial;
use gfab_field::{ContextCache, Rng};
use gfab_netlist::format::emit;
use gfab_netlist::sim::resolve_threads;
use gfab_netlist::Netlist;
use gfab_telemetry::json::write_json_string;
use gfab_telemetry::{Counter, EventKind, Phase, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign parameters. Everything that can influence a verdict is
/// deterministic; the only wall-clock knob (`deadline`) can merely skip
/// trailing cases.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every case derives its stream from this and its
    /// index.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: usize,
    /// Worker threads (`0` = all available). Results are identical for
    /// every value.
    pub threads: usize,
    /// Smallest field degree to draw.
    pub k_min: usize,
    /// Largest field degree to draw.
    pub k_max: usize,
    /// Percentage of cases that receive an injected fault (0–100).
    pub fault_rate_pct: u32,
    /// Fault kinds eligible for injection.
    pub fault_kinds: Vec<FaultKind>,
    /// Oracle: exhaustive-simulation input-bit cap.
    pub exhaustive_bits: usize,
    /// Oracle: sampled ground-truth vector count.
    pub sample_vectors: u64,
    /// Oracle: SAT conflict cap.
    pub sat_conflicts: u64,
    /// Oracle: optional work cap for the word-level rung.
    pub word_work_cap: Option<u64>,
    /// Shrinker candidate budget per failing case.
    pub shrink_budget: u64,
    /// Optional campaign wall-clock deadline. Cases that would start
    /// after it are skipped (and counted), not truncated.
    pub deadline: Option<Duration>,
    /// Version string recorded in corpus files.
    pub producer: String,
    /// Telemetry handle (disabled by default).
    pub telemetry: Telemetry,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 100,
            threads: 0,
            k_min: 4,
            k_max: 8,
            fault_rate_pct: 50,
            fault_kinds: ALL_FAULTS.to_vec(),
            exhaustive_bits: 16,
            sample_vectors: 4096,
            sat_conflicts: 20_000,
            word_work_cap: Some(20_000),
            shrink_budget: 3000,
            deadline: None,
            producer: "gfab-fuzz".to_string(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A case's final classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseClass {
    /// Unfaulted, all rungs agree the pair is equivalent.
    Clean,
    /// Faulted, and the oracle demonstrated the difference.
    Caught,
    /// Faulted, but the fault did not change the computed function
    /// (e.g. a stuck-at on an already-constant net).
    Benign,
    /// At least one cross-engine finding — the campaign fails.
    Finding,
    /// Skipped: the campaign deadline expired before the case started.
    Skipped,
}

impl CaseClass {
    /// Stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CaseClass::Clean => "clean",
            CaseClass::Caught => "caught",
            CaseClass::Benign => "benign",
            CaseClass::Finding => "finding",
            CaseClass::Skipped => "skipped",
        }
    }
}

/// The full record of one fuzz case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case index within the campaign.
    pub index: usize,
    /// Field degree (0 when skipped).
    pub k: usize,
    /// Architecture drawn (`None` when skipped).
    pub arch: Option<Arch>,
    /// Injected fault, if any.
    pub fault: Option<Fault>,
    /// Classification.
    pub class: CaseClass,
    /// Oracle findings (empty unless `class == Finding`).
    pub findings: Vec<Finding>,
    /// The word rung answered `Unknown` (allowed on faulted `k > 8`).
    pub word_unknown: bool,
    /// The SAT rung capped out.
    pub sat_unknown: bool,
    /// Deterministic work units (oracle + shrink candidates).
    pub work_units: u64,
    /// Replayable corpus entry for caught/finding cases.
    pub corpus: Option<CorpusCase>,
}

/// Aggregated, deterministic campaign summary.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Campaign seed.
    pub seed: u64,
    /// Cases requested.
    pub cases: u64,
    /// Cases actually run.
    pub completed: u64,
    /// Cases skipped by the deadline.
    pub skipped: u64,
    /// Cases that received a fault.
    pub faulted: u64,
    /// Faulted cases the oracle caught.
    pub caught: u64,
    /// Faulted cases whose fault was function-preserving.
    pub benign: u64,
    /// Unfaulted cases that verified clean.
    pub clean: u64,
    /// Total cross-engine findings.
    pub findings: u64,
    /// Word-rung unknowns (allowed ones included).
    pub word_unknown: u64,
    /// SAT-rung cap-outs.
    pub sat_unknown: u64,
    /// Total deterministic work units.
    pub work_units: u64,
    /// Shrink candidates evaluated across all failing cases.
    pub shrink_steps: u64,
    /// Largest shrunk pair, in gates.
    pub max_shrunk_gates: u64,
    /// Per-architecture coverage: cases / faulted / caught / findings.
    pub per_arch: BTreeMap<String, [u64; 4]>,
    /// Per-fault-kind coverage: injected / caught / benign / findings.
    pub per_fault: BTreeMap<String, [u64; 4]>,
}

impl Summary {
    fn from_results(cfg: &FuzzConfig, results: &[CaseResult]) -> Summary {
        let mut s = Summary {
            seed: cfg.seed,
            cases: cfg.cases as u64,
            ..Summary::default()
        };
        for r in results {
            if r.class == CaseClass::Skipped {
                s.skipped += 1;
                continue;
            }
            s.completed += 1;
            s.word_unknown += u64::from(r.word_unknown);
            s.sat_unknown += u64::from(r.sat_unknown);
            s.work_units += r.work_units;
            s.findings += r.findings.len() as u64;
            match r.class {
                CaseClass::Clean => s.clean += 1,
                CaseClass::Caught => s.caught += 1,
                CaseClass::Benign => s.benign += 1,
                _ => {}
            }
            if let Some(f) = &r.fault {
                s.faulted += 1;
                let e = s.per_fault.entry(f.kind.name().to_string()).or_default();
                e[0] += 1;
                e[1] += u64::from(r.class == CaseClass::Caught);
                e[2] += u64::from(r.class == CaseClass::Benign);
                e[3] += r.findings.len() as u64;
            }
            if let Some(a) = r.arch {
                let e = s.per_arch.entry(a.name().to_string()).or_default();
                e[0] += 1;
                e[1] += u64::from(r.fault.is_some());
                e[2] += u64::from(r.class == CaseClass::Caught);
                e[3] += r.findings.len() as u64;
            }
            if let Some(c) = &r.corpus {
                s.shrink_steps += c.shrink_steps;
                s.max_shrunk_gates = s.max_shrunk_gates.max(c.shrunk_gates);
            }
        }
        s
    }

    /// Canonical single-line JSON rendering: a pure function of the
    /// campaign configuration and verdicts (no wall times, no
    /// machine-dependent values), so byte comparison across runs and
    /// thread counts is meaningful.
    #[must_use]
    pub fn canonical_json(&self, producer: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"gfab-fuzz-summary\",\"producer\":");
        write_json_string(&mut out, producer);
        let _ = write!(
            out,
            ",\"seed\":{},\"cases\":{},\"completed\":{},\"skipped\":{}",
            self.seed, self.cases, self.completed, self.skipped
        );
        let _ = write!(
            out,
            ",\"faulted\":{},\"caught\":{},\"benign\":{},\"clean\":{},\"findings\":{}",
            self.faulted, self.caught, self.benign, self.clean, self.findings
        );
        let _ = write!(
            out,
            ",\"word_unknown\":{},\"sat_unknown\":{},\"work_units\":{}",
            self.word_unknown, self.sat_unknown, self.work_units
        );
        let _ = write!(
            out,
            ",\"shrink_steps\":{},\"max_shrunk_gates\":{}",
            self.shrink_steps, self.max_shrunk_gates
        );
        let table =
            |out: &mut String, key: &str, map: &BTreeMap<String, [u64; 4]>, cols: [&str; 4]| {
                let _ = write!(out, ",\"{key}\":{{");
                for (i, (name, row)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, name);
                    out.push_str(":{");
                    for (j, col) in cols.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{col}\":{}", row[j]);
                    }
                    out.push('}');
                }
                out.push('}');
            };
        table(
            &mut out,
            "per_arch",
            &self.per_arch,
            ["cases", "faulted", "caught", "findings"],
        );
        table(
            &mut out,
            "per_fault",
            &self.per_fault,
            ["injected", "caught", "benign", "findings"],
        );
        out.push('}');
        out
    }
}

/// A finished campaign: per-case records, the deterministic summary, and
/// the (non-deterministic, report-only) wall time.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-case results, in index order.
    pub cases: Vec<CaseResult>,
    /// The aggregate summary.
    pub summary: Summary,
    /// Wall time of the whole campaign (never part of any verdict).
    pub wall: Duration,
}

impl CampaignReport {
    /// The corpus entries of all failing cases, in index order.
    #[must_use]
    pub fn corpus_entries(&self) -> Vec<&CorpusCase> {
        self.cases
            .iter()
            .filter_map(|c| c.corpus.as_ref())
            .collect()
    }
}

/// Splitmix-style per-case seed derivation: decorrelates neighbouring
/// indices while staying a pure function of `(seed, index)`.
#[must_use]
pub fn case_seed(campaign_seed: u64, index: usize) -> u64 {
    campaign_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn skipped_case(index: usize) -> CaseResult {
    CaseResult {
        index,
        k: 0,
        arch: None,
        fault: None,
        class: CaseClass::Skipped,
        findings: Vec::new(),
        word_unknown: false,
        sat_unknown: false,
        work_units: 0,
        corpus: None,
    }
}

/// Tries to inject a fault, rotating through the enabled kinds from a
/// random starting offset until one has an eligible site. Returns the
/// (possibly regenerated) impl and the fault, or `None` when no enabled
/// kind applies to this specimen.
fn inject_fault(
    cfg: &FuzzConfig,
    arch: Arch,
    k: usize,
    gen_seed: u64,
    impl_: &Netlist,
    cache: &ContextCache,
    rng: &mut Rng,
) -> Option<(Netlist, Fault)> {
    let start = rng.random_range(0..cfg.fault_kinds.len());
    for off in 0..cfg.fault_kinds.len() {
        let kind = cfg.fault_kinds[(start + off) % cfg.fault_kinds.len()];
        if kind == FaultKind::WrongModulus {
            if !arch.modulus_sensitive() {
                continue;
            }
            let Some(alt) = alternate_modulus(k) else {
                continue;
            };
            let detail = format!(
                "impl built over {} instead of {}",
                alt,
                irreducible_polynomial(k).expect("k >= 2")
            );
            let alt_ctx = cache.get(&alt).expect("alternate modulus is irreducible");
            let (_, alt_impl) = build_pair(arch, &alt_ctx, gen_seed);
            return Some((alt_impl, Fault { kind, detail }));
        }
        if let Some(found) = inject_structural(impl_, kind, rng) {
            return Some(found);
        }
    }
    None
}

/// Runs one fuzz case. Pure in `(cfg, index)` apart from the deadline
/// check, which can only turn the whole case into a skip.
fn run_case(cfg: &FuzzConfig, cache: &ContextCache, budget: &Budget, index: usize) -> CaseResult {
    if budget.check().is_err() {
        return skipped_case(index);
    }
    let seed = case_seed(cfg.seed, index);
    let mut rng = Rng::seed_from_u64(seed);
    let mut span = cfg
        .telemetry
        .span_labeled(Phase::FuzzCase, &format!("case-{index}"));

    // Draw the specimen.
    let k = cfg.k_min + rng.random_range(0..cfg.k_max - cfg.k_min + 1);
    let arch = choose_arch(&mut rng, k);
    let modulus = irreducible_polynomial(k).expect("k >= 2");
    let ctx = cache.get(&modulus).expect("canonical modulus");
    let gen_seed = rng.next_u64();
    let (spec, impl_clean) = build_pair(arch, &ctx, gen_seed);

    let want_fault = cfg.fault_rate_pct > 0
        && !cfg.fault_kinds.is_empty()
        && rng.random_range(0..100) < cfg.fault_rate_pct as usize;
    let (impl_, fault) = if want_fault {
        match inject_fault(cfg, arch, k, gen_seed, &impl_clean, cache, &mut rng) {
            Some((nl, f)) => (nl, Some(f)),
            None => (impl_clean, None),
        }
    } else {
        (impl_clean, None)
    };

    // Judge it.
    let oracle_cfg = OracleConfig {
        exhaustive_bits: cfg.exhaustive_bits,
        sample_vectors: cfg.sample_vectors,
        sat_conflicts: cfg.sat_conflicts,
        word_work_cap: cfg.word_work_cap,
        seed,
    };
    let expect_verdict =
        oracle::word_must_decide(arch != Arch::Random, fault.is_some(), k, cfg.word_work_cap);
    let mut outcome = run_oracle(&spec, &impl_, &ctx, expect_verdict, &oracle_cfg);
    if fault.is_none() && outcome.truth_differs {
        // An unfaulted generator pair that differs is a generator bug —
        // as serious as any engine disagreement.
        outcome.findings.push(Finding {
            class: FindingClass::Disagreement,
            engine: "generator",
            detail: "unfaulted spec/impl pair computes different functions".to_string(),
        });
    }
    let class = if !outcome.findings.is_empty() {
        CaseClass::Finding
    } else if fault.is_some() && outcome.truth_differs {
        CaseClass::Caught
    } else if fault.is_some() {
        CaseClass::Benign
    } else {
        CaseClass::Clean
    };

    // The oracle's work lands on the case span counter by counter, so
    // the campaign trace carries exactly the summary's work units.
    for &(counter, value) in &outcome.work {
        span.counter(counter, value);
    }

    // Shrink failing specimens and build their corpus entry.
    let mut work_units = outcome.work_units();
    let corpus = if matches!(class, CaseClass::Caught | CaseClass::Finding) {
        let original_gates = (spec.num_gates() + impl_.num_gates()) as u64;
        let shrunk = outcome.witness.as_ref().map(|w| {
            let mut shrink_span = cfg
                .telemetry
                .span_labeled(Phase::Shrink, &format!("case-{index}"));
            let r = shrink_pair(
                &spec,
                &impl_,
                w,
                &ShrinkConfig {
                    max_candidates: cfg.shrink_budget,
                },
            );
            shrink_span.counter(Counter::ShrinkSteps, r.candidates);
            let _ = shrink_span.finish();
            r
        });
        let (spec_text, impl_text, witness, shrunk_gates, shrink_steps) = match &shrunk {
            Some(r) => (
                emit(&r.spec),
                emit(&r.impl_),
                r.witness
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect(),
                r.total_gates() as u64,
                r.candidates,
            ),
            // No bit witness (word-only counterexample or a pure verdict
            // disagreement): persist the unshrunk pair.
            None => (emit(&spec), emit(&impl_), String::new(), original_gates, 0),
        };
        work_units += shrink_steps;
        Some(CorpusCase {
            producer: cfg.producer.clone(),
            campaign_seed: cfg.seed,
            case_index: index as u64,
            k: k as u64,
            modulus: modulus.exponents().map(|e| e as u64).collect(),
            arch: arch.name().to_string(),
            fault_kind: fault.as_ref().map(|f| f.kind.name().to_string()),
            fault_detail: fault.as_ref().map(|f| f.detail.clone()),
            classification: if class == CaseClass::Caught {
                "caught".to_string()
            } else {
                "finding".to_string()
            },
            findings: outcome.findings.iter().map(Finding::to_string).collect(),
            witness,
            original_gates,
            shrunk_gates,
            shrink_steps,
            spec: spec_text,
            impl_: impl_text,
        })
    } else {
        None
    };

    span.counter(Counter::FuzzCases, 1);
    span.counter(Counter::FaultsInjected, u64::from(fault.is_some()));
    span.counter(Counter::FuzzCaught, u64::from(class == CaseClass::Caught));
    span.counter(Counter::FuzzFindings, outcome.findings.len() as u64);
    let _ = span.finish();

    CaseResult {
        index,
        k,
        arch: Some(arch),
        fault,
        class,
        findings: outcome.findings,
        word_unknown: outcome.word_unknown,
        sat_unknown: outcome.sat_unknown,
        work_units,
        corpus,
    }
}

/// Runs a full campaign: `cfg.cases` independent cases on the shared
/// work-stealing pool, collected in index order.
#[must_use]
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let start = Instant::now();
    let budget = match cfg.deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    };
    let cache = ContextCache::new(64);
    let workers = resolve_threads(cfg.threads);
    let cases = pool::run_indexed(workers, cfg.cases, |worker, i| {
        // Live per-case lifecycle, mirroring the batch engine's
        // query-start/query-done events (no-ops on a disabled bus).
        let events = cfg.telemetry.events();
        events.publish(EventKind::QueryStart {
            query: format!("case-{i}"),
            worker: worker as u64,
        });
        let case_start = Instant::now();
        let result = run_case(cfg, &cache, &budget, i);
        events.publish(EventKind::QueryDone {
            query: format!("case-{i}"),
            verdict: result.class.name().to_string(),
            exit: u64::from(result.class == CaseClass::Finding),
            wall_us: case_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            worker: worker as u64,
        });
        result
    });
    let summary = Summary::from_results(cfg, &cases);
    CampaignReport {
        cases,
        summary,
        wall: start.elapsed(),
    }
}

/// Outcome of replaying a corpus case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// The recorded classification still reproduces.
    Reproduced,
    /// It no longer reproduces; the payload says what changed.
    NotReproduced(String),
}

/// Re-runs the oracle on a persisted corpus case and checks that the
/// recorded classification still holds: a `"caught"` case must still
/// demonstrably differ (including on its recorded witness) with no new
/// findings, and a `"finding"` case must still produce at least one
/// finding.
///
/// # Errors
///
/// Malformed case data: unparsable netlists, an unknown classification,
/// or a non-irreducible modulus.
pub fn replay_case(case: &CorpusCase, cfg: &FuzzConfig) -> Result<ReplayVerdict, String> {
    let modulus = gfab_field::Gf2Poly::from_exponents(
        &case.modulus.iter().map(|&e| e as usize).collect::<Vec<_>>(),
    );
    let ctx: Arc<_> = gfab_field::GfContext::shared(modulus).map_err(|e| e.to_string())?;
    let spec = gfab_netlist::format::parse(&case.spec).map_err(|e| format!("spec: {e}"))?;
    let impl_ = gfab_netlist::format::parse(&case.impl_).map_err(|e| format!("impl: {e}"))?;
    let oracle_cfg = OracleConfig {
        exhaustive_bits: cfg.exhaustive_bits,
        sample_vectors: cfg.sample_vectors,
        sat_conflicts: cfg.sat_conflicts,
        word_work_cap: cfg.word_work_cap,
        seed: case_seed(case.campaign_seed, case.case_index as usize),
    };
    let witness = case.witness_bits();
    if !witness.is_empty() {
        if witness.len() != spec.input_bits().len() {
            return Err("witness length does not match the netlist".to_string());
        }
        let sv = gfab_netlist::sim::simulate_bits(&spec, &witness);
        let iv = gfab_netlist::sim::simulate_bits(&impl_, &witness);
        let distinguishes = spec
            .output_word()
            .bits
            .iter()
            .zip(&impl_.output_word().bits)
            .any(|(s, i)| sv[s.index()] != iv[i.index()]);
        if !distinguishes {
            return Ok(ReplayVerdict::NotReproduced(
                "recorded witness no longer distinguishes the pair".to_string(),
            ));
        }
    }
    let expect_verdict = oracle::word_must_decide(
        case.arch != Arch::Random.name(),
        case.fault_kind.is_some(),
        case.k as usize,
        cfg.word_work_cap,
    );
    let outcome = run_oracle(&spec, &impl_, &ctx, expect_verdict, &oracle_cfg);
    match case.classification.as_str() {
        "caught" => {
            if !outcome.truth_differs {
                Ok(ReplayVerdict::NotReproduced(
                    "oracle no longer distinguishes the pair".to_string(),
                ))
            } else if !outcome.findings.is_empty() {
                Ok(ReplayVerdict::NotReproduced(format!(
                    "replay produced new findings: {}",
                    outcome.findings[0]
                )))
            } else {
                Ok(ReplayVerdict::Reproduced)
            }
        }
        "finding" => {
            if outcome.findings.is_empty() {
                Ok(ReplayVerdict::NotReproduced(
                    "no finding on replay".to_string(),
                ))
            } else {
                Ok(ReplayVerdict::Reproduced)
            }
        }
        other => Err(format!("unknown classification {other:?}")),
    }
}

/// Writes every corpus entry of `report` into `dir` (created if
/// missing), one strict-JSON file per case, and returns the file names
/// written in index order.
///
/// # Errors
///
/// Any I/O error, with the offending path named.
pub fn write_corpus(dir: &std::path::Path, report: &CampaignReport) -> Result<Vec<String>, String> {
    let entries = report.corpus_entries();
    if entries.is_empty() {
        return Ok(Vec::new());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names = Vec::new();
    for case in entries {
        let name = case.file_name();
        let path = dir.join(&name);
        std::fs::write(&path, case.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        names.push(name);
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, threads: usize) -> (FuzzConfig, CampaignReport) {
        let cfg = FuzzConfig {
            seed,
            cases: 12,
            threads,
            k_min: 3,
            k_max: 5,
            // A tight work cap keeps debug-build runs quick; determinism
            // and the catch/shrink contracts do not depend on its value.
            word_work_cap: Some(2_000),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        (cfg, report)
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let (cfg, a) = tiny(7, 1);
        let (_, b) = tiny(7, 4);
        assert_eq!(
            a.summary.canonical_json(&cfg.producer),
            b.summary.canonical_json(&cfg.producer)
        );
        let ac: Vec<String> = a.corpus_entries().iter().map(|c| c.to_json()).collect();
        let bc: Vec<String> = b.corpus_entries().iter().map(|c| c.to_json()).collect();
        assert_eq!(ac, bc);
    }

    #[test]
    fn faulted_cases_are_caught_and_clean_cases_stay_clean() {
        let (_, report) = tiny(3, 0);
        assert_eq!(report.summary.findings, 0, "{:?}", report.summary);
        assert_eq!(report.summary.skipped, 0);
        // Catches must shrink and carry replayable corpus entries.
        for case in report.corpus_entries() {
            assert_eq!(case.classification, "caught");
            assert!(!case.witness.is_empty());
            assert!(
                case.shrunk_gates <= 25,
                "case {}: {} gates",
                case.case_index,
                case.shrunk_gates
            );
        }
    }

    #[test]
    fn corpus_cases_replay() {
        let cfg = FuzzConfig {
            seed: 5,
            cases: 16,
            k_min: 3,
            k_max: 6,
            fault_rate_pct: 100,
            word_work_cap: Some(2_000),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        let entries = report.corpus_entries();
        assert!(!entries.is_empty(), "no catches at 100% fault rate");
        for case in entries {
            let round = CorpusCase::from_json(&case.to_json()).unwrap();
            assert_eq!(
                replay_case(&round, &cfg).unwrap(),
                ReplayVerdict::Reproduced,
                "case {}",
                case.case_index
            );
        }
    }

    #[test]
    fn zero_fault_rate_produces_no_catches() {
        let cfg = FuzzConfig {
            seed: 11,
            cases: 10,
            k_min: 3,
            k_max: 5,
            fault_rate_pct: 0,
            word_work_cap: Some(2_000),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.summary.caught, 0);
        assert_eq!(report.summary.faulted, 0);
        assert_eq!(report.summary.findings, 0);
        assert_eq!(report.summary.clean, 10);
    }

    #[test]
    fn expired_deadline_skips_cases_deterministically() {
        let cfg = FuzzConfig {
            seed: 2,
            cases: 6,
            deadline: Some(Duration::ZERO),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.summary.skipped, 6);
        assert_eq!(report.summary.completed, 0);
    }
}
