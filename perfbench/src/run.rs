//! One untraced query: `Verifier::check` on one thread, timed, with its
//! verdict judged against the known answer.

use crate::alloc;
use crate::inputs::{Expect, Impl, Query, Setup};
use gfab::core::equiv::Verdict;
use gfab::field::{Gf, Rng};
use gfab::netlist::sim::simulate_word;
use gfab::Verifier;
use std::time::Instant;

/// Random points at which an `Equivalent` verdict's function is checked
/// against `GfContext::mul`.
const EVAL_POINTS: usize = 4;

/// Which step of the program's verdict ladder decided a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Canonical word-level polynomials (Case 1 or Case 2).
    Word,
    /// A simulation sweep found a distinguishing input.
    Sim,
    /// The SAT miter fallback.
    Sat,
    /// No verdict: `Unknown` or an error. Counts as a failed operation.
    Unknown,
}

impl Step {
    fn code(self) -> u64 {
        self as u64
    }
}

/// The ladder step behind a verdict.
fn step_of(verdict: &Verdict) -> Step {
    match verdict {
        Verdict::Equivalent { .. } | Verdict::Inequivalent { .. } => Step::Word,
        Verdict::InequivalentBySimulation { .. } => Step::Sim,
        Verdict::EquivalentBySat { .. } | Verdict::InequivalentBySat { .. } => Step::Sat,
        Verdict::Unknown { .. } => Step::Unknown,
    }
}

/// What one untraced query did.
#[derive(Debug, Clone)]
pub struct Record {
    pub seconds: f64,
    pub step: Step,
    pub spec_steps: u64,
    pub impl_steps: u64,
    pub spec_peak_terms: usize,
    pub impl_peak_terms: usize,
    /// SAT conflicts, when the SAT rung ran.
    pub sat_conflicts: Option<u64>,
    /// Live heap during the query above its level at the start.
    pub heap_growth: u64,
    /// Live heap peak during the query, inputs included.
    pub heap_peak: u64,
    /// A correctness check that failed without contradicting the known
    /// answer (e.g. an inequivalence verdict without a counterexample).
    pub problem: Option<String>,
}

impl Record {
    /// The fields that must repeat exactly from round to round and run to
    /// run at one seed.
    fn fingerprint_fields(&self) -> [u64; 6] {
        [
            self.step.code(),
            self.spec_steps,
            self.impl_steps,
            self.spec_peak_terms as u64,
            self.impl_peak_terms as u64,
            self.heap_growth,
        ]
    }
}

/// A verdict that contradicts the known answer: the run must stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsound(pub String);

/// Runs `Verifier::check` for `q` on one thread and judges the verdict.
///
/// # Errors
///
/// [`Unsound`] when the verdict contradicts the known answer or its
/// evidence is wrong.
pub fn run_query(q: &Query, setup: &Setup) -> Result<Record, Unsound> {
    let ctx = setup.ctx(q.k);
    let verifier = Verifier::new(ctx).threads(1);
    let spec = &setup.netlists[q.spec];
    let base = alloc::live();
    alloc::set_peak(base);
    let start = Instant::now();
    let result = match q.impl_ {
        Impl::Flat(i) => verifier.check(spec, &setup.netlists[i]),
        Impl::Hier => verifier.check(spec, setup.hier.as_ref().expect("hier workload")),
    };
    let seconds = start.elapsed().as_secs_f64();
    let heap_peak = alloc::peak();
    let mut record = Record {
        seconds,
        step: Step::Unknown,
        spec_steps: 0,
        impl_steps: 0,
        spec_peak_terms: 0,
        impl_peak_terms: 0,
        sat_conflicts: None,
        heap_growth: heap_peak - base,
        heap_peak,
        problem: None,
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            record.problem = Some(format!("{}: error {e}", q.label));
            return Ok(record);
        }
    };
    record.step = step_of(&report.verdict);
    record.spec_steps = report.spec_stats.reduction_steps;
    record.impl_steps = report.impl_stats.reduction_steps;
    record.spec_peak_terms = report.spec_stats.peak_terms;
    record.impl_peak_terms = report.impl_stats.peak_terms;
    record.sat_conflicts = report.sat.map(|s| s.conflicts);
    record.problem = judge(q, setup, &report.verdict)?;
    Ok(record)
}

/// Checks `verdict` against the known answer of `q`.
///
/// Returns a non-fatal problem (missing evidence) or `None`.
///
/// # Errors
///
/// [`Unsound`] when the verdict contradicts the known answer, when an
/// `Equivalent` function disagrees with field multiplication, or when a
/// counterexample does not distinguish the two netlists.
fn judge(q: &Query, setup: &Setup, verdict: &Verdict) -> Result<Option<String>, Unsound> {
    let unsound = |what: String| Err(Unsound(format!("{}: {what}", q.label)));
    let ctx = setup.ctx(q.k);
    if matches!(verdict, Verdict::Unknown { .. }) {
        return Ok(Some(format!("{}: {verdict:?}", q.label)));
    }
    let said_equivalent = verdict.is_equivalent();
    if said_equivalent != (q.expect == Expect::Equivalent) {
        return unsound(format!(
            "verdict {} contradicts the known answer {:?}",
            describe(verdict),
            q.expect
        ));
    }
    if let Verdict::Equivalent { function } = verdict {
        // Both sides of every query multiply, so the shared function must.
        let mut rng = Rng::seed_from_u64(q.k as u64);
        for _ in 0..EVAL_POINTS {
            let (a, b) = (ctx.random(&mut rng), ctx.random(&mut rng));
            if function.eval(&[a.clone(), b.clone()]) != ctx.mul(&a, &b) {
                return unsound(format!("function {} is not A*B", function.display()));
            }
        }
        return Ok(None);
    }
    if said_equivalent {
        return Ok(None);
    }
    let Some(cex) = verdict.counterexample() else {
        return Ok(Some(format!(
            "{}: inequivalence without a counterexample",
            q.label
        )));
    };
    let Impl::Flat(i) = q.impl_ else {
        return unsound("the hierarchical design has no faults".into());
    };
    let spec_out: Gf = simulate_word(&setup.netlists[q.spec], ctx, cex);
    let impl_out: Gf = simulate_word(&setup.netlists[i], ctx, cex);
    if spec_out == impl_out {
        return unsound(format!(
            "counterexample {cex:?} does not distinguish the netlists"
        ));
    }
    Ok(None)
}

fn describe(v: &Verdict) -> &'static str {
    match v {
        Verdict::Equivalent { .. } => "Equivalent",
        Verdict::Inequivalent { .. } => "Inequivalent",
        Verdict::InequivalentBySimulation { .. } => "InequivalentBySimulation",
        Verdict::EquivalentBySat { .. } => "EquivalentBySat",
        Verdict::InequivalentBySat { .. } => "InequivalentBySat",
        Verdict::Unknown { .. } => "Unknown",
    }
}

/// FNV-1a over the fingerprint fields of a round's records.
pub fn fingerprint(records: &[Record]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for field in r.fingerprint_fields() {
            for byte in field.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;

    #[test]
    fn every_flipped_known_answer_is_unsound() {
        let inputs = generate("bug-hunt", 11).unwrap();
        let (setup, _) = Setup::build(&inputs);
        let mut checked = 0;
        for q in inputs.queries.iter().filter(|q| q.k <= 3) {
            let rec = run_query(q, &setup).expect("true known answer is accepted");
            assert_ne!(rec.step, Step::Unknown, "{}", q.label);
            let mut planted = q.clone();
            planted.expect = match q.expect {
                Expect::Equivalent => Expect::Inequivalent,
                Expect::Inequivalent => Expect::Equivalent,
            };
            let err = run_query(&planted, &setup).expect_err("planted answer must abort");
            assert!(err.0.contains("contradicts the known answer"), "{}", err.0);
            checked += 1;
        }
        assert!(checked >= 10);
    }

    #[test]
    fn a_counterexample_that_does_not_distinguish_is_unsound() {
        let inputs = generate("bug-hunt", 11).unwrap();
        let (setup, _) = Setup::build(&inputs);
        let q = inputs
            .queries
            .iter()
            .find(|q| q.k == 3 && q.expect == Expect::Inequivalent)
            .unwrap();
        let ctx = setup.ctx(3);
        let agree = ctx
            .iter_elements()
            .flat_map(|a| ctx.iter_elements().map(move |b| vec![a.clone(), b]))
            .find(|w| {
                let Impl::Flat(i) = q.impl_ else {
                    unreachable!()
                };
                simulate_word(&setup.netlists[q.spec], ctx, w)
                    == simulate_word(&setup.netlists[i], ctx, w)
            })
            .expect("some input is unaffected by the fault");
        let bogus = Verdict::InequivalentBySimulation {
            counterexample: agree,
        };
        assert!(judge(q, &setup, &bogus).is_err());
    }
}
