//! Miter-based equivalence checking: the SAT baseline of Section 6.

use crate::cnf::Lit;
use crate::solver::{Interrupt, SolveResult, Solver, SolverStats};
use crate::tseitin::encode_budgeted;
use gfab_field::budget::Budget;
use gfab_netlist::miter::build_miter;
use gfab_netlist::Netlist;
use gfab_telemetry::{Counter, Hist, HistData, Phase, Telemetry};

/// Verdict of the SAT-based miter check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatVerdict {
    /// The miter is UNSAT: the circuits are equivalent.
    Equivalent,
    /// The miter is SAT: a distinguishing input assignment (bits of all
    /// input words, in [`Netlist::input_bits`] order).
    Counterexample(Vec<bool>),
    /// A resource ran out — the paper's "cannot prove equivalence within
    /// 24 hours" cell. The payload says *which* resource ended the run
    /// (conflict budget vs. wall clock / cancellation).
    Unknown(Interrupt),
}

/// Report of a SAT equivalence run.
#[derive(Debug, Clone)]
pub struct SatReport {
    /// The verdict.
    pub verdict: SatVerdict,
    /// Solver statistics.
    pub stats: SolverStats,
    /// Number of CNF variables of the miter.
    pub cnf_vars: u32,
    /// Number of CNF clauses of the miter.
    pub cnf_clauses: usize,
}

/// Builds the Spec/Impl miter, encodes it, asserts the output and solves
/// within `conflict_budget` conflicts: the plain entry point of
/// [`check_equivalence_sat_traced`] (no budget, telemetry off).
///
/// # Panics
///
/// Panics if the two netlists have incompatible interfaces (see
/// [`build_miter`]).
pub fn check_equivalence_sat(spec: &Netlist, impl_: &Netlist, conflict_budget: u64) -> SatReport {
    let (budget, tele) = (Budget::unlimited(), Telemetry::disabled());
    check_equivalence_sat_traced(spec, impl_, conflict_budget, &budget, &tele)
}

/// The miter check under a shared cooperative [`Budget`] (deadline /
/// cancellation token), polled in the solver's conflict and propagate
/// loops — the fallback rung of the `Verifier` ladder, which inherits
/// whatever wall clock the word-level phase left over. Miter
/// construction, Tseitin encoding, solver construction and the CDCL
/// search each record a span (with CNF-size and search-effort counters)
/// under `tele`'s current span.
///
/// # Panics
///
/// Panics if the two netlists have incompatible interfaces.
pub fn check_equivalence_sat_traced(
    spec: &Netlist,
    impl_: &Netlist,
    conflict_budget: u64,
    budget: &Budget,
    tele: &Telemetry,
) -> SatReport {
    // Entry poll before the (unpolled) miter construction and Tseitin
    // encoding: a budget that is already spent must not pay for either.
    if let Err(e) = budget.check() {
        return SatReport {
            verdict: SatVerdict::Unknown(Interrupt::Budget(e.reason)),
            stats: SolverStats::default(),
            cnf_vars: 0,
            cnf_clauses: 0,
        };
    }
    let miter_span = tele.span(Phase::MiterBuild);
    let miter = build_miter(spec, impl_);
    let _ = miter_span.finish();
    let mut encode_span = tele.span(Phase::TseitinEncode);
    let enc = match encode_budgeted(&miter, budget) {
        Ok(enc) => enc,
        Err(e) => {
            return SatReport {
                verdict: SatVerdict::Unknown(Interrupt::Budget(e.reason)),
                stats: SolverStats::default(),
                cnf_vars: 0,
                cnf_clauses: 0,
            }
        }
    };
    let mut cnf = enc.cnf;
    let neq = miter.output_word().bits[0];
    cnf.add_clause(vec![Lit::pos(enc.var_of[neq.index()])]);
    let cnf_vars = cnf.num_vars();
    let cnf_clauses = cnf.clauses().len();
    encode_span.counter(Counter::CnfVars, u64::from(cnf_vars));
    encode_span.counter(Counter::CnfClauses, cnf_clauses as u64);
    if encode_span.is_enabled() {
        // Clause-length distribution is cheap relative to encoding but
        // still a full pass over the CNF; only pay for it when traced.
        let mut hist = HistData::new();
        for clause in cnf.clauses() {
            hist.record(clause.len() as u64);
        }
        encode_span.observe_hist(Hist::CnfClauseLen, &hist);
    }
    let _ = encode_span.finish();
    // Watch-list construction over millions of clauses is itself seconds
    // of work; build the solver under the budget so a deadline that
    // expires here is honoured before the search even starts.
    let build_span = tele.span(Phase::SolverBuild);
    let mut solver = match Solver::new_budgeted(cnf, budget) {
        Ok(s) => s,
        Err(e) => {
            return SatReport {
                verdict: SatVerdict::Unknown(Interrupt::Budget(e.reason)),
                stats: SolverStats::default(),
                cnf_vars,
                cnf_clauses,
            }
        }
    };
    let _ = build_span.finish();
    let mut solve_span = tele.span(Phase::SatSolve);
    let verdict = match solver.solve(conflict_budget) {
        SolveResult::Unsat => SatVerdict::Equivalent,
        SolveResult::Unknown(i) => SatVerdict::Unknown(i),
        SolveResult::Sat(model) => {
            let bits = miter
                .input_bits()
                .iter()
                .map(|n| model[enc.var_of[n.index()] as usize])
                .collect();
            SatVerdict::Counterexample(bits)
        }
    };
    solve_span.counter(Counter::Conflicts, solver.stats.conflicts);
    solve_span.counter(Counter::Decisions, solver.stats.decisions);
    solve_span.counter(Counter::Propagations, solver.stats.propagations);
    solve_span.counter(Counter::Restarts, solver.stats.restarts);
    solve_span.counter(Counter::LearnedClauses, solver.stats.learned);
    let _ = solve_span.finish();
    SatReport {
        verdict,
        stats: solver.stats.clone(),
        cnf_vars,
        cnf_clauses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfab_circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
    use gfab_field::nist::irreducible_polynomial;
    use gfab_field::GfContext;
    use gfab_netlist::mutate::inject_random_bug;
    use gfab_netlist::sim::simulate_bits;

    #[test]
    fn mastrovito_vs_montgomery_small_k() {
        for k in [2usize, 3, 4] {
            let ctx = GfContext::new(irreducible_polynomial(k).unwrap()).unwrap();
            let spec = mastrovito_multiplier(&ctx);
            let impl_ = montgomery_multiplier_hier(
                &GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap(),
            )
            .flatten();
            let report = check_equivalence_sat(&spec, &impl_, u64::MAX);
            assert_eq!(report.verdict, SatVerdict::Equivalent, "k = {k}");
        }
    }

    #[test]
    fn bug_produces_true_counterexample() {
        let ctx = GfContext::new(irreducible_polynomial(3).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let mut found = 0;
        for seed in 0..6 {
            let (bad, _) = inject_random_bug(&spec, seed);
            let report = check_equivalence_sat(&spec, &bad, u64::MAX);
            if let SatVerdict::Counterexample(bits) = &report.verdict {
                found += 1;
                // The assignment must actually distinguish the circuits.
                let zs = simulate_bits(&spec, bits);
                let zb = simulate_bits(&bad, bits);
                let os = &spec.output_word().bits;
                let ob = &bad.output_word().bits;
                let differs = os
                    .iter()
                    .zip(ob)
                    .any(|(&s, &b)| zs[s.index()] != zb[b.index()]);
                assert!(differs, "SAT counterexample must be real");
            }
        }
        assert!(found >= 3, "most mutations must be caught");
    }

    #[test]
    fn tiny_conflict_budget_reports_conflicts_as_the_reason() {
        let ctx = GfContext::new(irreducible_polynomial(6).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let impl_ = montgomery_multiplier_hier(
            &GfContext::shared(irreducible_polynomial(6).unwrap()).unwrap(),
        )
        .flatten();
        let report = check_equivalence_sat(&spec, &impl_, 2);
        // The verdict must say *why* it is unknown: the conflict budget
        // ended the run, not a wall-clock deadline.
        assert_eq!(report.verdict, SatVerdict::Unknown(Interrupt::Conflicts(2)));
    }

    #[test]
    fn exhausted_wall_budget_reports_deadline_as_the_reason() {
        use gfab_field::budget::ExhaustedReason;
        let ctx = GfContext::new(irreducible_polynomial(8).unwrap()).unwrap();
        let spec = mastrovito_multiplier(&ctx);
        let impl_ = montgomery_multiplier_hier(
            &GfContext::shared(irreducible_polynomial(8).unwrap()).unwrap(),
        )
        .flatten();
        // A budget that is already spent: the solver must bail out at its
        // entry poll and name the deadline, not the conflict budget.
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let report =
            check_equivalence_sat_traced(&spec, &impl_, u64::MAX, &budget, &Telemetry::disabled());
        assert_eq!(
            report.verdict,
            SatVerdict::Unknown(Interrupt::Budget(ExhaustedReason::Deadline))
        );
    }
}
