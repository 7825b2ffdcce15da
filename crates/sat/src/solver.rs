//! A compact CDCL solver: two-watched literals, 1UIP learning,
//! activity-based decisions, phase saving, Luby restarts.

use crate::cnf::{Cnf, Lit};
use gfab_field::budget::{Budget, BudgetExceeded, ExhaustedReason};

/// What resource stopped an inconclusive solve — carried by
/// [`SolveResult::Unknown`] so callers can distinguish "ran out of
/// conflicts" from "ran out of wall clock" (or an external cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The per-call conflict budget (its value) was exhausted.
    Conflicts(u64),
    /// The cooperative [`Budget`] stopped the solver.
    Budget(ExhaustedReason),
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Conflicts(n) => write!(f, "conflict budget ({n}) exhausted"),
            Interrupt::Budget(r) => write!(f, "{r} exhausted"),
        }
    }
}

/// Outcome of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a full model (`model[v]` = value of variable v).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// A resource budget ran out before a decision was reached; the payload
    /// says which one.
    Unknown(Interrupt),
}

/// Solver effort counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted: u64,
}

const INVALID: u32 = u32::MAX;

#[derive(Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// A CDCL SAT solver over a fixed CNF.
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// watches[lit.code()] = indices of clauses watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Assignment: `None` = unassigned, else the variable's value.
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<u32>, // clause index or INVALID
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    saved_phase: Vec<bool>,
    /// Effort counters.
    pub stats: SolverStats,
    ok: bool,
    /// Cooperative budget polled in the propagate and conflict loops.
    budget: Budget,
    /// Set when the budget trips inside `propagate` (which cannot return
    /// the interrupt itself); `solve` checks it after every propagation.
    interrupted: bool,
    /// Index of the first learned clause (original clauses are permanent).
    first_learned: u32,
    /// Per-clause activity (aligned with `clauses`; only meaningful for
    /// learned clauses).
    cla_activity: Vec<f64>,
    cla_inc: f64,
    /// Conflicts after which the learned database is reduced; grows
    /// geometrically after each reduction.
    reduce_limit: u64,
}

impl Solver {
    /// Builds a solver from a CNF formula.
    pub fn new(cnf: Cnf) -> Solver {
        Self::new_budgeted(cnf, &Budget::unlimited()).expect("unlimited budget never trips")
    }

    /// [`Solver::new`] under a cooperative [`Budget`], polled every 65 536
    /// clauses while the watch lists are built — on multi-million-clause
    /// miters the construction itself takes seconds and must be
    /// interruptible. The budget is also attached to the solver (as with
    /// [`Solver::set_budget`]).
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] when the budget trips mid-construction.
    pub fn new_budgeted(cnf: Cnf, budget: &Budget) -> Result<Solver, BudgetExceeded> {
        let num_vars = cnf.num_vars() as usize;
        let mut s = Solver {
            num_vars,
            clauses: Vec::with_capacity(cnf.clauses().len()),
            watches: vec![Vec::new(); 2 * num_vars],
            assign: vec![None; num_vars],
            level: vec![0; num_vars],
            reason: vec![INVALID; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            saved_phase: vec![false; num_vars],
            stats: SolverStats::default(),
            ok: true,
            budget: budget.clone(),
            interrupted: false,
            first_learned: 0,
            cla_activity: Vec::new(),
            cla_inc: 1.0,
            reduce_limit: 8_192,
        };
        for (i, c) in cnf.clauses().iter().enumerate() {
            if i % 65_536 == 0 {
                budget.check()?;
            }
            s.add_clause_internal(c.clone());
            if !s.ok {
                break;
            }
        }
        s.first_learned = s.clauses.len() as u32;
        s.cla_activity = vec![0.0; s.clauses.len()];
        Ok(s)
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| b == l.is_pos())
    }

    fn add_clause_internal(&mut self, lits: Vec<Lit>) {
        match lits.len() {
            0 => self.ok = false,
            1 => match self.value(lits[0]) {
                Some(false) => self.ok = false,
                Some(true) => {}
                None => {
                    self.enqueue(lits[0], INVALID);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
            },
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[lits[0].negate().code()].push(idx);
                self.watches[lits[1].negate().code()].push(idx);
                self.clauses.push(Clause { lits });
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.value(l).is_none());
        let v = l.var() as usize;
        self.assign[v] = Some(l.is_pos());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = l.is_pos();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Poll the cooperative budget in the BCP loop too: on
            // propagation-heavy instances conflicts can be rare, and the
            // conflict-loop poll alone would let a deadline slip far.
            if self.stats.propagations.is_multiple_of(65_536) && self.budget.check().is_err() {
                self.interrupted = true;
                return None;
            }
            // Clauses watching ¬p (i.e. stored under p's code after
            // negation convention): we store watchers under the literal
            // whose *falsification* triggers them, which is the negation of
            // a watched literal. Here `p` became true, so clauses watching
            // `p` (list at p.code()) must be checked — they watch ¬p… we
            // registered clause c under lits[i].negate().code(), so the
            // list at p.code() holds clauses with a watched literal equal
            // to ¬p, which is now false. Correct.
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let ci = watchers[i];
                let false_lit = p.negate();
                // Normalize: watched literals are lits[0] and lits[1].
                {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                }
                // If the other watched literal is already true, keep watch.
                let first = self.clauses[ci as usize].lits[0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                {
                    let c = &self.clauses[ci as usize];
                    let mut new_watch = None;
                    for (j, &l) in c.lits.iter().enumerate().skip(2) {
                        if self.value(l) != Some(false) {
                            new_watch = Some(j);
                            break;
                        }
                    }
                    if let Some(j) = new_watch {
                        let l = self.clauses[ci as usize].lits[j];
                        self.clauses[ci as usize].lits.swap(1, j);
                        self.watches[l.negate().code()].push(ci);
                        watchers.swap_remove(i);
                        moved = true;
                    }
                }
                if moved {
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                match self.value(first) {
                    None => {
                        self.enqueue(first, ci);
                        i += 1;
                    }
                    Some(false) => {
                        // Conflict: restore remaining watchers and report.
                        self.watches[p.code()].append(&mut watchers);
                        self.qhead = self.trail.len();
                        return Some(ci);
                    }
                    Some(true) => unreachable!("handled above"),
                }
            }
            self.watches[p.code()] = watchers;
        }
        None
    }

    fn bump_clause(&mut self, ci: u32) {
        if ci >= self.first_learned {
            let a = &mut self.cla_activity[ci as usize];
            *a += self.cla_inc;
            if *a > 1e100 {
                for x in &mut self.cla_activity {
                    *x *= 1e-100;
                }
                self.cla_inc *= 1e-100;
            }
        }
    }

    /// Deletes the less active half of the learned clauses (keeping
    /// clauses currently locked as propagation reasons and binary
    /// clauses), then rebuilds watches and reason indices.
    fn reduce_db(&mut self) {
        let n = self.clauses.len();
        let first = self.first_learned as usize;
        let learned = n - first;
        if learned < 64 {
            return;
        }
        // Activity threshold = median of learned activities.
        let mut acts: Vec<f64> = self.cla_activity[first..].to_vec();
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let median = acts[learned / 2];
        // Locked clauses (reasons of current assignments) must survive.
        let mut locked = vec![false; n];
        for &r in &self.reason {
            if r != INVALID {
                locked[r as usize] = true;
            }
        }
        let mut keep = vec![true; n];
        for ci in first..n {
            let c = &self.clauses[ci];
            if !locked[ci] && c.lits.len() > 2 && self.cla_activity[ci] < median {
                keep[ci] = false;
            }
        }
        // Compact, building the old -> new index map.
        let mut remap = vec![INVALID; n];
        let mut new_clauses = Vec::with_capacity(n);
        let mut new_acts = Vec::with_capacity(n);
        for ci in 0..n {
            if keep[ci] {
                remap[ci] = new_clauses.len() as u32;
                new_clauses.push(std::mem::replace(
                    &mut self.clauses[ci],
                    Clause { lits: Vec::new() },
                ));
                new_acts.push(self.cla_activity[ci]);
            }
        }
        self.stats.deleted += (n - new_clauses.len()) as u64;
        self.clauses = new_clauses;
        self.cla_activity = new_acts;
        for r in &mut self.reason {
            if *r != INVALID {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, INVALID, "locked reasons are kept");
            }
        }
        // Rebuild the watch lists from scratch.
        for w in &mut self.watches {
            w.clear();
        }
        for (ci, c) in self.clauses.iter().enumerate() {
            self.watches[c.lits[0].negate().code()].push(ci as u32);
            self.watches[c.lits[1].negate().code()].push(ci as u32);
        }
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump
    /// level); learned[0] is the asserting literal.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut seen = vec![false; self.num_vars];
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut trail_idx = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;

        loop {
            self.bump_clause(ci);
            {
                let c = &self.clauses[ci as usize];
                let skip = usize::from(p.is_some());
                let lits: Vec<Lit> = c.lits.iter().copied().skip(skip).collect();
                for q in lits {
                    let v = q.var() as usize;
                    if !seen[v] && self.level[v] > 0 {
                        seen[v] = true;
                        self.bump(v);
                        if self.level[v] == cur_level {
                            counter += 1;
                        } else {
                            learned.push(q);
                        }
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                trail_idx -= 1;
                if seen[self.trail[trail_idx].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            counter -= 1;
            seen[lit.var() as usize] = false;
            if counter == 0 {
                learned[0] = lit.negate();
                break;
            }
            p = Some(lit);
            ci = self.reason[lit.var() as usize];
            debug_assert_ne!(ci, INVALID, "non-decision must have a reason");
        }

        // Backjump level: second-highest level in the learned clause.
        let bj = learned
            .iter()
            .skip(1)
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level into slot 1 (watch position).
        if learned.len() > 1 {
            let pos = learned
                .iter()
                .enumerate()
                .skip(1)
                .find(|(_, l)| self.level[l.var() as usize] == bj)
                .map(|(i, _)| i)
                .expect("bj literal exists");
            learned.swap(1, pos);
        }
        (learned, bj)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-root level");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty");
                let v = l.var() as usize;
                self.assign[v] = None;
                self.reason[v] = INVALID;
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars {
            if self.assign[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        match best {
            None => false,
            Some(v) => {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.saved_phase[v];
                self.enqueue(Lit::with_sign(v as u32, phase), INVALID);
                true
            }
        }
    }

    /// Sets a wall-clock budget; `solve` returns [`SolveResult::Unknown`]
    /// once it is exceeded. This mirrors the paper's 24-hour timeout
    /// discipline for the SAT baseline. Equivalent to [`Solver::set_budget`]
    /// with [`Budget::with_deadline`].
    pub fn set_wall_budget(&mut self, budget: std::time::Duration) {
        self.budget = Budget::with_deadline(budget);
    }

    /// Attaches a cooperative [`Budget`] (shared deadline / cancellation
    /// token), polled every 1024 conflicts and every 65 536 propagations.
    /// The solver charges no work units — work caps are an algebra knob,
    /// so a work-capped word-level phase still leaves the SAT fallback its
    /// full wall-clock allowance.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    fn budget_interrupt(&self) -> Interrupt {
        Interrupt::Budget(self.budget.exhausted().unwrap_or(ExhaustedReason::Deadline))
    }

    /// Solves with a conflict budget; [`SolveResult::Unknown`] on exhaustion.
    pub fn solve(&mut self, conflict_budget: u64) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.budget.check().is_err() {
            return SolveResult::Unknown(self.budget_interrupt());
        }
        let mut luby_idx = 1u64;
        let mut restart_limit = 64 * luby(luby_idx);
        let mut conflicts_since_restart = 0u64;
        let mut rounds = 0u64;

        loop {
            // Poll on the main loop itself, not just conflicts and
            // propagations: `decide` scans every variable, so on
            // million-variable miters a conflict-light search performs
            // billions of operations between conflict polls.
            rounds += 1;
            if rounds.is_multiple_of(128) && self.budget.check().is_err() {
                return SolveResult::Unknown(self.budget_interrupt());
            }
            let conflict = self.propagate();
            if self.interrupted {
                return SolveResult::Unknown(self.budget_interrupt());
            }
            if let Some(ci) = conflict {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    return SolveResult::Unsat;
                }
                if self.stats.conflicts >= conflict_budget {
                    return SolveResult::Unknown(Interrupt::Conflicts(conflict_budget));
                }
                if self.stats.conflicts.is_multiple_of(1024) && self.budget.check().is_err() {
                    return SolveResult::Unknown(self.budget_interrupt());
                }
                let (learned, bj) = self.analyze(ci);
                self.cancel_until(bj);
                self.stats.learned += 1;
                if learned.len() == 1 {
                    self.enqueue(learned[0], INVALID);
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watches[learned[0].negate().code()].push(idx);
                    self.watches[learned[1].negate().code()].push(idx);
                    let assert_lit = learned[0];
                    self.clauses.push(Clause { lits: learned });
                    self.cla_activity.push(self.cla_inc);
                    self.enqueue(assert_lit, idx);
                }
                self.var_inc /= 0.95; // variable activity decay via growth
                self.cla_inc /= 0.999; // clause activity decay via growth
                if self.stats.conflicts.is_multiple_of(self.reduce_limit) {
                    self.reduce_db();
                    self.reduce_limit += self.reduce_limit / 2;
                }
            } else if conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                luby_idx += 1;
                restart_limit = 64 * luby(luby_idx);
                self.stats.restarts += 1;
                self.cancel_until(0);
            } else if !self.decide() {
                // All variables assigned: SAT.
                let model: Vec<bool> = self
                    .assign
                    .iter()
                    .map(|a| a.expect("full assignment"))
                    .collect();
                return SolveResult::Sat(model);
            }
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,…
fn luby(mut i: u64) -> u64 {
    loop {
        // Find k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(cnf: Cnf) -> SolveResult {
        Solver::new(cnf).solve(u64::MAX)
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(matches!(solve(Cnf::new(3)), SolveResult::Sat(_)));
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(vec![Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(0), Lit::pos(1)]);
        cnf.add_clause(vec![Lit::neg(1), Lit::neg(2)]);
        match solve(cnf) {
            SolveResult::Sat(m) => {
                assert!(m[0] && m[1] && !m[2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause(vec![Lit::pos(0)]);
        cnf.add_clause(vec![Lit::neg(0)]);
        assert_eq!(solve(cnf), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 ⊕ x2 = 1 is unsatisfiable.
        let mut cnf = Cnf::new(3);
        let xor1 = |cnf: &mut Cnf, a: u32, b: u32| {
            cnf.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
            cnf.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        };
        xor1(&mut cnf, 0, 1);
        xor1(&mut cnf, 1, 2);
        xor1(&mut cnf, 0, 2);
        assert_eq!(solve(cnf), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Variables p(i,j): pigeon i in hole j; i in 0..3, j in 0..2.
        let v = |i: u32, j: u32| i * 2 + j;
        let mut cnf = Cnf::new(6);
        for i in 0..3 {
            cnf.add_clause(vec![Lit::pos(v(i, 0)), Lit::pos(v(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    cnf.add_clause(vec![Lit::neg(v(i1, j)), Lit::neg(v(i2, j))]);
                }
            }
        }
        assert_eq!(solve(cnf), SolveResult::Unsat);
    }

    #[test]
    fn models_satisfy_formula_random_3sat() {
        // Cross-check against brute force on random small instances.
        use gfab_field::Rng;
        let mut rng = Rng::seed_from_u64(99);
        for _ in 0..40 {
            let nv = 8u32;
            let nc = rng.random_range(10..40);
            let mut cnf = Cnf::new(nv);
            for _ in 0..nc {
                let lits: Vec<Lit> = (0..3)
                    .map(|_| {
                        Lit::with_sign(
                            rng.random_range(0..nv as usize) as u32,
                            rng.random_bool(0.5),
                        )
                    })
                    .collect();
                cnf.add_clause(lits);
            }
            // Brute force.
            let brute_sat = (0u32..(1 << nv)).any(|m| {
                let model: Vec<bool> = (0..nv).map(|i| (m >> i) & 1 == 1).collect();
                cnf.eval(&model)
            });
            let cnf2 = cnf.clone();
            match Solver::new(cnf).solve(u64::MAX) {
                SolveResult::Sat(model) => {
                    assert!(brute_sat, "solver said SAT, brute force disagrees");
                    assert!(cnf2.eval(&model), "model does not satisfy formula");
                }
                SolveResult::Unsat => assert!(!brute_sat, "solver said UNSAT wrongly"),
                SolveResult::Unknown(_) => panic!("budget was unlimited"),
            }
        }
    }

    #[test]
    fn pigeonhole_8_into_7_exercises_clause_deletion() {
        // Large enough to trigger reduce_db (thousands of conflicts) while
        // still UNSAT-provable; correctness after database reduction is
        // exactly what this asserts.
        let n = 7u32;
        let v = |i: u32, j: u32| i * n + j;
        let mut cnf = Cnf::new((n + 1) * n);
        for i in 0..=n {
            cnf.add_clause((0..n).map(|j| Lit::pos(v(i, j))).collect());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    cnf.add_clause(vec![Lit::neg(v(i1, j)), Lit::neg(v(i2, j))]);
                }
            }
        }
        let mut solver = Solver::new(cnf);
        assert_eq!(solver.solve(u64::MAX), SolveResult::Unsat);
        assert!(
            solver.stats.conflicts > 8_192 || solver.stats.deleted == 0,
            "if reduction ran, many conflicts happened"
        );
    }

    #[test]
    fn budget_produces_unknown() {
        // A moderately hard pigeonhole instance with a 1-conflict budget.
        let n = 6u32; // 7 pigeons, 6 holes
        let v = |i: u32, j: u32| i * n + j;
        let mut cnf = Cnf::new((n + 1) * n);
        for i in 0..=n {
            cnf.add_clause((0..n).map(|j| Lit::pos(v(i, j))).collect());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    cnf.add_clause(vec![Lit::neg(v(i1, j)), Lit::neg(v(i2, j))]);
                }
            }
        }
        assert_eq!(
            Solver::new(cnf).solve(1),
            SolveResult::Unknown(Interrupt::Conflicts(1))
        );
    }

    #[test]
    fn cancelled_budget_stops_solver_with_reason() {
        let n = 6u32;
        let v = |i: u32, j: u32| i * n + j;
        let mut cnf = Cnf::new((n + 1) * n);
        for i in 0..=n {
            cnf.add_clause((0..n).map(|j| Lit::pos(v(i, j))).collect());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    cnf.add_clause(vec![Lit::neg(v(i1, j)), Lit::neg(v(i2, j))]);
                }
            }
        }
        let mut solver = Solver::new(cnf);
        let budget = Budget::unlimited();
        budget.cancel();
        solver.set_budget(budget);
        // The conflict-loop poll fires every 1024 conflicts; this instance
        // has plenty, so the cancellation is observed and reported.
        assert_eq!(
            solver.solve(u64::MAX),
            SolveResult::Unknown(Interrupt::Budget(ExhaustedReason::Cancelled))
        );
    }
}
