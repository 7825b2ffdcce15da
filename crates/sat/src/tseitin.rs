//! Tseitin encoding of a netlist into CNF.

use crate::cnf::{Cnf, Lit};
use crate::template::{clause_template, Slot};
use gfab_field::budget::{Budget, BudgetExceeded};
use gfab_netlist::{NetId, Netlist};

/// How many gates are encoded between budget polls.
const BUDGET_STRIDE: usize = 65_536;

/// The CNF encoding of a netlist, with the net → variable map.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The formula (so far: gate consistency clauses only).
    pub cnf: Cnf,
    /// `var_of[net]` is the CNF variable carrying the net's value.
    pub var_of: Vec<u32>,
}

/// Encodes gate consistency constraints for every gate of `nl`. Every net
/// gets one CNF variable; callers constrain inputs/outputs on top (e.g.
/// assert the miter output).
pub fn encode(nl: &Netlist) -> Encoding {
    encode_budgeted(nl, &Budget::unlimited()).expect("unlimited budget never trips")
}

/// [`encode`] under a cooperative [`Budget`], polled every
/// `BUDGET_STRIDE` gates — million-gate miters take long enough to
/// encode that a deadline must be able to interrupt the encoding itself.
///
/// Clauses come from the shared gate-shape template table
/// ([`clause_template`]): one static shape per [`gfab_netlist::GateKind`],
/// instantiated here by substituting the gate's net variables. The
/// emitted CNF is bit-identical to the historical inline encoder.
///
/// # Errors
///
/// [`BudgetExceeded`] when the budget trips mid-encoding.
pub fn encode_budgeted(nl: &Netlist, budget: &Budget) -> Result<Encoding, BudgetExceeded> {
    let mut cnf = Cnf::new(nl.num_nets() as u32);
    let var_of: Vec<u32> = (0..nl.num_nets() as u32).collect();
    let v = |n: NetId| var_of[n.index()];
    for (i, gate) in nl.gates().iter().enumerate() {
        if i % BUDGET_STRIDE == 0 {
            budget.check()?;
        }
        for clause in clause_template(gate.kind) {
            let lits = clause
                .iter()
                .map(|l| {
                    let var = match l.slot {
                        Slot::Out => v(gate.output),
                        Slot::In0 => v(gate.inputs[0]),
                        Slot::In1 => v(gate.inputs[1]),
                    };
                    Lit::with_sign(var, l.positive)
                })
                .collect();
            cnf.add_clause(lits);
        }
    }
    Ok(Encoding { cnf, var_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};
    use gfab_netlist::sim::simulate_bits;
    use gfab_netlist::GateKind;

    #[test]
    fn encoding_is_consistent_with_simulation() {
        // Build one instance of each gate and check that every satisfying
        // assignment of the CNF matches circuit simulation.
        let mut nl = Netlist::new("gates");
        let a = nl.add_input_word("A", 2);
        let outs: Vec<NetId> = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Nand,
            GateKind::Nor,
        ]
        .into_iter()
        .map(|k| nl.gate2(k, a[0], a[1]))
        .collect();
        let n = nl.not(a[0]);
        let b = nl.add_gate(GateKind::Buf, &[a[1]]);
        let mut all = outs.clone();
        all.push(n);
        all.push(b);
        // Output word only needs to exist for validation.
        nl.set_output_word("Z", vec![all[0], all[1]]);

        let enc = encode(&nl);
        for bits in 0u32..4 {
            let inputs = [(bits & 1) == 1, (bits & 2) == 2];
            let sim = simulate_bits(&nl, &inputs);
            // Constrain the inputs and solve; the unique model must match.
            let mut cnf = enc.cnf.clone();
            cnf.add_clause(vec![Lit::with_sign(enc.var_of[a[0].index()], inputs[0])]);
            cnf.add_clause(vec![Lit::with_sign(enc.var_of[a[1].index()], inputs[1])]);
            match Solver::new(cnf).solve(u64::MAX) {
                SolveResult::Sat(model) => {
                    for &net in &all {
                        assert_eq!(
                            model[enc.var_of[net.index()] as usize],
                            sim[net.index()],
                            "net {} under inputs {inputs:?}",
                            nl.net_name(net)
                        );
                    }
                }
                other => panic!("must be SAT: {other:?}"),
            }
        }
    }

    #[test]
    fn constants_are_pinned() {
        let mut nl = Netlist::new("c");
        nl.add_input_word("A", 1);
        let c1 = nl.constant(true);
        let c0 = nl.constant(false);
        nl.set_output_word("Z", vec![c1, c0]);
        let enc = encode(&nl);
        let mut cnf = enc.cnf.clone();
        // Force c1 = 0: must be UNSAT.
        cnf.add_clause(vec![Lit::neg(enc.var_of[c1.index()])]);
        assert_eq!(Solver::new(cnf).solve(u64::MAX), SolveResult::Unsat);
    }
}
