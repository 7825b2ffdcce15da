//! Topological analyses: gate evaluation order and the reverse-topological
//! net ordering that underlies RATO (Definition 5.1 of the paper).

use crate::netlist::{GateId, NetId, Netlist};

/// Gates in a topological (evaluation) order: every gate appears after the
/// drivers of all its inputs. Returns `None` if the gate graph is cyclic.
///
/// Kahn's algorithm over one flat (CSR) consumer table, so the allocation
/// count does not grow with the gate count. Ready gates leave in
/// first-in, first-out order and each gate's consumers are visited in gate
/// order, so the result is a pure function of the netlist.
pub fn topological_gates(nl: &Netlist) -> Option<Vec<GateId>> {
    let n = nl.num_gates();
    // indegree[g] = number of inputs of g that are driven by another gate.
    let mut indegree = vec![0u32; n];
    // The gates reading gate g's output are
    // consumers[start[g]..start[g + 1]], one entry per reading input.
    let mut start = vec![0u32; n + 1];
    for gate in nl.gates() {
        for &inp in &gate.inputs {
            if let Some(drv) = nl.driver_of(inp) {
                start[drv.index() + 1] += 1;
            }
        }
    }
    for g in 0..n {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut consumers = vec![0u32; start[n] as usize];
    for (gi, gate) in nl.gates().iter().enumerate() {
        for &inp in &gate.inputs {
            if let Some(drv) = nl.driver_of(inp) {
                indegree[gi] += 1;
                let slot = &mut next[drv.index()];
                consumers[*slot as usize] = gi as u32;
                *slot += 1;
            }
        }
    }
    // `order` doubles as the FIFO queue: gates before `head` are done.
    let mut order = Vec::with_capacity(n);
    order.extend(
        (0..n as u32)
            .filter(|&g| indegree[g as usize] == 0)
            .map(GateId),
    );
    let mut head = 0;
    while let Some(&g) = order.get(head) {
        head += 1;
        let (lo, hi) = (start[g.index()] as usize, start[g.index() + 1] as usize);
        for &c in &consumers[lo..hi] {
            indegree[c as usize] -= 1;
            if indegree[c as usize] == 0 {
                order.push(GateId(c));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Reverse-topological level of every net: output-word bits have level 0
/// and each gate's inputs sit at least one level above (farther from) its
/// output. Nets not reaching any output get the maximum observed level + 1.
///
/// This is the "reverse topological traversal toward the primary inputs"
/// of Definition 5.1: a *smaller* level means the net comes *earlier* in the
/// reverse topological order and is therefore *greater* in RATO.
///
/// Returns `None` on a cyclic netlist.
pub fn reverse_topological_levels(nl: &Netlist) -> Option<Vec<u32>> {
    let order = topological_gates(nl)?;
    let mut level = vec![0u32; nl.num_nets()];
    // Walk gates in reverse topological order: when we see a gate, its
    // output level is final, and its inputs must be strictly above it.
    for &g in order.iter().rev() {
        let gate = nl.gate(g);
        let out_level = level[gate.output.index()];
        for &inp in &gate.inputs {
            let li = &mut level[inp.index()];
            *li = (*li).max(out_level + 1);
        }
    }
    Some(level)
}

/// The RATO net ordering: all gate-output nets sorted by ascending reverse
/// topological level (greatest variables first), with ties broken by net
/// id for determinism. Primary-input bits are **excluded** — the caller
/// appends them after the internal nets (word by word, LSB first), then the
/// word variables, exactly as in Example 5.1 of the paper:
///
/// `{z0 > z1} > {r0 > s0 > s3} > {s1 > s2} > {a0 > a1 > b0 > b1} > Z > A, B`
///
/// Returns `None` on a cyclic netlist.
pub fn rato_gate_output_order(nl: &Netlist) -> Option<Vec<NetId>> {
    let levels = reverse_topological_levels(nl)?;
    let mut nets: Vec<NetId> = nl
        .gates()
        .iter()
        .map(|g| g.output)
        .filter(|&n| !nl.is_primary_input(n))
        .collect();
    nets.sort_by_key(|n| (levels[n.index()], n.0));
    Some(nets)
}

/// Longest path length (in gates) from any primary input to any output —
/// the circuit's logic depth. Constant-only circuits have depth 0.
pub fn logic_depth(nl: &Netlist) -> Option<u32> {
    let order = topological_gates(nl)?;
    let mut depth = vec![0u32; nl.num_nets()];
    for &g in &order {
        let gate = nl.gate(g);
        let d = gate
            .inputs
            .iter()
            .map(|i| depth[i.index()])
            .max()
            .unwrap_or(0);
        depth[gate.output.index()] = d + 1;
    }
    nl.try_output_word()
        .map(|w| w.bits.iter().map(|b| depth[b.index()]).max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    /// The Fig. 2 multiplier (2-bit, over F_4).
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

    #[test]
    fn topological_order_respects_dependencies() {
        let nl = fig2();
        let order = topological_gates(&nl).unwrap();
        assert_eq!(order.len(), nl.num_gates());
        let mut pos = vec![0usize; nl.num_gates()];
        for (i, g) in order.iter().enumerate() {
            pos[g.index()] = i;
        }
        for (gi, gate) in nl.gates().iter().enumerate() {
            for &inp in &gate.inputs {
                if let Some(drv) = nl.driver_of(inp) {
                    assert!(pos[drv.index()] < pos[gi]);
                }
            }
        }
    }

    #[test]
    fn reverse_levels_zero_at_outputs() {
        let nl = fig2();
        let levels = reverse_topological_levels(&nl).unwrap();
        for &z in &nl.output_word().bits {
            assert_eq!(levels[z.index()], 0);
        }
        // s3 feeds both z0 and z1 (level-0 nets): level 1.
        // s1, s2 feed r0 (level 1): level 2.
        // PIs feed the AND row: at least level 2 + 1.
        for &pi in &nl.input_bits() {
            assert!(levels[pi.index()] >= 2);
        }
    }

    #[test]
    fn rato_order_matches_paper_example_5_1() {
        // Example 5.1: {z0 > z1} > {r0 > s0 > s3} > {s1 > s2} > PIs.
        // Levels here: z0=z1=0; r0=s0=s3=1; s1=s2=2.
        let nl = fig2();
        let order = rato_gate_output_order(&nl).unwrap();
        // The two output bits come first, z0 before z1.
        assert_eq!(nl.net_name(order[0]), "z0");
        assert_eq!(nl.net_name(order[1]), "z1");
        // Check the level structure (internal nets carry automatic names).
        let levels = reverse_topological_levels(&nl).unwrap();
        let ls: Vec<u32> = order.iter().map(|&n| levels[n.index()]).collect();
        assert!(ls.windows(2).all(|w| w[0] <= w[1]), "levels ascend: {ls:?}");
        assert_eq!(ls.iter().filter(|&&l| l == 0).count(), 2); // z0, z1
        assert_eq!(ls.iter().filter(|&&l| l == 1).count(), 3); // r0, s0, s3
        assert_eq!(ls.iter().filter(|&&l| l == 2).count(), 2); // s1, s2
    }

    #[test]
    fn cycle_detection() {
        let mut nl = Netlist::new("cyclic");
        let a = nl.add_input_word("A", 1);
        let fb = nl.add_net();
        let t = nl.xor(a[0], fb);
        nl.push_gate(GateKind::Buf, vec![t], fb);
        nl.set_output_word("Z", vec![t]);
        assert!(topological_gates(&nl).is_none());
        assert!(nl.validate().is_err());
    }

    #[test]
    fn logic_depth_of_fig2() {
        let nl = fig2();
        // Depth: AND (1) -> XOR r0 (2) -> XOR z1 (3).
        assert_eq!(logic_depth(&nl), Some(3));
    }
}
