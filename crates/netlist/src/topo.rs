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
    topological_order(nl).map(|(order, _)| order)
}

/// How each gate's output is read, two bits per gate that the Kahn pass
/// of [`topological_order`] sets as it walks the gates' inputs.
#[derive(Debug, Clone)]
pub struct Readers {
    /// Bit `g % 64` of word `g / 64` is set when exactly one gate input
    /// reads gate `g`'s output.
    single: Vec<u64>,
    /// Bit `g % 64` of word `g / 64` is set when a product gate (one that
    /// is not [`crate::GateKind::is_linear`]) reads gate `g`'s output.
    product: Vec<u64>,
}

impl Readers {
    /// Whether exactly one gate input reads `g`'s output (a gate fed twice
    /// by it counts twice).
    pub fn single(&self, g: GateId) -> bool {
        bit(&self.single, g)
    }

    /// Whether a product gate (AND, OR, NAND, NOR) reads `g`'s output.
    pub fn by_product(&self, g: GateId) -> bool {
        bit(&self.product, g)
    }
}

fn bit(bits: &[u64], g: GateId) -> bool {
    bits[g.index() / 64] & (1 << (g.index() % 64)) != 0
}

/// [`topological_gates`] and the [`Readers`] of every gate.
pub fn topological_order(nl: &Netlist) -> Option<(Vec<GateId>, Readers)> {
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
    let mut readers = Readers {
        single: vec![0; n.div_ceil(64)],
        product: vec![0; n.div_ceil(64)],
    };
    for g in 0..n {
        if start[g + 1] == 1 {
            readers.single[g / 64] |= 1 << (g % 64);
        }
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut consumers = vec![0u32; start[n] as usize];
    for (gi, gate) in nl.gates().iter().enumerate() {
        let product = !gate.kind.is_linear();
        for &inp in &gate.inputs {
            if let Some(drv) = nl.driver_of(inp) {
                indegree[gi] += 1;
                let slot = &mut next[drv.index()];
                consumers[*slot as usize] = gi as u32;
                *slot += 1;
                if product {
                    readers.product[drv.index() / 64] |= 1 << (drv.index() % 64);
                }
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
    (order.len() == n).then_some((order, readers))
}

/// Reverse-topological level of every net, given a topological gate
/// `order` of `nl`: a net no gate reads has level 0, and every other net
/// sits one level above the highest output among the gates that read it.
///
/// This is the "reverse topological traversal toward the primary inputs"
/// of Definition 5.1: a *smaller* level means the net comes *earlier* in the
/// reverse topological order and is therefore *greater* in RATO.
fn reverse_topological_levels(nl: &Netlist, order: &[GateId]) -> Vec<u32> {
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
    level
}

/// The RATO rank of the gate-output nets (Definition 5.1), greatest
/// variable first: by ascending reverse-topological level, and inside a
/// level the output-word bits first, in bit order, then the other nets by
/// the position of their gate in [`topological_gates`]. Primary-input bits
/// are **excluded** — the caller appends them after the internal nets
/// (word by word, LSB first), then `Z` and the input words.
///
/// The rank depends only on the gate list and its wiring, never on net ids
/// or names: renumbering or renaming nets leaves it unchanged, and so does
/// a [`crate::format::emit`] / [`crate::format::parse`] round trip, whose
/// gates come back in the order [`topological_gates`] gave them.
///
/// Definition 5.1 fixes only the blocks; the order inside a level is free.
/// For Fig. 2 this gives `{z0 > z1} > {s0 > s3 > r0} > {s1 > s2}`, where
/// Example 5.1 lists the middle level as `r0 > s0 > s3`. Levels count
/// gates toward the nets that no gate reads, so a dead gate's output
/// shares level 0 with the output bits (after them), its inputs sit at
/// level 1, and so on up its cone.
///
/// One Kahn pass and a stable counting sort by level; no comparison sort.
/// The pass's [`Readers`] come back with the rank. Returns `None` on a
/// cyclic netlist.
pub fn rato_order(nl: &Netlist) -> Option<(Vec<NetId>, Readers)> {
    let (order, readers) = topological_order(nl)?;
    let level = reverse_topological_levels(nl, &order);
    let bits = nl.try_output_word().map_or(&[][..], |w| &w.bits[..]);
    // Bit position of each output-word net (its last, if repeated), or
    // u32::MAX for nets outside the output word.
    let mut out_pos = vec![u32::MAX; nl.num_nets()];
    for (p, &b) in bits.iter().enumerate() {
        out_pos[b.index()] = p as u32;
    }
    let out_bits = bits
        .iter()
        .enumerate()
        .filter(|&(p, &b)| out_pos[b.index()] == p as u32)
        .map(|(_, &b)| b);
    let others = order
        .iter()
        .map(|&g| nl.gate(g).output)
        .filter(|&n| out_pos[n.index()] == u32::MAX);
    // Sized up front, so the allocations do not grow with the gate count.
    let mut ranked: Vec<NetId> = Vec::with_capacity(nl.num_gates());
    ranked.extend(
        out_bits
            .chain(others)
            .filter(|&n| nl.driver_of(n).is_some() && !nl.is_primary_input(n)),
    );
    // A stable counting sort by level keeps that order inside each level.
    let max_level = ranked.iter().map(|n| level[n.index()]).max().unwrap_or(0) as usize;
    let mut start = vec![0usize; max_level + 2];
    for n in &ranked {
        start[level[n.index()] as usize + 1] += 1;
    }
    for l in 0..=max_level {
        start[l + 1] += start[l];
    }
    let mut rank = vec![NetId(0); ranked.len()];
    for n in ranked {
        let slot = &mut start[level[n.index()] as usize];
        rank[*slot] = n;
        *slot += 1;
    }
    Some((rank, readers))
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
    fn readers_flag_single_and_product_reads() {
        // Fig. 2 plus t = s1 AND s1 and u = r0 AND a0: gates s0..s3 are
        // 0..3, r0 is 4, z0 is 5, z1 is 6, t is 7 and u is 8. s3 is read
        // twice, s1 by r0 and twice by t, r0 by z1 and u.
        let mut nl = fig2();
        let [s1, r0] = [1, 4].map(|g| nl.gates()[g].output);
        let a0 = nl.input_words()[0].bits[0];
        nl.and(s1, s1);
        nl.and(r0, a0);
        let (order, readers) = topological_order(&nl).unwrap();
        assert_eq!(order, topological_gates(&nl).unwrap());
        let flags = |f: &dyn Fn(GateId) -> bool| (0..9).map(|g| f(GateId(g))).collect::<Vec<_>>();
        let (t, f) = (true, false);
        assert_eq!(flags(&|g| readers.single(g)), [t, f, t, f, f, f, f, f, f]);
        assert_eq!(
            flags(&|g| readers.by_product(g)),
            [f, t, f, f, t, f, f, f, f]
        );
    }

    fn levels(nl: &Netlist) -> Vec<u32> {
        reverse_topological_levels(nl, &topological_gates(nl).unwrap())
    }

    #[test]
    fn reverse_levels_zero_at_outputs() {
        let nl = fig2();
        let levels = levels(&nl);
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
    fn rato_order_of_fig2() {
        // Example 5.1 lists {z0 > z1} > {r0 > s0 > s3} > {s1 > s2}; the
        // order inside a level is free, and topological position puts r0
        // last in its level.
        let nl = fig2();
        let net = |g: usize| nl.gates()[g].output;
        let [s0, s1, s2, s3, r0, z0, z1] = [0, 1, 2, 3, 4, 5, 6].map(net);
        assert_eq!(rato_order(&nl).unwrap().0, [z0, z1, s0, s3, r0, s1, s2]);
    }

    #[test]
    fn dead_logic_ranks_by_its_own_levels() {
        // Fig. 2 plus a dead cone: d = t XOR s3 with t = a0 AND b0, and
        // neither d nor t reaches the output word.
        let mut nl = fig2();
        let (a0, b0) = (nl.input_words()[0].bits[0], nl.input_words()[1].bits[0]);
        let s3 = nl.gates()[3].output;
        let t = nl.and(a0, b0);
        let d = nl.xor(t, s3);
        let levels = levels(&nl);
        assert_eq!((levels[d.index()], levels[t.index()]), (0, 1));
        let net = |g: usize| nl.gates()[g].output;
        let [s0, s1, s2, _, r0, z0, z1] = [0, 1, 2, 3, 4, 5, 6].map(net);
        assert_eq!(
            rato_order(&nl).unwrap().0,
            [z0, z1, d, s0, s3, t, r0, s1, s2]
        );
    }

    #[test]
    fn output_bits_lead_their_level_in_bit_order() {
        // The same circuit with its output bits wired in the other order:
        // z1 (now bit 0) ranks first.
        let mut nl = fig2();
        let bits = nl.output_word().bits.clone();
        nl.set_output_word("Z", vec![bits[1], bits[0]]);
        let (order, _) = rato_order(&nl).unwrap();
        assert_eq!(order[..2], [bits[1], bits[0]]);
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
