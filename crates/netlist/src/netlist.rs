//! The netlist data structure and builder.

use crate::gate::GateKind;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (a signal wire).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NetId(pub u32);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GateId(pub u32);

impl GateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One gate instance: a kind, its input nets and its single output net.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Gate {
    /// The gate function.
    pub kind: GateKind,
    /// Input nets (`kind.arity()` of them).
    pub inputs: Vec<NetId>,
    /// The driven output net.
    pub output: NetId,
}

/// A word: a named group of nets interpreted as a bit-vector element of
/// `F_{2^k}`, LSB first (`bits[i]` is the coefficient of `α^i`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Word {
    /// The word name (e.g. `"A"`, `"Z"`).
    pub name: String,
    /// The member nets, LSB first.
    pub bits: Vec<NetId>,
}

impl Word {
    /// The bit width.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// Structural errors detected by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one gate.
    MultipleDrivers(NetId),
    /// A net is neither a primary input nor driven by a gate.
    Undriven(NetId),
    /// The gate graph contains a combinational cycle.
    CombinationalCycle,
    /// The output word has not been declared.
    MissingOutputWord,
    /// A gate has the wrong number of inputs for its kind.
    ArityMismatch(GateId),
    /// A primary input net is also driven by a gate.
    DrivenInput(NetId),
    /// A parse error from the text format.
    Parse(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net {n} is undriven and not an input"),
            NetlistError::CombinationalCycle => write!(f, "netlist contains a combinational cycle"),
            NetlistError::MissingOutputWord => write!(f, "no output word declared"),
            NetlistError::ArityMismatch(g) => write!(f, "gate g{} has wrong input count", g.0),
            NetlistError::DrivenInput(n) => write!(f, "primary input {n} is driven by a gate"),
            NetlistError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A combinational, single-driver gate-level netlist with word bindings.
///
/// Build with the `add_input_word` / `gate2` / `set_output_word` methods,
/// then call [`Netlist::validate`]. Nets are named automatically
/// (`a0…`, `n17…`) but can be renamed via [`Netlist::set_net_name`].
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    gates: Vec<Gate>,
    /// Driver gate per net (`None` for primary inputs / undriven).
    driver: Vec<Option<GateId>>,
    /// Per net: whether it is a bit of some input word.
    is_input: Vec<bool>,
    input_words: Vec<Word>,
    output_word: Option<Word>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            gates: Vec::new(),
            driver: Vec::new(),
            is_input: Vec::new(),
            input_words: Vec::new(),
            output_word: None,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in creation order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// A gate by id.
    pub fn gate(&self, g: GateId) -> &Gate {
        &self.gates[g.index()]
    }

    /// The gate driving `net`, if any.
    pub fn driver_of(&self, net: NetId) -> Option<GateId> {
        self.driver.get(net.index()).copied().flatten()
    }

    /// The name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Renames a net.
    pub fn set_net_name(&mut self, net: NetId, name: impl Into<String>) {
        self.net_names[net.index()] = name.into();
    }

    /// The declared input words.
    pub fn input_words(&self) -> &[Word] {
        &self.input_words
    }

    /// The declared output word.
    ///
    /// # Panics
    ///
    /// Panics if no output word was declared; use
    /// [`Netlist::try_output_word`] for a fallible accessor.
    pub fn output_word(&self) -> &Word {
        self.output_word.as_ref().expect("output word declared")
    }

    /// The declared output word, if any.
    pub fn try_output_word(&self) -> Option<&Word> {
        self.output_word.as_ref()
    }

    /// All primary input bits, in word declaration order, LSB first.
    pub fn input_bits(&self) -> Vec<NetId> {
        self.input_words
            .iter()
            .flat_map(|w| w.bits.iter().copied())
            .collect()
    }

    /// Whether `net` is a primary input bit (`false` for a net that does
    /// not exist). Constant time: a per-net flag kept by the word
    /// declarations.
    pub fn is_primary_input(&self, net: NetId) -> bool {
        self.is_input.get(net.index()).copied().unwrap_or(false)
    }

    /// Creates a fresh unnamed net.
    pub fn add_net(&mut self) -> NetId {
        self.add_named_net(format!("n{}", self.net_names.len()))
    }

    /// Creates a fresh named net.
    pub fn add_named_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.driver.push(None);
        self.is_input.push(false);
        id
    }

    /// Declares a `width`-bit input word; nets are named `<name‑lower>0…`.
    pub fn add_input_word(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let name = name.into();
        let prefix = name.to_lowercase();
        let bits: Vec<NetId> = (0..width)
            .map(|i| self.add_named_net(format!("{prefix}{i}")))
            .collect();
        self.add_input_word_from_nets(name, bits.clone());
        bits
    }

    /// Declares an input word over existing nets (used by parsing and
    /// flattening).
    pub fn add_input_word_from_nets(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        for b in &bits {
            if let Some(flag) = self.is_input.get_mut(b.index()) {
                *flag = true;
            }
        }
        self.input_words.push(Word {
            name: name.into(),
            bits,
        });
    }

    /// Declares the output word over existing nets, renaming them `z0…` if
    /// they still carry their automatic names.
    pub fn set_output_word(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        let name = name.into();
        let prefix = name.to_lowercase();
        for (i, &b) in bits.iter().enumerate() {
            if self.net_names[b.index()].starts_with('n') {
                self.net_names[b.index()] = format!("{prefix}{i}");
            }
        }
        self.output_word = Some(Word { name, bits });
    }

    /// Adds a gate driving a fresh net; returns the output net.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the gate arity.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "gate arity mismatch for {kind}");
        let output = self.add_net();
        self.push_gate(kind, inputs.to_vec(), output);
        output
    }

    /// Convenience for 2-input gates.
    pub fn gate2(&mut self, kind: GateKind, a: NetId, b: NetId) -> NetId {
        self.add_gate(kind, &[a, b])
    }

    /// Convenience: AND gate.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate2(GateKind::And, a, b)
    }

    /// Convenience: XOR gate.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate2(GateKind::Xor, a, b)
    }

    /// Convenience: inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Not, &[a])
    }

    /// Convenience: constant driver.
    pub fn constant(&mut self, value: bool) -> NetId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add_gate(kind, &[])
    }

    /// XOR-reduces a list of nets into one (balanced tree). An empty list
    /// produces a constant 0; a single net is returned unchanged.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        match nets {
            [] => self.constant(false),
            [n] => *n,
            _ => {
                let mut level: Vec<NetId> = nets.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        match pair {
                            [a, b] => next.push(self.xor(*a, *b)),
                            [a] => next.push(*a),
                            _ => unreachable!("chunks(2)"),
                        }
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// Adds a gate with an explicit output net (used by parsing/flattening).
    ///
    /// # Panics
    ///
    /// Panics if the output net already has a driver or arity mismatches.
    pub fn push_gate(&mut self, kind: GateKind, inputs: Vec<NetId>, output: NetId) -> GateId {
        assert_eq!(inputs.len(), kind.arity(), "gate arity mismatch for {kind}");
        assert!(
            self.driver[output.index()].is_none(),
            "net {output} already driven"
        );
        let id = GateId(self.gates.len() as u32);
        self.driver[output.index()] = Some(id);
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        id
    }

    /// Replaces a gate in place (used by bug injection). The output net and
    /// id are preserved.
    ///
    /// # Panics
    ///
    /// Panics if the new input count mismatches the new kind's arity.
    pub fn replace_gate(&mut self, g: GateId, kind: GateKind, inputs: Vec<NetId>) {
        assert_eq!(inputs.len(), kind.arity(), "gate arity mismatch for {kind}");
        let gate = &mut self.gates[g.index()];
        gate.kind = kind;
        gate.inputs = inputs;
    }

    /// Structural validation: single drivers, no undriven internal nets,
    /// correct arities, an output word, and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.validate_structure()?;
        // Acyclicity via Kahn's algorithm on the gate graph.
        match crate::topo::topological_gates(self) {
            Some(_) => Ok(()),
            None => Err(NetlistError::CombinationalCycle),
        }
    }

    /// Every check of [`validate`](Netlist::validate) but acyclicity, for a
    /// caller that runs Kahn's algorithm anyway and maps its `None` to
    /// [`NetlistError::CombinationalCycle`] ([`crate::topo::topological_gates`],
    /// [`crate::topo::rato_order`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate_structure(&self) -> Result<(), NetlistError> {
        if self.output_word.is_none() {
            return Err(NetlistError::MissingOutputWord);
        }
        // Arity and driver checks.
        let mut seen_driver: Vec<Option<GateId>> = vec![None; self.num_nets()];
        for (idx, gate) in self.gates.iter().enumerate() {
            let gid = GateId(idx as u32);
            if gate.inputs.len() != gate.kind.arity() {
                return Err(NetlistError::ArityMismatch(gid));
            }
            if seen_driver[gate.output.index()].is_some() {
                return Err(NetlistError::MultipleDrivers(gate.output));
            }
            seen_driver[gate.output.index()] = Some(gid);
            if self.is_primary_input(gate.output) {
                return Err(NetlistError::DrivenInput(gate.output));
            }
        }
        // Every net used by a gate or the output word must be driven or an
        // input.
        let mut used: Vec<bool> = vec![false; self.num_nets()];
        for gate in &self.gates {
            for &i in &gate.inputs {
                used[i.index()] = true;
            }
        }
        if let Some(w) = &self.output_word {
            for &b in &w.bits {
                used[b.index()] = true;
            }
        }
        for (idx, &u) in used.iter().enumerate() {
            let net = NetId(idx as u32);
            if u && seen_driver[idx].is_none() && !self.is_primary_input(net) {
                return Err(NetlistError::Undriven(net));
            }
        }
        Ok(())
    }

    /// A net-name → id lookup map (names are not guaranteed unique unless
    /// the netlist came from the text format, which enforces it).
    pub fn name_map(&self) -> HashMap<&str, NetId> {
        self.net_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), NetId(i as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{BlockInst, HierDesign, Signal};

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input_word("A", 2);
        let b = nl.add_input_word("B", 2);
        let t = nl.and(a[0], b[0]);
        let u = nl.xor(a[1], b[1]);
        nl.set_output_word("Z", vec![t, u]);
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = tiny();
        assert_eq!(nl.num_gates(), 2);
        assert_eq!(nl.input_words().len(), 2);
        assert_eq!(nl.output_word().width(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn words_are_lsb_first_and_named() {
        let nl = tiny();
        let a = &nl.input_words()[0];
        assert_eq!(a.name, "A");
        assert_eq!(nl.net_name(a.bits[0]), "a0");
        assert_eq!(nl.net_name(a.bits[1]), "a1");
        let z = nl.output_word();
        assert_eq!(nl.net_name(z.bits[0]), "z0");
    }

    #[test]
    fn structure_checks_leave_only_the_cycle_to_kahn() {
        // Two drivers and a wrong arity cannot be built through
        // `push_gate` or `replace_gate`, so write the gate list directly.
        let mut nl = tiny();
        let t = nl.gates[0].output;
        let a0 = nl.input_words[0].bits[0];
        nl.gates.push(Gate {
            kind: GateKind::Not,
            inputs: vec![a0],
            output: t,
        });
        assert_eq!(
            nl.validate_structure(),
            Err(NetlistError::MultipleDrivers(t))
        );
        assert_eq!(nl.validate(), Err(NetlistError::MultipleDrivers(t)));
        let mut nl = tiny();
        nl.gates[1].inputs.pop();
        let arity = Err(NetlistError::ArityMismatch(GateId(1)));
        assert_eq!(nl.validate_structure(), arity);
        assert_eq!(nl.validate(), arity);
        // A cycle is structurally sound; only `validate` finds it.
        let mut nl = Netlist::new("cyclic");
        let a = nl.add_input_word("A", 1);
        let fb = nl.add_net();
        let t = nl.xor(a[0], fb);
        nl.push_gate(GateKind::Buf, vec![t], fb);
        nl.set_output_word("Z", vec![t]);
        assert_eq!(nl.validate_structure(), Ok(()));
        assert_eq!(nl.validate(), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn missing_output_is_rejected() {
        let mut nl = Netlist::new("x");
        nl.add_input_word("A", 1);
        assert_eq!(nl.validate(), Err(NetlistError::MissingOutputWord));
    }

    #[test]
    fn undriven_net_is_rejected() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input_word("A", 1);
        let dangling = nl.add_net();
        let z = nl.xor(a[0], dangling);
        nl.set_output_word("Z", vec![z]);
        assert_eq!(nl.validate(), Err(NetlistError::Undriven(dangling)));
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driver_panics_at_build() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input_word("A", 1);
        let t = nl.not(a[0]);
        nl.push_gate(GateKind::Buf, vec![a[0]], t);
    }

    #[test]
    fn driven_primary_input_is_rejected() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input_word("A", 2);
        // Manually drive a primary input (bypassing push_gate's net-creation
        // path but not its driver check — a1 has no driver yet).
        nl.push_gate(GateKind::Buf, vec![a[0]], a[1]);
        let z = nl.not(a[0]);
        nl.set_output_word("Z", vec![z]);
        assert_eq!(nl.validate(), Err(NetlistError::DrivenInput(a[1])));
    }

    #[test]
    fn xor_tree_shapes() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input_word("A", 5);
        let out = nl.xor_tree(&a);
        nl.set_output_word("Z", vec![out]);
        nl.validate().unwrap();
        assert_eq!(nl.num_gates(), 4); // 5 leaves -> 4 XORs

        let mut nl2 = Netlist::new("y");
        let b = nl2.add_input_word("B", 1);
        assert_eq!(nl2.xor_tree(&b), b[0]); // single net passthrough

        let mut nl3 = Netlist::new("z");
        nl3.add_input_word("C", 1);
        let c0 = nl3.xor_tree(&[]);
        let g = &nl3.gates()[0];
        assert_eq!(g.kind, GateKind::Const0);
        assert_eq!(g.output, c0);
    }

    /// `is_primary_input` against a scan of the declared input words, for
    /// every net and one id past the end.
    fn assert_input_flags_match_words(nl: &Netlist) {
        for i in 0..nl.num_nets() {
            let net = NetId(i as u32);
            let scanned = nl.input_words().iter().any(|w| w.bits.contains(&net));
            assert_eq!(nl.is_primary_input(net), scanned, "{}", nl.net_name(net));
        }
        assert!(!nl.is_primary_input(NetId(nl.num_nets() as u32)));
        assert!(!nl.is_primary_input(NetId(u32::MAX)));
    }

    #[test]
    fn input_flags_match_the_input_words() {
        let parsed = crate::format::parse(&crate::format::emit(&tiny())).unwrap();
        assert_input_flags_match_words(&parsed);

        let block = |name: &str| BlockInst {
            name: name.into(),
            netlist: tiny(),
            connections: vec![Signal::PrimaryInput(0), Signal::PrimaryInput(1)],
        };
        let design = HierDesign {
            name: "two".into(),
            inputs: vec![("A".into(), 2), ("B".into(), 2)],
            blocks: vec![block("u0"), block("u1")],
            output: Signal::BlockOutput(1),
            output_name: "Z".into(),
        };
        assert_input_flags_match_words(&design.flatten());

        // Words over existing nets, declared after some gates: an internal
        // net between them stays a non-input.
        let mut nl = Netlist::new("from-nets");
        let a: Vec<NetId> = (0..3).map(|_| nl.add_net()).collect();
        let t = nl.and(a[0], a[1]);
        let b = vec![nl.add_net(), nl.add_net()];
        nl.add_input_word_from_nets("A", a);
        nl.add_input_word_from_nets("B", b.clone());
        let z = nl.xor(t, b[1]);
        nl.set_output_word("Z", vec![z]);
        assert!(!nl.is_primary_input(t));
        assert_input_flags_match_words(&nl);
    }

    #[test]
    fn replace_gate_keeps_output() {
        let mut nl = tiny();
        let g = nl.driver_of(nl.output_word().bits[0]).unwrap();
        let ins = nl.gate(g).inputs.clone();
        nl.replace_gate(g, GateKind::Or, ins);
        assert_eq!(nl.gate(g).kind, GateKind::Or);
        nl.validate().unwrap();
    }
}
