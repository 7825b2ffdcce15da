//! A small line-oriented text format for netlists, so benchmark circuits
//! can be written to disk and re-read (the paper's tool "takes the circuit
//! as input" as a flattened gate-level netlist file).
//!
//! ```text
//! # comment
//! netlist fig2
//! input A a0 a1
//! input B b0 b1
//! gate and s0 a0 b0
//! gate xor z0 s0 s3
//! ...
//! output Z z0 z1
//! ```
//!
//! Net names are introduced on first use; `input`/`output` list their bit
//! nets LSB first. Gate lines are `gate <kind> <out> <in...>`.

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes a netlist to the text format.
///
/// Gates are emitted in topological order so the output re-parses without
/// forward references.
///
/// # Panics
///
/// Panics if the netlist is cyclic or has no output word.
pub fn emit(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "netlist {}", nl.name());
    for w in nl.input_words() {
        let _ = write!(out, "input {}", w.name);
        for &b in &w.bits {
            let _ = write!(out, " {}", nl.net_name(b));
        }
        out.push('\n');
    }
    let order = crate::topo::topological_gates(nl).expect("netlist must be acyclic");
    for g in order {
        let gate = nl.gate(g);
        let _ = write!(out, "gate {} {}", gate.kind, nl.net_name(gate.output));
        for &i in &gate.inputs {
            let _ = write!(out, " {}", nl.net_name(i));
        }
        out.push('\n');
    }
    let w = nl.output_word();
    let _ = write!(out, "output {}", w.name);
    for &b in &w.bits {
        let _ = write!(out, " {}", nl.net_name(b));
    }
    out.push('\n');
    out
}

/// Parses the text format.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input and any structural
/// error surfaced by [`Netlist::validate`].
pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
    let mut nl = Netlist::new("unnamed");
    // Keyed by slices of `text`: a net costs one allocation, its name.
    let mut nets: HashMap<&str, NetId> = HashMap::new();
    let perr =
        |line_no: usize, msg: &str| NetlistError::Parse(format!("line {}: {msg}", line_no + 1));

    fn lookup<'t>(nl: &mut Netlist, nets: &mut HashMap<&'t str, NetId>, name: &'t str) -> NetId {
        *nets.entry(name).or_insert_with(|| nl.add_named_net(name))
    }

    let mut saw_output = false;
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().expect("non-empty line");
        match head {
            "netlist" => {
                let name = tok
                    .next()
                    .ok_or_else(|| perr(line_no, "missing netlist name"))?;
                nl.set_name(name.to_string());
            }
            "input" => {
                let word = tok
                    .next()
                    .ok_or_else(|| perr(line_no, "missing input word name"))?
                    .to_string();
                let mut bits = Vec::new();
                for name in tok {
                    if nets.contains_key(name) {
                        return Err(perr(line_no, &format!("net {name} already declared")));
                    }
                    bits.push(lookup(&mut nl, &mut nets, name));
                }
                if bits.is_empty() {
                    return Err(perr(line_no, "input word needs at least one bit"));
                }
                nl.add_input_word_from_nets(word, bits);
            }
            "gate" => {
                let kind_s = tok
                    .next()
                    .ok_or_else(|| perr(line_no, "missing gate kind"))?;
                let kind = GateKind::from_mnemonic(kind_s)
                    .ok_or_else(|| perr(line_no, &format!("unknown gate kind {kind_s}")))?;
                let out_name = tok
                    .next()
                    .ok_or_else(|| perr(line_no, "missing gate output"))?;
                let out = lookup(&mut nl, &mut nets, out_name);
                let inputs: Vec<NetId> = tok.map(|name| lookup(&mut nl, &mut nets, name)).collect();
                if inputs.len() != kind.arity() {
                    return Err(perr(
                        line_no,
                        &format!(
                            "gate {kind_s} expects {} inputs, got {}",
                            kind.arity(),
                            inputs.len()
                        ),
                    ));
                }
                if nl.driver_of(out).is_some() {
                    return Err(perr(line_no, &format!("net {out_name} already driven")));
                }
                nl.push_gate(kind, inputs, out);
            }
            "output" => {
                let word = tok
                    .next()
                    .ok_or_else(|| perr(line_no, "missing output word name"))?
                    .to_string();
                let bits: Result<Vec<NetId>, NetlistError> = tok
                    .map(|name| {
                        nets.get(name).copied().ok_or_else(|| {
                            perr(line_no, &format!("output references unknown net {name}"))
                        })
                    })
                    .collect();
                nl.set_output_word(word, bits?);
                saw_output = true;
            }
            other => return Err(perr(line_no, &format!("unknown directive {other}"))),
        }
    }
    if !saw_output {
        return Err(NetlistError::MissingOutputWord);
    }
    nl.validate()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_word;
    use gfab_field::{Gf2Poly, GfContext};

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
    fn roundtrip_preserves_function() {
        let nl = fig2();
        let text = emit(&nl);
        let back = parse(&text).unwrap();
        assert_eq!(back.name(), "fig2");
        assert_eq!(back.num_gates(), nl.num_gates());
        let ctx = GfContext::new(Gf2Poly::from_exponents(&[2, 1, 0])).unwrap();
        for a in ctx.iter_elements() {
            for b in ctx.iter_elements() {
                assert_eq!(
                    simulate_word(&back, &ctx, &[a.clone(), b.clone()]),
                    simulate_word(&nl, &ctx, &[a.clone(), b.clone()])
                );
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("bogus line").is_err());
        assert!(parse("netlist x\ninput A a0\ngate xor z0 a0\noutput Z z0").is_err()); // arity
        assert!(parse("netlist x\ninput A a0\noutput Z nope").is_err()); // unknown net
        assert!(parse("netlist x\ninput A a0\ngate not z a0\noutput Z z").is_ok());
        assert!(parse("netlist x\ninput A a0").is_err()); // no output
    }

    #[test]
    fn parse_rejects_double_driver() {
        let text = "netlist x\ninput A a0\ngate not z a0\ngate buf z a0\noutput Z z";
        assert!(matches!(parse(text), Err(NetlistError::Parse(_))));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\nnetlist x\ninput A a0\n# mid\ngate not z a0\noutput Z z\n";
        let nl = parse(text).unwrap();
        assert_eq!(nl.num_gates(), 1);
    }
}
