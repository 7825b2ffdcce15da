//! # gfab-netlist
//!
//! Gate-level combinational netlist IR for Galois field arithmetic
//! circuits, together with the structural analyses the word-level
//! abstraction flow needs.
//!
//! * [`Netlist`] — single-driver combinational circuits built from 1- and
//!   2-input gates, with **word bindings**: groups of nets declared as the
//!   bit-vector inputs `A, B, …` and output `Z` over `F_{2^k}`
//!   (`A = a_0 + a_1 α + … + a_{k-1} α^{k-1}`, Eqn. (1) of the paper).
//! * [`topo`] — topological gate order, reverse-topological net levels, and
//!   the net ordering underlying the paper's **RATO** (Refined Abstraction
//!   Term Order, Definition 5.1).
//! * [`sim`] — scalar and 64-way bit-parallel simulation, including
//!   word-level simulation against the field context.
//! * [`opt`] — constant propagation and dead-gate elimination (used by the
//!   Montgomery generator: the paper notes blocks "simplified by
//!   constant-propagation").
//! * [`mutate`] — deterministic bug injection (gate-type swaps, input
//!   swaps) for the buggy-circuit experiments.
//! * [`miter`] — word-aligned miter construction for the SAT baseline.
//! * [`hierarchy`] — word-connected block instances (the four-block
//!   Montgomery multiplier of Fig. 1) with flattening.
//! * [`canon`] — canonical content encoding + FNV-1a hashing, the
//!   artifact-cache key for batch verification.
//! * [`format`](mod@format) — a small text netlist format (parse/emit) so circuits can
//!   be stored on disk and exchanged.
//!
//! # Example
//!
//! ```
//! use gfab_netlist::{Netlist, GateKind};
//!
//! // The 2-bit multiplier of Fig. 2 of the paper.
//! let mut nl = Netlist::new("fig2");
//! let a = nl.add_input_word("A", 2);
//! let b = nl.add_input_word("B", 2);
//! let s0 = nl.gate2(GateKind::And, a[0], b[0]);
//! let s1 = nl.gate2(GateKind::And, a[0], b[1]);
//! let s2 = nl.gate2(GateKind::And, a[1], b[0]);
//! let s3 = nl.gate2(GateKind::And, a[1], b[1]);
//! let r0 = nl.gate2(GateKind::Xor, s1, s2);
//! let z0 = nl.gate2(GateKind::Xor, s0, s3);
//! let z1 = nl.gate2(GateKind::Xor, r0, s3);
//! nl.set_output_word("Z", vec![z0, z1]);
//! nl.validate().unwrap();
//! assert_eq!(nl.num_gates(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod format;
mod gate;
pub mod hierarchy;
pub mod miter;
pub mod mutate;
mod netlist;
pub mod opt;
pub mod random;
pub mod sim;
pub mod strash;
pub mod topo;

pub use gate::GateKind;
pub use netlist::{Gate, GateId, NetId, Netlist, NetlistError, Word};
