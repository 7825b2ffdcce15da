//! Gate primitives.

use std::fmt;

/// The combinational gate library.
///
/// Two-input gates take exactly two inputs, `Not`/`Buf` exactly one,
/// constants none. This is the library the abstraction engine knows how to
/// model as polynomials over `F_{2^k}` (Section 4 of the paper):
///
/// | gate   | polynomial (output `z`, inputs `a`, `b`) |
/// |--------|------------------------------------------|
/// | AND    | `z + a·b`                                |
/// | OR     | `z + a + b + a·b`                        |
/// | XOR    | `z + a + b`                              |
/// | XNOR   | `z + a + b + 1`                          |
/// | NAND   | `z + a·b + 1`                            |
/// | NOR    | `z + a + b + a·b + 1`                    |
/// | NOT    | `z + a + 1`                              |
/// | BUF    | `z + a`                                  |
/// | CONST0 | `z`                                      |
/// | CONST1 | `z + 1`                                  |
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR (addition modulo 2).
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// Inverter.
    Not,
    /// Buffer.
    Buf,
    /// Constant 0 driver.
    Const0,
    /// Constant 1 driver.
    Const1,
}

impl GateKind {
    /// The number of inputs this gate kind requires.
    pub fn arity(self) -> usize {
        match self {
            GateKind::And
            | GateKind::Or
            | GateKind::Xor
            | GateKind::Xnor
            | GateKind::Nand
            | GateKind::Nor => 2,
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Const0 | GateKind::Const1 => 0,
        }
    }

    /// Whether the gate's output is the sum of its inputs over `F_2`,
    /// plus 1 for XNOR and NOT: XOR, XNOR, NOT and BUF. Its polynomial is
    /// then linear; AND, OR, NAND and NOR multiply their inputs.
    pub fn is_linear(self) -> bool {
        matches!(
            self,
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf
        )
    }

    /// Evaluates the gate on boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "gate arity mismatch");
        match self {
            GateKind::And => inputs[0] & inputs[1],
            GateKind::Or => inputs[0] | inputs[1],
            GateKind::Xor => inputs[0] ^ inputs[1],
            GateKind::Xnor => !(inputs[0] ^ inputs[1]),
            GateKind::Nand => !(inputs[0] & inputs[1]),
            GateKind::Nor => !(inputs[0] | inputs[1]),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
        }
    }

    /// Evaluates the gate on 64 packed boolean patterns at once.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval_wide(self, inputs: &[u64]) -> u64 {
        assert_eq!(inputs.len(), self.arity(), "gate arity mismatch");
        match self {
            GateKind::And => inputs[0] & inputs[1],
            GateKind::Or => inputs[0] | inputs[1],
            GateKind::Xor => inputs[0] ^ inputs[1],
            GateKind::Xnor => !(inputs[0] ^ inputs[1]),
            GateKind::Nand => !(inputs[0] & inputs[1]),
            GateKind::Nor => !(inputs[0] | inputs[1]),
            GateKind::Not => !inputs[0],
            GateKind::Buf => inputs[0],
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
        }
    }

    /// The lowercase mnemonic used by the text format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
        }
    }

    /// Parses a mnemonic produced by [`GateKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        Some(match s {
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            "not" => GateKind::Not,
            "buf" => GateKind::Buf,
            "const0" => GateKind::Const0,
            "const1" => GateKind::Const1,
            _ => return None,
        })
    }

    /// All gate kinds (useful for exhaustive tests and mutation).
    pub const ALL: [GateKind; 10] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        use GateKind::*;
        let cases = [
            (And, [false, false, false, true]),
            (Or, [false, true, true, true]),
            (Xor, [false, true, true, false]),
            (Xnor, [true, false, false, true]),
            (Nand, [true, true, true, false]),
            (Nor, [true, false, false, false]),
        ];
        for (kind, expect) in cases {
            for (i, &(a, b)) in [(false, false), (false, true), (true, false), (true, true)]
                .iter()
                .enumerate()
            {
                assert_eq!(kind.eval(&[a, b]), expect[i], "{kind} on ({a},{b})");
            }
        }
        assert!(Not.eval(&[false]));
        assert!(!Not.eval(&[true]));
        assert!(Buf.eval(&[true]));
        assert!(!Const0.eval(&[]));
        assert!(Const1.eval(&[]));
    }

    #[test]
    fn wide_eval_matches_scalar() {
        for kind in GateKind::ALL {
            match kind.arity() {
                2 => {
                    for a in [0u64, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA] {
                        for b in [0u64, u64::MAX, 0x5555_5555_5555_5555] {
                            let wide = kind.eval_wide(&[a, b]);
                            for bit in [0, 17, 63] {
                                let sa = (a >> bit) & 1 == 1;
                                let sb = (b >> bit) & 1 == 1;
                                assert_eq!((wide >> bit) & 1 == 1, kind.eval(&[sa, sb]));
                            }
                        }
                    }
                }
                1 => {
                    let wide = kind.eval_wide(&[0xF0F0]);
                    assert_eq!((wide >> 4) & 1 == 1, kind.eval(&[true]));
                    assert_eq!(wide & 1 == 1, kind.eval(&[false]));
                }
                _ => {
                    let wide = kind.eval_wide(&[]);
                    assert_eq!(wide & 1 == 1, kind.eval(&[]));
                }
            }
        }
    }

    #[test]
    fn mnemonic_roundtrip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(GateKind::from_mnemonic("bogus"), None);
    }
}
