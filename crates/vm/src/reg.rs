//! The sixteen integer registers.

use std::fmt;

/// One of the sixteen integer registers.
///
/// `n0`–`n13` are general; `sp` (the stack pointer) and `ra` (the return
/// address) are registers 14 and 15, so every register field fits in a
/// 4-bit nibble — the property BRISC's operand packing relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(u8);

impl Reg {
    /// The stack pointer.
    pub const SP: Reg = Reg(14);
    /// The return-address register.
    pub const RA: Reg = Reg(15);
    /// Number of registers.
    pub const COUNT: u8 = 16;
    /// Argument/result registers (caller-saved), in order.
    pub const ARGS: [Reg; 4] = [Reg(0), Reg(1), Reg(2), Reg(3)];
    /// Scratch registers available to expression evaluation.
    pub const SCRATCH: [Reg; 6] = [Reg(0), Reg(1), Reg(2), Reg(3), Reg(12), Reg(13)];
    /// Callee-saved registers available for variable promotion.
    pub const CALLEE_SAVED: [Reg; 8] = [
        Reg(4),
        Reg(5),
        Reg(6),
        Reg(7),
        Reg(8),
        Reg(9),
        Reg(10),
        Reg(11),
    ];

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub fn new(n: u8) -> Reg {
        assert!(n < Self::COUNT, "register number out of range");
        Reg(n)
    }

    /// The register number (0–15).
    pub fn number(self) -> u8 {
        self.0
    }

    /// Parses `n0`…`n13`, `sp`, or `ra`.
    pub fn from_name(name: &str) -> Option<Reg> {
        match name {
            "sp" => Some(Reg::SP),
            "ra" => Some(Reg::RA),
            _ => {
                let n: u8 = name.strip_prefix('n')?.parse().ok()?;
                (n < 14).then_some(Reg(n))
            }
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::SP => write!(f, "sp"),
            Reg::RA => write!(f, "ra"),
            Reg(n) => write!(f, "n{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for n in 0..Reg::COUNT {
            let r = Reg::new(n);
            assert_eq!(Reg::from_name(&r.to_string()), Some(r));
        }
        assert_eq!(Reg::from_name("sp"), Some(Reg::SP));
        assert_eq!(Reg::from_name("ra"), Some(Reg::RA));
        assert_eq!(Reg::from_name("n14"), None, "sp must not alias n14");
        assert_eq!(Reg::from_name("n16"), None);
        assert_eq!(Reg::from_name("x3"), None);
    }

    #[test]
    fn special_registers_are_distinct_from_scratch() {
        assert!(!Reg::SCRATCH.contains(&Reg::SP));
        assert!(!Reg::SCRATCH.contains(&Reg::RA));
        assert!(!Reg::CALLEE_SAVED.contains(&Reg::SP));
        for r in Reg::CALLEE_SAVED {
            assert!(
                !Reg::SCRATCH.contains(&r),
                "{r} is both scratch and callee-saved"
            );
        }
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn out_of_range_panics() {
        Reg::new(16);
    }
}
