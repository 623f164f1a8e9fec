//! The instruction set.

use crate::reg::Reg;
use std::fmt;

/// ALU operation selectors shared by register and immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division.
    Div,
    /// Unsigned division.
    DivU,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
}

impl AluOp {
    /// All ALU operations.
    pub const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::DivU,
        AluOp::Rem,
        AluOp::RemU,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
    ];

    /// The mnemonic stem (`add`, `divu`, …).
    pub fn name(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::DivU => "divu",
            AluOp::Rem => "rem",
            AluOp::RemU => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    LtU,
    /// Unsigned less-or-equal.
    LeU,
    /// Unsigned greater-than.
    GtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl Cond {
    /// All conditions.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::LtU,
        Cond::LeU,
        Cond::GtU,
        Cond::GeU,
    ];

    /// The mnemonic stem (`beq` prints as `beq.i`).
    pub fn name(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
            Cond::LtU => "bltu",
            Cond::LeU => "bleu",
            Cond::GtU => "bgtu",
            Cond::GeU => "bgeu",
        }
    }

    /// Evaluates the condition on 32-bit truncated operands.
    pub fn holds(self, a: i64, b: i64) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        let (ua, ub) = (a as u32, b as u32);
        match self {
            Cond::Eq => sa == sb,
            Cond::Ne => sa != sb,
            Cond::Lt => sa < sb,
            Cond::Le => sa <= sb,
            Cond::Gt => sa > sb,
            Cond::Ge => sa >= sb,
            Cond::LtU => ua < ub,
            Cond::LeU => ua <= ub,
            Cond::GtU => ua > ub,
            Cond::GeU => ua >= ub,
        }
    }
}

/// Memory access widths (`.iw`, `.is`, `.ib` suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// 8-bit, sign-extending on load.
    Byte,
    /// 16-bit, sign-extending on load.
    Short,
    /// 32-bit word.
    Word,
}

impl MemWidth {
    /// Bytes accessed.
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Short => 2,
            MemWidth::Word => 4,
        }
    }

    /// The mnemonic suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            MemWidth::Byte => "ib",
            MemWidth::Short => "is",
            MemWidth::Word => "iw",
        }
    }
}

/// A function reference in a `call`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FuncRef {
    /// A function in the same program, by name (resolved at link).
    Symbol(String),
}

/// One VM instruction.
///
/// Every variant is a real instruction that encodes per
/// [`crate::encode`]. A branch target is the index of an instruction in
/// the same function's code; the assembler's `$L` names are syntax for
/// those indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Inst {
    /// `li rd, imm` — load immediate (the one immediate primitive that
    /// survives de-tuning).
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// `mov.i rd, rs`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `op.i rd, rs, rt` — three-register ALU.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
    },
    /// `op.i rd, rs, imm` — ALU with immediate (absent when de-tuned).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Immediate right operand.
        imm: i32,
    },
    /// `neg.i rd, rs`.
    Neg {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `not.i rd, rs` — bitwise complement.
    Not {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `sext.ib rd, rs` / `sext.is` — sign-extend the low 8/16 bits.
    Sext {
        /// Width to extend from ([`MemWidth::Word`] is invalid).
        width: MemWidth,
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `ld.iw rd, off(rb)` — load (register-displacement; absent when
    /// de-tuned, where only `off == 0` survives).
    Load {
        /// Access width.
        width: MemWidth,
        /// Destination.
        rd: Reg,
        /// Displacement.
        off: i32,
        /// Base register.
        base: Reg,
    },
    /// `st.iw rs, off(rb)` — store.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value register.
        rs: Reg,
        /// Displacement.
        off: i32,
        /// Base register.
        base: Reg,
    },
    /// `spill.i rs, off(sp)` — callee-saved spill (always sp-based).
    Spill {
        /// Register being saved.
        rs: Reg,
        /// Frame offset.
        off: i32,
    },
    /// `reload.i rd, off(sp)`.
    Reload {
        /// Register being restored.
        rd: Reg,
        /// Frame offset.
        off: i32,
    },
    /// `enter sp,sp,N` — allocate an `N`-byte frame.
    Enter {
        /// Frame size in bytes.
        amount: i32,
    },
    /// `exit sp,sp,N` — release the frame.
    Exit {
        /// Frame size in bytes.
        amount: i32,
    },
    /// `bcc.i rs, rt, $L` — compare-and-branch, register form.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left operand.
        rs: Reg,
        /// Right operand.
        rt: Reg,
        /// Target instruction index in the function.
        target: u32,
    },
    /// `bcc.i rs, imm, $L` — compare-and-branch against an immediate.
    BranchImm {
        /// Condition.
        cond: Cond,
        /// Left operand.
        rs: Reg,
        /// Immediate right operand.
        imm: i32,
        /// Target instruction index in the function.
        target: u32,
    },
    /// `j $L` — unconditional jump.
    Jump {
        /// Target instruction index in the function.
        target: u32,
    },
    /// `call f`.
    Call {
        /// Callee.
        target: FuncRef,
    },
    /// `callr rs` — indirect call through a register.
    CallR {
        /// Register holding the function address.
        rs: Reg,
    },
    /// `rjr rs` — jump through a register (function return is `rjr ra`).
    Rjr {
        /// Register holding the return address.
        rs: Reg,
    },
    /// `epi` — macro epilogue: restore callee-saved registers and `ra`
    /// from their conventional slots, release the frame, and return.
    Epi,
    /// `bcopy rd, rs, rn` — macro block copy of `rn` bytes.
    Bcopy {
        /// Destination address register.
        rd: Reg,
        /// Source address register.
        rs: Reg,
        /// Length register.
        rn: Reg,
    },
    /// `bzero rd, rn` — macro block zero of `rn` bytes.
    Bzero {
        /// Destination address register.
        rd: Reg,
        /// Length register.
        rn: Reg,
    },
    /// `nop`.
    #[default]
    Nop,
}

impl Inst {
    /// The branch target of a branch or jump.
    pub fn target(&self) -> Option<u32> {
        match self {
            Inst::Branch { target, .. }
            | Inst::BranchImm { target, .. }
            | Inst::Jump { target } => Some(*target),
            _ => None,
        }
    }

    /// [`Inst::target`], for rewriting.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Inst::Branch { target, .. }
            | Inst::BranchImm { target, .. }
            | Inst::Jump { target } => Some(target),
            _ => None,
        }
    }

    /// Whether control can fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Inst::Jump { .. } | Inst::Rjr { .. } | Inst::Epi)
    }

    /// Whether this instruction starts a basic block boundary after it
    /// (branches, jumps, calls, returns).
    pub fn ends_block(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. }
                | Inst::BranchImm { .. }
                | Inst::Jump { .. }
                | Inst::Call { .. }
                | Inst::CallR { .. }
                | Inst::Rjr { .. }
                | Inst::Epi
        )
    }
}

/// Which optional ISA conveniences are available — the §5 de-tuning axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IsaConfig {
    /// ALU-immediate and branch-immediate forms are available.
    pub immediates: bool,
    /// Register-displacement addressing (`off(rb)` with `off != 0`,
    /// including `spill`/`reload`) is available.
    pub reg_displacement: bool,
}

impl IsaConfig {
    /// The full RISC (paper row "RISC").
    pub fn full() -> Self {
        Self {
            immediates: true,
            reg_displacement: true,
        }
    }

    /// "minus immediates".
    pub fn no_immediates() -> Self {
        Self {
            immediates: false,
            reg_displacement: true,
        }
    }

    /// "minus register-displacement".
    pub fn no_reg_displacement() -> Self {
        Self {
            immediates: true,
            reg_displacement: false,
        }
    }

    /// "minus both" — the minimal abstract machine.
    pub fn minimal() -> Self {
        Self {
            immediates: false,
            reg_displacement: false,
        }
    }

    /// All four variants in the paper's table order.
    pub fn variants() -> [(&'static str, IsaConfig); 4] {
        [
            ("RISC", IsaConfig::full()),
            ("minus immediates", IsaConfig::no_immediates()),
            (
                "minus register-displacement",
                IsaConfig::no_reg_displacement(),
            ),
            ("minus both", IsaConfig::minimal()),
        ]
    }
}

impl Default for IsaConfig {
    fn default() -> Self {
        Self::full()
    }
}

impl fmt::Display for IsaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.immediates, self.reg_displacement) {
            (true, true) => write!(f, "RISC"),
            (false, true) => write!(f, "RISC minus immediates"),
            (true, false) => write!(f, "RISC minus register-displacement"),
            (false, false) => write!(f, "RISC minus both"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_semantics() {
        assert!(Cond::Lt.holds(-1, 0));
        assert!(!Cond::LtU.holds(-1, 0), "-1 is big unsigned");
        assert!(Cond::GtU.holds(-1, 0));
        assert!(Cond::Le.holds(3, 3));
        assert!(Cond::Ge.holds(3, 3));
        assert!(Cond::Ne.holds(1, 2));
        assert!(
            Cond::Eq.holds(i64::from(u32::MAX) + 1, 0),
            "compare truncates to 32 bits"
        );
    }

    #[test]
    fn block_structure_predicates() {
        assert!(Inst::Jump { target: 1 }.ends_block());
        assert!(!Inst::Jump { target: 1 }.falls_through());
        assert!(Inst::Call {
            target: FuncRef::Symbol("f".into())
        }
        .falls_through());
        assert!(Inst::Call {
            target: FuncRef::Symbol("f".into())
        }
        .ends_block());
        assert!(Inst::Nop.falls_through());
        assert!(!Inst::Epi.falls_through());
        assert_eq!(Inst::Jump { target: 3 }.target(), Some(3));
        assert_eq!(Inst::Epi.target(), None);
    }

    #[test]
    fn isa_variants_cover_the_paper_table() {
        let v = IsaConfig::variants();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].1, IsaConfig::full());
        assert_eq!(v[3].1, IsaConfig::minimal());
        assert_eq!(IsaConfig::full().to_string(), "RISC");
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::Byte.bytes(), 1);
        assert_eq!(MemWidth::Short.bytes(), 2);
        assert_eq!(MemWidth::Word.bytes(), 4);
    }
}
