//! The operator vocabulary: opcodes, type suffixes, literal kinds.

use std::fmt;

/// The type suffix on a typed operator (lcc's `I`, `U`, `C`, `S`, `P`, `V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum IrType {
    /// 32-bit signed integer.
    #[default]
    I,
    /// 32-bit unsigned integer.
    U,
    /// 8-bit character.
    C,
    /// 16-bit short.
    S,
    /// 32-bit pointer.
    P,
    /// Void (untyped statements such as `LABELV`, `JUMPV`, `CALLV`).
    V,
}

impl IrType {
    /// Size in bytes of a memory access of this type.
    pub fn size(self) -> u32 {
        match self {
            IrType::C => 1,
            IrType::S => 2,
            IrType::I | IrType::U | IrType::P => 4,
            IrType::V => 0,
        }
    }

    /// One-letter lcc suffix.
    pub fn suffix(self) -> char {
        match self {
            IrType::I => 'I',
            IrType::U => 'U',
            IrType::C => 'C',
            IrType::S => 'S',
            IrType::P => 'P',
            IrType::V => 'V',
        }
    }

    /// Parses a one-letter suffix.
    pub fn from_suffix(c: char) -> Option<Self> {
        Some(match c {
            'I' => IrType::I,
            'U' => IrType::U,
            'C' => IrType::C,
            'S' => IrType::S,
            'P' => IrType::P,
            'V' => IrType::V,
            _ => return None,
        })
    }

    /// All type suffixes, for enumeration in tables.
    pub fn all() -> [IrType; 6] {
        [
            IrType::I,
            IrType::U,
            IrType::C,
            IrType::S,
            IrType::P,
            IrType::V,
        ]
    }
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

/// Literal width flag: the paper augments the base intermediate code
/// "with a few operators with the suffixes 8 and 16 to flag literals that
/// fit in eight or sixteen bits".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Width {
    /// Fits in a signed 8-bit field.
    W8,
    /// Fits in a signed 16-bit field.
    W16,
    /// Needs a full 32-bit field.
    #[default]
    W32,
}

impl Width {
    /// The narrowest width that holds `v`.
    pub fn for_value(v: i64) -> Width {
        if (-128..=127).contains(&v) {
            Width::W8
        } else if (-32_768..=32_767).contains(&v) {
            Width::W16
        } else {
            Width::W32
        }
    }

    /// The width of a constant of type `ty`: `CNSTC` is 8 bits,
    /// `CNSTS` 16, every other constant full width.
    pub fn for_constant(ty: IrType) -> Width {
        match ty {
            IrType::C => Width::W8,
            IrType::S => Width::W16,
            _ => Width::W32,
        }
    }

    /// Bytes occupied by a literal of this width in the binary form.
    pub fn bytes(self) -> u32 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
        }
    }

    /// The printed suffix (`"8"`, `"16"`, or `""` for full width).
    pub fn print_suffix(self) -> &'static str {
        match self {
            Width::W8 => "8",
            Width::W16 => "16",
            Width::W32 => "",
        }
    }
}

/// What kind of literal operand an opcode carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralKind {
    /// No literal.
    None,
    /// An integer constant (`CNST*`).
    Int,
    /// A frame offset (`ADDRL*`, `ADDRF*`).
    Offset,
    /// A label number (branches, `JUMPV`, `LABELV`).
    Label,
    /// A symbol name (`ADDRG*`).
    Symbol,
}

/// A literal operand value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// Integer constant.
    Int(i64),
    /// Frame offset in bytes.
    Offset(i32),
    /// Label number.
    Label(u32),
    /// Global symbol name.
    Symbol(String),
}

impl Literal {
    /// The [`LiteralKind`] of this literal.
    pub fn kind(&self) -> LiteralKind {
        match self {
            Literal::Int(_) => LiteralKind::Int,
            Literal::Offset(_) => LiteralKind::Offset,
            Literal::Label(_) => LiteralKind::Label,
            Literal::Symbol(_) => LiteralKind::Symbol,
        }
    }

    /// The width flag of a numeric literal (symbols report full width).
    pub fn width(&self) -> Width {
        match self {
            Literal::Int(v) => Width::for_value(*v),
            Literal::Offset(v) => Width::for_value(i64::from(*v)),
            Literal::Label(v) => Width::for_value(i64::from(*v)),
            Literal::Symbol(_) => Width::W32,
        }
    }
}

/// `Int(0)`: the placeholder a decoder overwrites.
impl Default for Literal {
    fn default() -> Self {
        Literal::Int(0)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Offset(v) => write!(f, "{v}"),
            Literal::Label(v) => write!(f, "{v}"),
            Literal::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// Base opcodes of the tree IR (before type suffixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Opcode {
    /// Integer constant; literal: [`LiteralKind::Int`].
    #[default]
    Cnst,
    /// Address of a global symbol; literal: [`LiteralKind::Symbol`].
    AddrG,
    /// Address of a formal parameter at a frame offset.
    AddrF,
    /// Address of a local at a frame offset.
    AddrL,
    /// Load through the address given by the child.
    Indir,
    /// Store: `ASGN(addr, value)`.
    Asgn,
    /// Convert the child from the `from` type to the operator type.
    Cvt,
    /// Arithmetic negate.
    Neg,
    /// Bitwise complement.
    BCom,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Mod,
    /// Bitwise and.
    BAnd,
    /// Bitwise or.
    BOr,
    /// Bitwise xor.
    BXor,
    /// Left shift.
    Lsh,
    /// Right shift (arithmetic for `I`, logical for `U`).
    Rsh,
    /// Branch to the label if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less.
    Lt,
    /// Branch if less or equal.
    Le,
    /// Branch if greater.
    Gt,
    /// Branch if greater or equal.
    Ge,
    /// Push an argument for the next call.
    Arg,
    /// Call the function whose address is the child; typed by result.
    Call,
    /// Return, with an optional value child.
    Ret,
    /// Unconditional jump to a label.
    Jump,
    /// Label definition point.
    LabelDef,
}

impl Opcode {
    /// All opcodes, for table construction.
    pub const ALL: [Opcode; 30] = [
        Opcode::Cnst,
        Opcode::AddrG,
        Opcode::AddrF,
        Opcode::AddrL,
        Opcode::Indir,
        Opcode::Asgn,
        Opcode::Cvt,
        Opcode::Neg,
        Opcode::BCom,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Mod,
        Opcode::BAnd,
        Opcode::BOr,
        Opcode::BXor,
        Opcode::Lsh,
        Opcode::Rsh,
        Opcode::Eq,
        Opcode::Ne,
        Opcode::Lt,
        Opcode::Le,
        Opcode::Gt,
        Opcode::Ge,
        Opcode::Arg,
        Opcode::Call,
        Opcode::Ret,
        Opcode::Jump,
        Opcode::LabelDef,
    ];

    /// The lcc-style mnemonic (without type suffix).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Cnst => "CNST",
            Opcode::AddrG => "ADDRG",
            Opcode::AddrF => "ADDRF",
            Opcode::AddrL => "ADDRL",
            Opcode::Indir => "INDIR",
            Opcode::Asgn => "ASGN",
            Opcode::Cvt => "CVT",
            Opcode::Neg => "NEG",
            Opcode::BCom => "BCOM",
            Opcode::Add => "ADD",
            Opcode::Sub => "SUB",
            Opcode::Mul => "MUL",
            Opcode::Div => "DIV",
            Opcode::Mod => "MOD",
            Opcode::BAnd => "BAND",
            Opcode::BOr => "BOR",
            Opcode::BXor => "BXOR",
            Opcode::Lsh => "LSH",
            Opcode::Rsh => "RSH",
            Opcode::Eq => "EQ",
            Opcode::Ne => "NE",
            Opcode::Lt => "LT",
            Opcode::Le => "LE",
            Opcode::Gt => "GT",
            Opcode::Ge => "GE",
            Opcode::Arg => "ARG",
            Opcode::Call => "CALL",
            Opcode::Ret => "RET",
            Opcode::Jump => "JUMP",
            Opcode::LabelDef => "LABEL",
        }
    }

    /// Child count, where `None` means variable (only [`Opcode::Ret`]: 0 or 1).
    pub fn arity(self) -> Option<usize> {
        Some(match self {
            Opcode::Cnst
            | Opcode::AddrG
            | Opcode::AddrF
            | Opcode::AddrL
            | Opcode::Jump
            | Opcode::LabelDef => 0,
            Opcode::Indir
            | Opcode::Cvt
            | Opcode::Neg
            | Opcode::BCom
            | Opcode::Arg
            | Opcode::Call => 1,
            Opcode::Asgn
            | Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Div
            | Opcode::Mod
            | Opcode::BAnd
            | Opcode::BOr
            | Opcode::BXor
            | Opcode::Lsh
            | Opcode::Rsh
            | Opcode::Eq
            | Opcode::Ne
            | Opcode::Lt
            | Opcode::Le
            | Opcode::Gt
            | Opcode::Ge => 2,
            Opcode::Ret => return None,
        })
    }

    /// The literal operand kind this opcode carries.
    pub fn literal_kind(self) -> LiteralKind {
        match self {
            Opcode::Cnst => LiteralKind::Int,
            Opcode::AddrG => LiteralKind::Symbol,
            Opcode::AddrF | Opcode::AddrL => LiteralKind::Offset,
            Opcode::Eq
            | Opcode::Ne
            | Opcode::Lt
            | Opcode::Le
            | Opcode::Gt
            | Opcode::Ge
            | Opcode::Jump
            | Opcode::LabelDef => LiteralKind::Label,
            _ => LiteralKind::None,
        }
    }

    /// Coarse operator class, used for per-class telemetry attribution
    /// (`ir.nodes.<class>` counters) and ablation grouping.
    pub fn class(self) -> &'static str {
        match self {
            Opcode::Cnst => "const",
            Opcode::AddrG | Opcode::AddrF | Opcode::AddrL => "addr",
            Opcode::Indir | Opcode::Asgn => "mem",
            Opcode::Cvt => "cvt",
            Opcode::Neg | Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Div | Opcode::Mod => {
                "arith"
            }
            Opcode::BCom | Opcode::BAnd | Opcode::BOr | Opcode::BXor => "bitwise",
            Opcode::Lsh | Opcode::Rsh => "shift",
            Opcode::Eq
            | Opcode::Ne
            | Opcode::Lt
            | Opcode::Le
            | Opcode::Gt
            | Opcode::Ge
            | Opcode::Jump
            | Opcode::LabelDef => "branch",
            Opcode::Arg | Opcode::Call | Opcode::Ret => "call",
        }
    }

    /// Whether this opcode is a conditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Opcode::Eq | Opcode::Ne | Opcode::Lt | Opcode::Le | Opcode::Gt | Opcode::Ge
        )
    }

    /// Looks up an opcode by mnemonic.
    pub fn from_name(name: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| op.name() == name)
    }
}

/// A fully-qualified operator: opcode + type suffix (+ conversion source
/// type for `CVT`).
///
/// Equality on `Op` is what stream separation keys on: `ADDRLP8` and
/// `ADDRLP` are different operators for compression purposes, which is
/// why the width flag lives on the *tree node* (it derives from the
/// literal) rather than here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Op {
    /// Base opcode.
    pub opcode: Opcode,
    /// Result/operand type suffix.
    pub ty: IrType,
    /// Source type, only for [`Opcode::Cvt`].
    pub from: Option<IrType>,
}

impl Op {
    /// A typed operator.
    pub fn new(opcode: Opcode, ty: IrType) -> Self {
        Self {
            opcode,
            ty,
            from: None,
        }
    }

    /// A conversion operator `CV<from><to>`.
    pub fn cvt(from: IrType, to: IrType) -> Self {
        Self {
            opcode: Opcode::Cvt,
            ty: to,
            from: Some(from),
        }
    }

    /// Child count of a node with this operator. Only `RET` varies,
    /// with its type: `RETV` has no child, `RET<t>` one.
    pub fn arity(self) -> usize {
        self.opcode
            .arity()
            .unwrap_or(usize::from(self.ty != IrType::V))
    }

    /// The printed mnemonic including type suffix(es), e.g. `ASGNI`,
    /// `CVCI`, `ADDRLP`, `LABELV`.
    pub fn mnemonic(&self) -> String {
        match self.opcode {
            Opcode::Cvt => {
                let from = self.from.expect("CVT always has a source type");
                format!("CV{}{}", from.suffix(), self.ty.suffix())
            }
            // Address operators always print with the P suffix, as lcc does.
            Opcode::AddrG | Opcode::AddrF | Opcode::AddrL => {
                format!("{}P", self.opcode.name())
            }
            Opcode::LabelDef | Opcode::Jump => format!("{}V", self.opcode.name()),
            _ => format!("{}{}", self.opcode.name(), self.ty.suffix()),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_classification() {
        assert_eq!(Width::for_value(0), Width::W8);
        assert_eq!(Width::for_value(127), Width::W8);
        assert_eq!(Width::for_value(-128), Width::W8);
        assert_eq!(Width::for_value(128), Width::W16);
        assert_eq!(Width::for_value(-129), Width::W16);
        assert_eq!(Width::for_value(32_767), Width::W16);
        assert_eq!(Width::for_value(32_768), Width::W32);
        assert_eq!(Width::for_value(-1_000_000), Width::W32);
    }

    #[test]
    fn type_sizes() {
        assert_eq!(IrType::C.size(), 1);
        assert_eq!(IrType::S.size(), 2);
        assert_eq!(IrType::I.size(), 4);
        assert_eq!(IrType::P.size(), 4);
        assert_eq!(IrType::V.size(), 0);
    }

    #[test]
    fn suffix_roundtrip() {
        for t in IrType::all() {
            assert_eq!(IrType::from_suffix(t.suffix()), Some(t));
        }
        assert_eq!(IrType::from_suffix('X'), None);
    }

    #[test]
    fn opcode_names_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_name(op.name()), Some(op));
        }
        assert_eq!(Opcode::from_name("NOPE"), None);
    }

    #[test]
    fn mnemonics_match_lcc_style() {
        assert_eq!(Op::new(Opcode::Asgn, IrType::I).mnemonic(), "ASGNI");
        assert_eq!(Op::new(Opcode::AddrL, IrType::P).mnemonic(), "ADDRLP");
        assert_eq!(Op::new(Opcode::Cnst, IrType::C).mnemonic(), "CNSTC");
        assert_eq!(Op::cvt(IrType::C, IrType::I).mnemonic(), "CVCI");
        assert_eq!(Op::new(Opcode::LabelDef, IrType::V).mnemonic(), "LABELV");
        assert_eq!(Op::new(Opcode::Call, IrType::I).mnemonic(), "CALLI");
    }

    #[test]
    fn literal_kinds() {
        assert_eq!(Opcode::Cnst.literal_kind(), LiteralKind::Int);
        assert_eq!(Opcode::AddrG.literal_kind(), LiteralKind::Symbol);
        assert_eq!(Opcode::AddrL.literal_kind(), LiteralKind::Offset);
        assert_eq!(Opcode::Le.literal_kind(), LiteralKind::Label);
        assert_eq!(Opcode::Add.literal_kind(), LiteralKind::None);
    }

    #[test]
    fn arities() {
        assert_eq!(Opcode::Cnst.arity(), Some(0));
        assert_eq!(Opcode::Indir.arity(), Some(1));
        assert_eq!(Opcode::Asgn.arity(), Some(2));
        assert_eq!(Opcode::Le.arity(), Some(2));
        assert_eq!(Opcode::Ret.arity(), None);
    }

    #[test]
    fn literal_width_and_display() {
        assert_eq!(Literal::Int(5).width(), Width::W8);
        assert_eq!(Literal::Offset(300).width(), Width::W16);
        assert_eq!(Literal::Symbol("f".into()).width(), Width::W32);
        assert_eq!(Literal::Int(-3).to_string(), "-3");
        assert_eq!(Literal::Symbol("pepper".into()).to_string(), "pepper");
    }
}
