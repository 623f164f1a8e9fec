//! The quantized byte encoding of VM programs.
//!
//! This is the *uncompressed* OmniVM executable form that BRISC takes as
//! input: one opcode byte per instruction, register fields packed two to
//! a byte (16 registers → 4 bits each), immediates in the narrowest of
//! 1/2/4 bytes (selected by the opcode variant), branch targets and
//! function symbols in 2 bytes. Under this layout `enter sp,sp,24`
//! occupies 3 bytes, matching the paper's worked example.
//!
//! The module also exposes the *field view* ([`base_op`], [`fields`],
//! [`rebuild`]) that the BRISC compressor patternizes over: a base
//! instruction pattern is a [`BaseOp`] with every field wildcarded, and
//! operand specialization burns [`Field`] values in one at a time.

use crate::isa::{AluOp, Cond, FuncRef, Inst, MemWidth};
use crate::program::VmProgram;
use crate::reg::Reg;
use crate::VmError;
use codecomp_core::bytesio::{Io, SymbolTable};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Base-pattern identity: the mnemonic with all operand fields wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum BaseOp {
    /// `li *,*`
    Li,
    /// `mov.i *,*`
    Mov,
    /// `<op>.i *,*,*`
    Alu(AluOp),
    /// `<op>.i *,*,imm`
    AluImm(AluOp),
    /// `neg.i *,*`
    Neg,
    /// `not.i *,*`
    Not,
    /// `sext.* *,*`
    Sext(MemWidth),
    /// `ld.* *,*(*)`
    Load(MemWidth),
    /// `st.* *,*(*)`
    Store(MemWidth),
    /// `spill.i *,*(sp)`
    Spill,
    /// `reload.i *,*(sp)`
    Reload,
    /// `enter *,*,*`
    Enter,
    /// `exit *,*,*`
    Exit,
    /// `b<cond>.i *,*,$L`
    Branch(Cond),
    /// `b<cond>.i *,imm,$L`
    BranchImm(Cond),
    /// `j $L`
    Jump,
    /// `call f`
    Call,
    /// `callr *`
    CallR,
    /// `rjr *`
    Rjr,
    /// `epi`
    Epi,
    /// `bcopy *,*,*`
    Bcopy,
    /// `bzero *,*`
    Bzero,
    /// `nop`
    #[default]
    Nop,
}

impl BaseOp {
    /// Every base pattern, in canonical order.
    pub fn all() -> Vec<BaseOp> {
        let mut v = vec![BaseOp::Li, BaseOp::Mov];
        for op in AluOp::ALL {
            v.push(BaseOp::Alu(op));
        }
        for op in AluOp::ALL {
            v.push(BaseOp::AluImm(op));
        }
        v.push(BaseOp::Neg);
        v.push(BaseOp::Not);
        v.push(BaseOp::Sext(MemWidth::Byte));
        v.push(BaseOp::Sext(MemWidth::Short));
        for w in [MemWidth::Byte, MemWidth::Short, MemWidth::Word] {
            v.push(BaseOp::Load(w));
        }
        for w in [MemWidth::Byte, MemWidth::Short, MemWidth::Word] {
            v.push(BaseOp::Store(w));
        }
        v.extend([BaseOp::Spill, BaseOp::Reload, BaseOp::Enter, BaseOp::Exit]);
        for c in Cond::ALL {
            v.push(BaseOp::Branch(c));
        }
        for c in Cond::ALL {
            v.push(BaseOp::BranchImm(c));
        }
        v.extend([
            BaseOp::Jump,
            BaseOp::Call,
            BaseOp::CallR,
            BaseOp::Rjr,
            BaseOp::Epi,
            BaseOp::Bcopy,
            BaseOp::Bzero,
            BaseOp::Nop,
        ]);
        v
    }

    /// The mnemonic this base pattern prints with.
    pub fn mnemonic(self) -> String {
        match self {
            BaseOp::Li => "li".into(),
            BaseOp::Mov => "mov.i".into(),
            BaseOp::Alu(op) | BaseOp::AluImm(op) => format!("{}.i", op.name()),
            BaseOp::Neg => "neg.i".into(),
            BaseOp::Not => "not.i".into(),
            BaseOp::Sext(w) => format!("sext.{}", w.suffix()),
            BaseOp::Load(w) => format!("ld.{}", w.suffix()),
            BaseOp::Store(w) => format!("st.{}", w.suffix()),
            BaseOp::Spill => "spill.i".into(),
            BaseOp::Reload => "reload.i".into(),
            BaseOp::Enter => "enter".into(),
            BaseOp::Exit => "exit".into(),
            BaseOp::Branch(c) | BaseOp::BranchImm(c) => format!("{}.i", c.name()),
            BaseOp::Jump => "j".into(),
            BaseOp::Call => "call".into(),
            BaseOp::CallR => "callr".into(),
            BaseOp::Rjr => "rjr".into(),
            BaseOp::Epi => "epi".into(),
            BaseOp::Bcopy => "bcopy".into(),
            BaseOp::Bzero => "bzero".into(),
            BaseOp::Nop => "nop".into(),
        }
    }
}

/// One operand field value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// A 4-bit register field.
    Reg(Reg),
    /// An immediate (1/2/4-byte encoded).
    Imm(i32),
    /// A branch target: an instruction index in the function (2 bytes).
    Target(u32),
    /// A function symbol (2-byte index into the program symbol table).
    Func(String),
}

impl Field {
    /// The borrowed view of this field.
    pub fn to_ref(&self) -> FieldRef<'_> {
        match self {
            Field::Reg(r) => FieldRef::Reg(*r),
            Field::Imm(v) => FieldRef::Imm(*v),
            Field::Target(t) => FieldRef::Target(*t),
            Field::Func(name) => FieldRef::Func(name),
        }
    }

    /// Field width in bits in the base encoding.
    pub fn bits(&self) -> u32 {
        match self {
            Field::Reg(_) => 4,
            Field::Imm(v) => imm_width(*v).bits(),
            Field::Target(_) | Field::Func(_) => 16,
        }
    }
}

/// Immediate width variants selected by the opcode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum ImmWidth {
    /// No immediate field.
    #[default]
    None,
    /// Signed 8-bit.
    W8,
    /// Signed 16-bit.
    W16,
    /// 32-bit.
    W32,
}

impl ImmWidth {
    /// Bits occupied.
    pub fn bits(self) -> u32 {
        match self {
            ImmWidth::None => 0,
            ImmWidth::W8 => 8,
            ImmWidth::W16 => 16,
            ImmWidth::W32 => 32,
        }
    }
}

/// The narrowest width holding `v`.
pub fn imm_width(v: i32) -> ImmWidth {
    if (-128..=127).contains(&v) {
        ImmWidth::W8
    } else if (-32_768..=32_767).contains(&v) {
        ImmWidth::W16
    } else {
        ImmWidth::W32
    }
}

/// Whether this base pattern has an immediate operand field.
pub fn has_imm(op: BaseOp) -> bool {
    matches!(
        op,
        BaseOp::Li
            | BaseOp::AluImm(_)
            | BaseOp::Load(_)
            | BaseOp::Store(_)
            | BaseOp::Spill
            | BaseOp::Reload
            | BaseOp::Enter
            | BaseOp::Exit
            | BaseOp::BranchImm(_)
    )
}

/// The base pattern of an instruction.
pub fn base_op(inst: &Inst) -> BaseOp {
    match inst {
        Inst::Li { .. } => BaseOp::Li,
        Inst::Mov { .. } => BaseOp::Mov,
        Inst::Alu { op, .. } => BaseOp::Alu(*op),
        Inst::AluImm { op, .. } => BaseOp::AluImm(*op),
        Inst::Neg { .. } => BaseOp::Neg,
        Inst::Not { .. } => BaseOp::Not,
        Inst::Sext { width, .. } => BaseOp::Sext(*width),
        Inst::Load { width, .. } => BaseOp::Load(*width),
        Inst::Store { width, .. } => BaseOp::Store(*width),
        Inst::Spill { .. } => BaseOp::Spill,
        Inst::Reload { .. } => BaseOp::Reload,
        Inst::Enter { .. } => BaseOp::Enter,
        Inst::Exit { .. } => BaseOp::Exit,
        Inst::Branch { cond, .. } => BaseOp::Branch(*cond),
        Inst::BranchImm { cond, .. } => BaseOp::BranchImm(*cond),
        Inst::Jump { .. } => BaseOp::Jump,
        Inst::Call { .. } => BaseOp::Call,
        Inst::CallR { .. } => BaseOp::CallR,
        Inst::Rjr { .. } => BaseOp::Rjr,
        Inst::Epi => BaseOp::Epi,
        Inst::Bcopy { .. } => BaseOp::Bcopy,
        Inst::Bzero { .. } => BaseOp::Bzero,
        Inst::Nop => BaseOp::Nop,
    }
}

/// One operand field, borrowed: [`Field`] without owning a call's
/// symbol, so reading an instruction's fields never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldRef<'a> {
    /// A 4-bit register field.
    Reg(Reg),
    /// An immediate.
    Imm(i32),
    /// A branch target: an instruction index in the function.
    Target(u32),
    /// A function symbol.
    Func(&'a str),
}

impl FieldRef<'_> {
    /// The owned field.
    pub fn to_field(self) -> Field {
        match self {
            FieldRef::Reg(r) => Field::Reg(r),
            FieldRef::Imm(v) => Field::Imm(v),
            FieldRef::Target(t) => Field::Target(t),
            FieldRef::Func(name) => Field::Func(name.to_string()),
        }
    }
}

impl PartialEq<Field> for FieldRef<'_> {
    fn eq(&self, other: &Field) -> bool {
        match (self, other) {
            (FieldRef::Reg(a), Field::Reg(b)) => a == b,
            (FieldRef::Imm(a), Field::Imm(b)) => a == b,
            (FieldRef::Target(a), Field::Target(b)) => a == b,
            (FieldRef::Func(a), Field::Func(b)) => *a == b,
            _ => false,
        }
    }
}

/// An instruction's operand fields on the stack (no instruction has
/// more than three); derefs to the slice of them.
#[derive(Debug, Clone, Copy)]
pub struct FieldRefs<'a> {
    slots: [FieldRef<'a>; 3],
    len: usize,
}

impl<'a> FieldRefs<'a> {
    fn of(fs: &[FieldRef<'a>]) -> Self {
        let mut slots = [FieldRef::Imm(0); 3];
        slots[..fs.len()].copy_from_slice(fs);
        FieldRefs {
            slots,
            len: fs.len(),
        }
    }
}

impl<'a> std::ops::Deref for FieldRefs<'a> {
    type Target = [FieldRef<'a>];
    fn deref(&self) -> &[FieldRef<'a>] {
        &self.slots[..self.len]
    }
}

/// The operand fields of an instruction, in canonical order.
///
/// `enter`/`exit` expose their two (always-`sp`) register fields because
/// the encoding transmits them — this is what makes `[enter sp,*,*]` a
/// meaningful operand specialization in the paper's worked example.
pub fn fields(inst: &Inst) -> Vec<Field> {
    field_refs(inst).iter().map(|f| f.to_field()).collect()
}

/// [`fields`], borrowed and on the stack: never allocates.
pub fn field_refs(inst: &Inst) -> FieldRefs<'_> {
    use FieldRef as F;
    let sp = F::Reg(Reg::SP);
    match inst {
        Inst::Li { rd, imm } => FieldRefs::of(&[F::Reg(*rd), F::Imm(*imm)]),
        Inst::Mov { rd, rs }
        | Inst::Neg { rd, rs }
        | Inst::Not { rd, rs }
        | Inst::Sext { rd, rs, .. } => FieldRefs::of(&[F::Reg(*rd), F::Reg(*rs)]),
        Inst::Alu { rd, rs, rt, .. } => FieldRefs::of(&[F::Reg(*rd), F::Reg(*rs), F::Reg(*rt)]),
        Inst::AluImm { rd, rs, imm, .. } => {
            FieldRefs::of(&[F::Reg(*rd), F::Reg(*rs), F::Imm(*imm)])
        }
        Inst::Load { rd, off, base, .. } => {
            FieldRefs::of(&[F::Reg(*rd), F::Imm(*off), F::Reg(*base)])
        }
        Inst::Store { rs, off, base, .. } => {
            FieldRefs::of(&[F::Reg(*rs), F::Imm(*off), F::Reg(*base)])
        }
        Inst::Spill { rs, off } => FieldRefs::of(&[F::Reg(*rs), F::Imm(*off)]),
        Inst::Reload { rd, off } => FieldRefs::of(&[F::Reg(*rd), F::Imm(*off)]),
        Inst::Enter { amount } | Inst::Exit { amount } => FieldRefs::of(&[sp, sp, F::Imm(*amount)]),
        Inst::Branch { rs, rt, target, .. } => {
            FieldRefs::of(&[F::Reg(*rs), F::Reg(*rt), F::Target(*target)])
        }
        Inst::BranchImm {
            rs, imm, target, ..
        } => FieldRefs::of(&[F::Reg(*rs), F::Imm(*imm), F::Target(*target)]),
        Inst::Jump { target } => FieldRefs::of(&[F::Target(*target)]),
        Inst::Call {
            target: FuncRef::Symbol(name),
        } => FieldRefs::of(&[F::Func(name)]),
        Inst::CallR { rs } | Inst::Rjr { rs } => FieldRefs::of(&[F::Reg(*rs)]),
        Inst::Epi | Inst::Nop => FieldRefs::of(&[]),
        Inst::Bcopy { rd, rs, rn } => FieldRefs::of(&[F::Reg(*rd), F::Reg(*rs), F::Reg(*rn)]),
        Inst::Bzero { rd, rn } => FieldRefs::of(&[F::Reg(*rd), F::Reg(*rn)]),
    }
}

/// Rebuilds an instruction from a base pattern and field values; the
/// inverse of [`base_op`] + [`fields`]: [`canonical_instance`] with each
/// field written by [`set_field`]. Values past the base pattern's arity
/// are ignored.
///
/// # Errors
///
/// [`VmError::Encode`] when the fields do not match the pattern's shape.
pub fn rebuild(op: BaseOp, fs: &[Field]) -> Result<Inst, VmError> {
    let mut inst = canonical_instance(op);
    for slot in 0..field_refs(&inst).len() {
        let written = fs
            .get(slot)
            .is_some_and(|f| set_field(&mut inst, slot, f.to_ref()).is_ok());
        if !written {
            return Err(VmError::Encode(format!(
                "field shape mismatch for {op:?}: {fs:?}"
            )));
        }
    }
    Ok(inst)
}

/// Writes `value` into operand field `slot` of `inst`, numbered as
/// [`field_refs`] lists them; with [`field_refs`], the one place that
/// knows where each field lives. The two `sp` fields of `enter`/`exit`
/// are transmitted but not stored, so writing a register there only
/// checks its kind. A call's symbol reuses the buffer it replaces.
///
/// # Errors
///
/// [`VmError::Encode`] when `inst` has no field `slot` of `value`'s kind.
#[inline]
pub fn set_field(inst: &mut Inst, slot: usize, value: FieldRef<'_>) -> Result<(), VmError> {
    use FieldRef as F;
    match (&mut *inst, slot, value) {
        (
            Inst::Li { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Neg { rd, .. }
            | Inst::Not { rd, .. }
            | Inst::Sext { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Reload { rd, .. }
            | Inst::Bcopy { rd, .. }
            | Inst::Bzero { rd, .. },
            0,
            F::Reg(r),
        )
        | (
            Inst::Store { rs: rd, .. }
            | Inst::Spill { rs: rd, .. }
            | Inst::Branch { rs: rd, .. }
            | Inst::BranchImm { rs: rd, .. }
            | Inst::CallR { rs: rd }
            | Inst::Rjr { rs: rd },
            0,
            F::Reg(r),
        )
        | (
            Inst::Mov { rs: rd, .. }
            | Inst::Neg { rs: rd, .. }
            | Inst::Not { rs: rd, .. }
            | Inst::Sext { rs: rd, .. }
            | Inst::Alu { rs: rd, .. }
            | Inst::AluImm { rs: rd, .. }
            | Inst::Branch { rt: rd, .. }
            | Inst::Bcopy { rs: rd, .. }
            | Inst::Bzero { rn: rd, .. },
            1,
            F::Reg(r),
        )
        | (
            Inst::Alu { rt: rd, .. }
            | Inst::Load { base: rd, .. }
            | Inst::Store { base: rd, .. }
            | Inst::Bcopy { rn: rd, .. },
            2,
            F::Reg(r),
        ) => *rd = r,
        (Inst::Enter { .. } | Inst::Exit { .. }, 0 | 1, F::Reg(_)) => {}
        (
            Inst::Li { imm, .. }
            | Inst::Load { off: imm, .. }
            | Inst::Store { off: imm, .. }
            | Inst::Spill { off: imm, .. }
            | Inst::Reload { off: imm, .. }
            | Inst::BranchImm { imm, .. },
            1,
            F::Imm(v),
        )
        | (
            Inst::AluImm { imm, .. } | Inst::Enter { amount: imm } | Inst::Exit { amount: imm },
            2,
            F::Imm(v),
        ) => *imm = v,
        (Inst::Branch { target, .. } | Inst::BranchImm { target, .. }, 2, F::Target(t))
        | (Inst::Jump { target }, 0, F::Target(t)) => *target = t,
        (
            Inst::Call {
                target: FuncRef::Symbol(symbol),
            },
            0,
            F::Func(name),
        ) => {
            symbol.clear();
            symbol.push_str(name);
        }
        _ => {
            return Err(VmError::Encode(format!(
                "{inst:?} has no field {slot} of kind {value:?}"
            )))
        }
    }
    Ok(())
}

// ---- base byte encoding ------------------------------------------------

#[allow(clippy::type_complexity)]
fn opcode_table() -> &'static (Vec<(BaseOp, ImmWidth)>, HashMap<(BaseOp, ImmWidth), u8>) {
    static TABLE: OnceLock<(Vec<(BaseOp, ImmWidth)>, HashMap<(BaseOp, ImmWidth), u8>)> =
        OnceLock::new();
    TABLE.get_or_init(|| {
        let mut list = Vec::new();
        for op in BaseOp::all() {
            if has_imm(op) {
                for w in [ImmWidth::W8, ImmWidth::W16, ImmWidth::W32] {
                    list.push((op, w));
                }
            } else {
                list.push((op, ImmWidth::None));
            }
        }
        assert!(list.len() <= 256, "opcode table must fit one byte");
        let index = list
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u8))
            .collect();
        (list, index)
    })
}

/// Number of opcode bytes in the base encoding.
pub fn opcode_count() -> usize {
    opcode_table().0.len()
}

/// Encoded size in bytes of one instruction.
pub fn inst_size(inst: &Inst) -> usize {
    let mut reg_nibbles = 0usize;
    let mut tail_bytes = 0usize;
    for f in field_refs(inst).iter() {
        match f {
            FieldRef::Reg(_) => reg_nibbles += 1,
            FieldRef::Imm(v) => tail_bytes += (imm_width(*v).bits() / 8) as usize,
            FieldRef::Target(_) | FieldRef::Func(_) => tail_bytes += 2,
        }
    }
    1 + reg_nibbles.div_ceil(2) + tail_bytes
}

/// One instruction: the opcode byte (base pattern and immediate
/// width), the register fields as nibbles packed two to a byte, then
/// the immediate in its width, branch targets and call symbols
/// (indices into `symbols`) in two bytes each, in field order.
/// [`inst_size`] is this length in closed form.
///
/// # Errors
///
/// Writing: a branch target past 65535, which only a function of more
/// than 65536 instructions has, or a call symbol not in `symbols`.
/// Reading: truncation, an unknown opcode byte, or a bad symbol index.
pub fn code_inst<I: Io>(io: &mut I, inst: &mut Inst, symbols: &SymbolTable) -> Result<(), VmError> {
    io.iso(
        inst,
        |inst| {
            let fs = fields(inst);
            let imm = fs.iter().find_map(|f| match f {
                Field::Imm(v) => Some(imm_width(*v)),
                _ => None,
            });
            Ok((base_op(inst), imm.unwrap_or(ImmWidth::None), fs))
        },
        |(op, _, fs)| rebuild(op, &fs),
        |io, (op, width, fs)| {
            let mut key = (*op, *width);
            io.tag(
                &mut key,
                |k| {
                    let byte = opcode_table().1.get(k).copied();
                    byte.ok_or_else(|| VmError::Encode(format!("no opcode for {k:?}")))
                },
                |b| {
                    let key = opcode_table().0.get(usize::from(b)).copied();
                    key.ok_or_else(|| VmError::Encode(format!("unknown opcode byte {b}")))
                },
            )?;
            (*op, *width) = key;
            // Reading starts from the pattern's field shape; writing
            // has the instruction's own fields, of that shape.
            if fs.is_empty() {
                *fs = fields(&canonical_instance(*op));
            }
            let regs: Vec<usize> = (0..fs.len())
                .filter(|&i| matches!(fs[i], Field::Reg(_)))
                .collect();
            let number = |f: &Field| match f {
                Field::Reg(r) => r.number(),
                _ => 0,
            };
            for pair in regs.chunks(2) {
                let mut nibbles = (
                    number(&fs[pair[0]]),
                    pair.get(1).map_or(0, |&i| number(&fs[i])),
                );
                io.tag(
                    &mut nibbles,
                    |&(hi, lo)| Ok::<_, VmError>((hi << 4) | lo),
                    |b| Ok((b >> 4, b & 0x0F)),
                )?;
                fs[pair[0]] = Field::Reg(Reg::new(nibbles.0));
                if let Some(&i) = pair.get(1) {
                    fs[i] = Field::Reg(Reg::new(nibbles.1));
                }
            }
            for f in fs.iter_mut() {
                match f {
                    Field::Reg(_) => {}
                    Field::Imm(v) => io.ifixed(v, (width.bits() / 8) as usize)?,
                    Field::Target(t) => io.fixed(t, 2)?,
                    Field::Func(name) => symbols.code_ref(io, name)?,
                }
            }
            Ok(())
        },
    )
}

/// A canonical instance of each base pattern (all fields zeroed), used
/// to recover field shapes.
pub fn canonical_instance(op: BaseOp) -> Inst {
    let r = Reg::new(0);
    match op {
        BaseOp::Li => Inst::Li { rd: r, imm: 0 },
        BaseOp::Mov => Inst::Mov { rd: r, rs: r },
        BaseOp::Alu(o) => Inst::Alu {
            op: o,
            rd: r,
            rs: r,
            rt: r,
        },
        BaseOp::AluImm(o) => Inst::AluImm {
            op: o,
            rd: r,
            rs: r,
            imm: 0,
        },
        BaseOp::Neg => Inst::Neg { rd: r, rs: r },
        BaseOp::Not => Inst::Not { rd: r, rs: r },
        BaseOp::Sext(w) => Inst::Sext {
            width: w,
            rd: r,
            rs: r,
        },
        BaseOp::Load(w) => Inst::Load {
            width: w,
            rd: r,
            off: 0,
            base: r,
        },
        BaseOp::Store(w) => Inst::Store {
            width: w,
            rs: r,
            off: 0,
            base: r,
        },
        BaseOp::Spill => Inst::Spill { rs: r, off: 0 },
        BaseOp::Reload => Inst::Reload { rd: r, off: 0 },
        BaseOp::Enter => Inst::Enter { amount: 0 },
        BaseOp::Exit => Inst::Exit { amount: 0 },
        BaseOp::Branch(c) => Inst::Branch {
            cond: c,
            rs: r,
            rt: r,
            target: 0,
        },
        BaseOp::BranchImm(c) => Inst::BranchImm {
            cond: c,
            rs: r,
            imm: 0,
            target: 0,
        },
        BaseOp::Jump => Inst::Jump { target: 0 },
        BaseOp::Call => Inst::Call {
            target: FuncRef::Symbol(String::new()),
        },
        BaseOp::CallR => Inst::CallR { rs: r },
        BaseOp::Rjr => Inst::Rjr { rs: r },
        BaseOp::Epi => Inst::Epi,
        BaseOp::Bcopy => Inst::Bcopy {
            rd: r,
            rs: r,
            rn: r,
        },
        BaseOp::Bzero => Inst::Bzero { rd: r, rn: r },
        BaseOp::Nop => Inst::Nop,
    }
}

/// Code-segment size (instruction bytes only) of a whole program: the
/// bytes [`code_inst`] writes for every instruction, branch targets
/// (function-relative indices) in their 2 bytes each.
pub fn code_segment_size(program: &VmProgram) -> usize {
    program
        .functions
        .iter()
        .flat_map(|f| f.code.iter())
        .map(inst_size)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_inst;

    #[test]
    fn opcode_table_fits_a_byte() {
        assert!(opcode_count() <= 256, "got {}", opcode_count());
    }

    #[test]
    fn paper_sizes() {
        // enter sp,sp,24: opcode + (sp,sp) nibbles + imm8 = 3 bytes.
        assert_eq!(inst_size(&parse_inst("enter sp,sp,24", 1).unwrap()), 3);
        // ld.iw n0,4(sp): opcode + (n0,sp) + off8 = 3 bytes.
        assert_eq!(inst_size(&parse_inst("ld.iw n0,4(sp)", 1).unwrap()), 3);
        // mov.i n4,n0: opcode + 1 reg byte = 2.
        assert_eq!(inst_size(&parse_inst("mov.i n4,n0", 1).unwrap()), 2);
        // rjr ra: opcode + 1 nibble-padded byte = 2.
        assert_eq!(inst_size(&parse_inst("rjr ra", 1).unwrap()), 2);
        // Wide immediates cost more.
        assert_eq!(inst_size(&parse_inst("li n0,5", 1).unwrap()), 3);
        assert_eq!(inst_size(&parse_inst("li n0,300", 1).unwrap()), 4);
        assert_eq!(inst_size(&parse_inst("li n0,100000", 1).unwrap()), 6);
    }

    #[test]
    fn field_view_roundtrips() {
        let samples = [
            "li n3,-77",
            "mov.i n4,n0",
            "add.i n0,n4,-1",
            "mul.i n1,n2,n3",
            "ld.iw n0,4(sp)",
            "st.ib n3,1000(n5)",
            "spill.i ra,20(sp)",
            "reload.i n4,16(sp)",
            "enter sp,sp,24",
            "exit sp,sp,24",
            "ble.i n4,0,$L56",
            "bgeu.i n1,n2,$L3",
            "j $L7",
            "call pepper",
            "callr n3",
            "rjr ra",
            "epi",
            "bcopy n0,n1,n2",
            "bzero n0,n1",
            "nop",
            "neg.i n1,n2",
            "not.i n1,n1",
            "sext.ib n2,n2",
        ];
        for s in samples {
            let inst = parse_inst(s, 1).unwrap();
            let op = base_op(&inst);
            let fs = fields(&inst);
            let back = rebuild(op, &fs).unwrap();
            assert_eq!(back, inst, "field roundtrip failed for {s}");
        }
    }

    #[test]
    fn inst_code_roundtrip() {
        let samples = [
            "li n3,-77",
            "li n0,123456",
            "add.i n0,n4,-1",
            "sub.i n1,n2,n3",
            "ld.iw n0,4(sp)",
            "st.is n3,-300(n5)",
            "spill.i ra,20(sp)",
            "enter sp,sp,24",
            "ble.i n4,0,$L56",
            "j $L7",
            "call pepper",
            "rjr ra",
            "epi",
            "nop",
        ];
        let mut symbols = SymbolTable::default();
        symbols.intern("pepper");
        let budget = codecomp_core::Budget::default();
        for s in samples {
            let mut inst = parse_inst(s, 1).unwrap();
            let mut buf = Vec::new();
            code_inst(&mut buf, &mut inst, &symbols).unwrap();
            assert_eq!(buf.len(), inst_size(&inst), "size mismatch for {s}");
            let mut c = codecomp_core::bytesio::Cursor::new(&buf, &budget);
            let mut back = Inst::Nop;
            code_inst(&mut c, &mut back, &symbols).unwrap();
            assert_eq!(c.remaining(), 0);
            assert_eq!(back, inst, "encode/decode failed for {s}");
        }
    }

    #[test]
    fn out_of_range_fields_are_not_encoded() {
        let symbols = SymbolTable::default();
        for mut inst in [
            Inst::Jump { target: 70_000 },
            Inst::Call {
                target: FuncRef::Symbol("missing".into()),
            },
        ] {
            assert!(
                code_inst(&mut Vec::new(), &mut inst, &symbols).is_err(),
                "{inst:?}"
            );
        }
    }

    #[test]
    fn field_bits() {
        assert_eq!(Field::Reg(Reg::SP).bits(), 4);
        assert_eq!(Field::Imm(5).bits(), 8);
        assert_eq!(Field::Imm(300).bits(), 16);
        assert_eq!(Field::Imm(1 << 20).bits(), 32);
        assert_eq!(Field::Target(9).bits(), 16);
        assert_eq!(Field::Func("f".into()).bits(), 16);
    }
}
