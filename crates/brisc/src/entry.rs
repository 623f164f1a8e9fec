//! Dictionary entries: instruction patterns with burned and wildcard fields.

use codecomp_vm::encode::{
    canonical_instance, field_refs, fields, rebuild, set_field, BaseOp, Field, FieldRef,
};
use codecomp_vm::isa::Inst;
use codecomp_vm::reg::Reg;

/// Most component patterns one dictionary entry may hold. The image
/// decoder rejects longer entries, so the compressor never generates a
/// combination past it.
pub const MAX_ENTRY_PATTERNS: usize = 16;

/// How a wildcard immediate field is transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ImmEnc {
    /// 4 bits, value scaled by 4 (the paper's `-x4` forms).
    X4,
    /// Signed 8-bit.
    I8,
    /// Signed 16-bit.
    I16,
    /// 32-bit.
    I32,
}

impl ImmEnc {
    /// Bits occupied in the operand area.
    pub fn bits(self) -> u32 {
        match self {
            ImmEnc::X4 => 4,
            ImmEnc::I8 => 8,
            ImmEnc::I16 => 16,
            ImmEnc::I32 => 32,
        }
    }

    /// Whether `v` is representable.
    pub fn fits(self, v: i32) -> bool {
        match self {
            ImmEnc::X4 => v % 4 == 0 && (0..=60).contains(&v),
            ImmEnc::I8 => (-128..=127).contains(&v),
            ImmEnc::I16 => (-32_768..=32_767).contains(&v),
            ImmEnc::I32 => true,
        }
    }

    /// The narrowest non-scaled encoding for `v`.
    pub fn narrowest(v: i32) -> ImmEnc {
        if ImmEnc::I8.fits(v) {
            ImmEnc::I8
        } else if ImmEnc::I16.fits(v) {
            ImmEnc::I16
        } else {
            ImmEnc::I32
        }
    }
}

/// The kind (and transmission width) of one wildcard field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKind {
    /// A 4-bit register field.
    Reg,
    /// An immediate with a chosen encoding.
    Imm(ImmEnc),
    /// A branch target (16-bit local byte offset).
    Target,
    /// A function reference (16-bit index).
    Func,
}

impl FieldKind {
    /// Bits occupied by a wildcard of this kind.
    pub fn bits(self) -> u32 {
        match self {
            FieldKind::Reg => 4,
            FieldKind::Imm(e) => e.bits(),
            FieldKind::Target | FieldKind::Func => 16,
        }
    }

    /// The field value that `raw`, the [`Self::bits`] operand bits of a
    /// wildcard of this kind, stand for. A `Func` field's is an empty
    /// symbol: the call target `raw` names is resolved apart from it.
    #[inline]
    pub(crate) fn value(self, raw: u64) -> FieldRef<'static> {
        match self {
            FieldKind::Reg => FieldRef::Reg(Reg::new(raw as u8)),
            FieldKind::Imm(ImmEnc::X4) => FieldRef::Imm(raw as i32 * 4),
            FieldKind::Imm(ImmEnc::I8) => FieldRef::Imm(i32::from(raw as u8 as i8)),
            FieldKind::Imm(ImmEnc::I16) => FieldRef::Imm(i32::from(raw as u16 as i16)),
            FieldKind::Imm(ImmEnc::I32) => FieldRef::Imm(raw as i32),
            FieldKind::Target => FieldRef::Target(raw as u32),
            FieldKind::Func => FieldRef::Func(""),
        }
    }
}

/// One field position in a pattern: burned to a value, or wildcard.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternField {
    /// A specialized (burned-in) value.
    Burned(Field),
    /// An unspecified field transmitted per instance.
    Wildcard(FieldKind),
}

/// One instruction pattern, e.g. `[ld.iw n0,*(sp)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct InstPattern {
    /// The base instruction.
    pub base: BaseOp,
    /// Field positions in canonical operand order.
    pub fields: Vec<PatternField>,
}

impl InstPattern {
    /// The all-wildcard pattern of an instruction, with immediates at
    /// their narrowest plain width.
    pub fn base_of(inst: &Inst) -> InstPattern {
        let fs = fields(inst);
        InstPattern {
            base: codecomp_vm::encode::base_op(inst),
            fields: fs
                .iter()
                .map(|f| {
                    PatternField::Wildcard(match f {
                        Field::Reg(_) => FieldKind::Reg,
                        Field::Imm(v) => FieldKind::Imm(ImmEnc::narrowest(*v)),
                        Field::Target(_) => FieldKind::Target,
                        Field::Func(_) => FieldKind::Func,
                    })
                })
                .collect(),
        }
    }

    /// Whether `inst` matches: bases equal, burned fields equal, and
    /// wildcard values representable.
    pub fn matches(&self, inst: &Inst) -> bool {
        if codecomp_vm::encode::base_op(inst) != self.base {
            return false;
        }
        let fs = field_refs(inst);
        if fs.len() != self.fields.len() {
            return false;
        }
        fs.iter().zip(&self.fields).all(|(f, p)| match p {
            PatternField::Burned(b) => f == b,
            PatternField::Wildcard(kind) => match (f, kind) {
                (FieldRef::Reg(_), FieldKind::Reg) => true,
                (FieldRef::Imm(v), FieldKind::Imm(enc)) => enc.fits(*v),
                (FieldRef::Target(_), FieldKind::Target) => true,
                (FieldRef::Func(_), FieldKind::Func) => true,
                _ => false,
            },
        })
    }

    /// The wildcard field values of a matching instruction, in order.
    ///
    /// # Panics
    ///
    /// Panics if `inst` does not match (callers check first).
    pub fn extract(&self, inst: &Inst) -> Vec<Field> {
        debug_assert!(self.matches(inst), "extract on non-matching instruction");
        field_refs(inst)
            .iter()
            .zip(&self.fields)
            .filter(|(_, p)| matches!(p, PatternField::Wildcard(_)))
            .map(|(f, _)| f.to_field())
            .collect()
    }

    /// The instruction every instance of the pattern starts from: its
    /// burned fields set and its wildcards zero, ready for decoding to
    /// write each wildcard in with [`set_field`]. Fields past the base
    /// instruction's arity are ignored, as [`rebuild`] ignores them.
    ///
    /// `None` when no operand values make the pattern an instruction: a
    /// call target is burned in (the compressor never burns one and the
    /// image format cannot carry one), or the fields do not fit the base
    /// instruction's shape.
    pub(crate) fn template(&self) -> Option<Inst> {
        if self
            .fields
            .iter()
            .any(|p| matches!(p, PatternField::Burned(Field::Func(_))))
        {
            return None;
        }
        let mut inst = canonical_instance(self.base);
        for slot in 0..field_refs(&inst).len() {
            let value = match self.fields.get(slot)? {
                PatternField::Burned(v) => v.to_ref(),
                PatternField::Wildcard(kind) => kind.value(0),
            };
            set_field(&mut inst, slot, value).ok()?;
        }
        Some(inst)
    }

    /// Number of wildcard fields.
    pub fn wildcard_count(&self) -> usize {
        self.fields
            .iter()
            .filter(|p| matches!(p, PatternField::Wildcard(_)))
            .count()
    }

    /// Bits of wildcard operand data per instance.
    pub fn wildcard_bits(&self) -> u32 {
        self.fields
            .iter()
            .filter_map(|p| match p {
                PatternField::Wildcard(k) => Some(k.bits()),
                PatternField::Burned(_) => None,
            })
            .sum()
    }

    /// The pattern's share of [`DictEntry::native_table_cost`] before
    /// halving: its canonical instance's x86 length plus its
    /// fixed-width length. The x86 encoder keeps no state from one
    /// instruction to the next, so an entry's cost is the sum of its
    /// patterns' shares.
    pub fn native_bytes(&self) -> usize {
        let inst = self.canonical();
        let x86 = codecomp_vm::native::X86Encoder::new().emit(&inst);
        // Fixed-width proxy: 4 bytes per instruction, 8 for wide ops.
        let fixed = match &inst {
            Inst::Call { .. } | Inst::Epi => 8,
            Inst::Bcopy { .. } | Inst::Bzero { .. } => 16,
            Inst::Branch { .. } | Inst::BranchImm { .. } => 8,
            _ => 4,
        };
        x86 + fixed
    }

    /// A canonical instance (wildcards zeroed) for native-cost estimation.
    pub fn canonical(&self) -> Inst {
        let base = canonical_instance(self.base);
        let shape = fields(&base);
        let full: Vec<Field> = shape
            .iter()
            .zip(&self.fields)
            .map(|(zero, p)| match p {
                PatternField::Burned(f) => f.clone(),
                PatternField::Wildcard(_) => zero.clone(),
            })
            .collect();
        rebuild(self.base, &full).expect("canonical shape always rebuilds")
    }
}

impl std::fmt::Display for InstPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}", self.base.mnemonic())?;
        let mut first = true;
        for p in &self.fields {
            write!(f, "{}", if first { " " } else { "," })?;
            first = false;
            match p {
                PatternField::Burned(Field::Reg(r)) => write!(f, "{r}")?,
                PatternField::Burned(Field::Imm(v)) => write!(f, "{v}")?,
                PatternField::Burned(Field::Target(t)) => write!(f, "$L{t}")?,
                PatternField::Burned(Field::Func(n)) => write!(f, "{n}")?,
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4)) => write!(f, "*x4")?,
                PatternField::Wildcard(_) => write!(f, "*")?,
            }
        }
        write!(f, "]")
    }
}

/// A dictionary entry: one pattern, or an opcode-combined sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DictEntry {
    /// The component patterns, executed in order.
    pub patterns: Vec<InstPattern>,
}

impl DictEntry {
    /// A single-pattern entry.
    pub fn single(p: InstPattern) -> DictEntry {
        DictEntry { patterns: vec![p] }
    }

    /// Concatenates two entries (opcode combination).
    pub fn combined(a: &DictEntry, b: &DictEntry) -> DictEntry {
        DictEntry {
            patterns: a.patterns.iter().chain(&b.patterns).cloned().collect(),
        }
    }

    /// Number of component instructions.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the entry has no patterns (never true for valid entries).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Total wildcard bits per encoded instance.
    pub fn wildcard_bits(&self) -> u32 {
        self.patterns.iter().map(InstPattern::wildcard_bits).sum()
    }

    /// Encoded instance size: one opcode byte plus byte-padded operands.
    pub fn instance_bytes(&self) -> usize {
        1 + (self.wildcard_bits() as usize).div_ceil(8)
    }

    /// Serialized dictionary-transmission size in bytes (the `P` cost
    /// term "minus the number of bytes needed to represent the
    /// instruction pattern in the dictionary").
    pub fn dict_bytes(&self) -> usize {
        let mut out = Vec::new();
        crate::image::code_entry(&mut out, &mut self.clone())
            .expect("writing a dictionary entry cannot fail");
        out.len()
    }

    /// The decompressor working-set cost `W`: the mean size of native
    /// expansions across a variable-width and a fixed-width target
    /// (the paper averages Pentium and PowerPC 601).
    pub fn native_table_cost(&self) -> usize {
        self.patterns
            .iter()
            .map(InstPattern::native_bytes)
            .sum::<usize>()
            / 2
    }

    /// Whether `insts` has one instruction per component and each
    /// matches its component, in order.
    pub fn matches_seq<'a>(&self, insts: impl IntoIterator<Item = &'a Inst>) -> bool {
        let mut insts = insts.into_iter();
        self.patterns
            .iter()
            .all(|p| insts.next().is_some_and(|i| p.matches(i)))
            && insts.next().is_none()
    }
}

impl std::fmt::Display for DictEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.patterns.len() == 1 {
            write!(f, "{}", self.patterns[0])
        } else {
            write!(f, "<")?;
            for (i, p) in self.patterns.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ">")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_vm::asm::parse_inst;

    fn inst(s: &str) -> Inst {
        parse_inst(s, 1).unwrap()
    }

    #[test]
    fn imm_enc_fits() {
        assert!(ImmEnc::X4.fits(24));
        assert!(ImmEnc::X4.fits(0));
        assert!(ImmEnc::X4.fits(60));
        assert!(!ImmEnc::X4.fits(61));
        assert!(!ImmEnc::X4.fits(64));
        assert!(!ImmEnc::X4.fits(-4));
        assert!(!ImmEnc::X4.fits(26));
        assert!(ImmEnc::I8.fits(-128));
        assert!(!ImmEnc::I8.fits(128));
        assert_eq!(ImmEnc::narrowest(300), ImmEnc::I16);
    }

    #[test]
    fn base_pattern_matches_and_extracts() {
        let ld = inst("ld.iw n0,4(sp)");
        let pat = InstPattern::base_of(&ld);
        assert!(pat.matches(&ld));
        assert_eq!(pat.wildcard_count(), 3);
        let vals = pat.extract(&ld);
        assert_eq!(vals[0], Field::Reg(Reg::new(0)));
        assert_eq!(vals[1], Field::Imm(4));
        assert_eq!(vals[2], Field::Reg(Reg::SP));
        assert_eq!(rebuild(pat.base, &vals).unwrap(), ld);
    }

    #[test]
    fn burned_fields_constrain_matching() {
        let ld = inst("ld.iw n0,4(sp)");
        let mut pat = InstPattern::base_of(&ld);
        // Burn the base register: [ld.iw *,*(sp)].
        pat.fields[2] = PatternField::Burned(Field::Reg(Reg::SP));
        assert!(pat.matches(&inst("ld.iw n3,8(sp)")));
        assert!(!pat.matches(&inst("ld.iw n3,8(n1)")));
        assert!(!pat.matches(&inst("ld.ib n3,8(sp)")));
        assert_eq!(pat.wildcard_count(), 2);
    }

    #[test]
    fn imm_width_constrains_matching() {
        let pat = InstPattern::base_of(&inst("ld.iw n0,4(sp)"));
        // Narrowest for 4 is I8: a 300 offset does not fit.
        assert!(!pat.matches(&inst("ld.iw n0,300(sp)")));
        assert!(pat.matches(&inst("ld.iw n0,-100(sp)")));
    }

    #[test]
    fn x4_narrowing() {
        let mut pat = InstPattern::base_of(&inst("enter sp,sp,24"));
        pat.fields[2] = PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4));
        assert!(pat.matches(&inst("enter sp,sp,24")));
        assert!(pat.matches(&inst("enter sp,sp,60")));
        assert!(!pat.matches(&inst("enter sp,sp,64")));
        assert!(!pat.matches(&inst("enter sp,sp,26")));
        // enter: two reg wildcards (8 bits) + x4 (4 bits) = 12 bits -> 2 bytes + opcode.
        assert_eq!(DictEntry::single(pat).instance_bytes(), 3);
    }

    #[test]
    fn instance_bytes_match_paper_example() {
        // Base [enter *,*,*] with I8 imm: 4+4+8 = 16 bits -> 3 bytes total.
        let base = InstPattern::base_of(&inst("enter sp,sp,24"));
        assert_eq!(DictEntry::single(base.clone()).instance_bytes(), 3);
        // [enter sp,*,*]: 4+8 = 12 bits -> 2 operand bytes... still 3.
        let mut sp1 = base.clone();
        sp1.fields[0] = PatternField::Burned(Field::Reg(Reg::SP));
        assert_eq!(DictEntry::single(sp1).instance_bytes(), 3);
        // [enter sp,sp,*] with I8: 8 bits -> 2 bytes, the paper's "2
        // bytes instead of 3".
        let mut sp2 = base.clone();
        sp2.fields[0] = PatternField::Burned(Field::Reg(Reg::SP));
        sp2.fields[1] = PatternField::Burned(Field::Reg(Reg::SP));
        assert_eq!(DictEntry::single(sp2).instance_bytes(), 2);
    }

    #[test]
    fn combination_saves_opcode_bytes() {
        let a = DictEntry::single(InstPattern::base_of(&inst("mov.i n4,n0")));
        let b = DictEntry::single(InstPattern::base_of(&inst("mov.i n2,n1")));
        let c = DictEntry::combined(&a, &b);
        assert_eq!(c.len(), 2);
        // Two separate: 2 + 2 = 4 bytes. Combined: 1 + ceil(16/8) = 3.
        assert_eq!(a.instance_bytes() + b.instance_bytes(), 4);
        assert_eq!(c.instance_bytes(), 3);
    }

    #[test]
    fn sub_byte_packing_combines_nibbles() {
        // <[mov.i *,n0],[mov.i *,n1]>: two 4-bit wildcards pack into one
        // byte — the "quantized" packing the paper describes.
        let mut a = InstPattern::base_of(&inst("mov.i n4,n0"));
        a.fields[1] = PatternField::Burned(Field::Reg(Reg::new(0)));
        let mut b = InstPattern::base_of(&inst("mov.i n2,n1"));
        b.fields[1] = PatternField::Burned(Field::Reg(Reg::new(1)));
        let c = DictEntry::combined(&DictEntry::single(a), &DictEntry::single(b));
        assert_eq!(c.wildcard_bits(), 8);
        assert_eq!(c.instance_bytes(), 2);
    }

    #[test]
    fn matches_seq_checks_order() {
        let a = inst("mov.i n4,n0");
        let b = inst("mov.i n2,n1");
        let e = DictEntry::combined(
            &DictEntry::single(InstPattern::base_of(&a)),
            &DictEntry::single(InstPattern::base_of(&b)),
        );
        assert!(e.matches_seq([&a, &b]));
        assert!(e.matches_seq([&b, &a]), "all-wildcard movs match any movs");
        assert!(!e.matches_seq([&a]));
        assert!(!e.matches_seq([&a, &b, &a]));
        assert!(!e.matches_seq([&a, &inst("li n0,1")]));
    }

    #[test]
    fn native_cost_is_positive_and_display_works() {
        let e = DictEntry::single(InstPattern::base_of(&inst("enter sp,sp,24")));
        assert!(e.native_table_cost() > 0);
        assert_eq!(e.to_string(), "[enter *,*,*]");
        let mut p = InstPattern::base_of(&inst("enter sp,sp,24"));
        p.fields[0] = PatternField::Burned(Field::Reg(Reg::SP));
        p.fields[2] = PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4));
        assert_eq!(InstPattern::to_string(&p), "[enter sp,*,*x4]");
    }
}
