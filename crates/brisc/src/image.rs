//! The serialized BRISC program image.
//!
//! "Once the compressor has created a dictionary, it outputs the
//! dictionary followed by the modified input program" (§4). The image
//! holds the dictionary, the order-1 Markov opcode tables, globals, a
//! function table (with the frame metadata `epi` needs and the
//! extra-leader offsets that keep fall-through labels decodable), and
//! the byte-aligned compressed code. Branch targets are local byte
//! offsets, so the code is randomly addressable at basic-block
//! granularity — the property that makes in-place interpretation work.

use crate::entry::{DictEntry, FieldKind, ImmEnc, InstPattern, PatternField, MAX_ENTRY_PATTERNS};
use crate::markov::{MarkovTables, SuccessorTable, BLOCK_START};
use crate::BriscError;
use codecomp_coding::bits::{BitReader, BitWriter};
use codecomp_core::bytesio::{put_ivarint, put_string, put_uvarint, Cursor};
use codecomp_core::cov_hit;
use codecomp_vm::encode::{BaseOp, Field};
use codecomp_vm::isa::{FuncRef, Inst};
use codecomp_vm::program::VmGlobal;
use codecomp_vm::reg::Reg;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Function-reference indices at or above this denote host functions.
pub const HOST_FUNC_BASE: u16 = 0xFF00;

/// One rewritten program element: a dictionary entry plus its wildcard
/// field values.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Dictionary entry index.
    pub entry: u32,
    /// Wildcard values in pattern order (concatenated across components).
    pub values: Vec<Field>,
}

/// A function's items ready for assembly.
#[derive(Debug, Clone)]
pub struct FuncItems {
    /// Function name.
    pub name: String,
    /// Parameter count.
    pub param_count: usize,
    /// Frame size.
    pub frame_size: u32,
    /// Callee-saved registers in spill order.
    pub saved_regs: Vec<Reg>,
    /// Items in program order. `Field::Target` values hold *item indices*
    /// within this function; assembly patches them to byte offsets.
    pub items: Vec<Item>,
    /// Per-item basic-block-leader flags.
    pub leaders: Vec<bool>,
}

/// Function metadata in the image.
#[derive(Debug, Clone, PartialEq)]
pub struct BriscFunction {
    /// Name.
    pub name: String,
    /// Parameter count.
    pub param_count: usize,
    /// Frame size (used by `epi`).
    pub frame_size: u32,
    /// Callee-saved registers (used by `epi`).
    pub saved_regs: Vec<Reg>,
    /// Start offset in the code blob.
    pub start: u32,
    /// Code length in bytes.
    pub len: u32,
    /// Sorted local byte offsets of leaders that are *not* implied by the
    /// previous item ending a block.
    pub extra_leaders: Vec<u32>,
}

/// A complete BRISC program.
#[derive(Debug, Clone, PartialEq)]
pub struct BriscImage {
    /// The instruction-pattern dictionary.
    pub dictionary: Vec<DictEntry>,
    /// Order-1 opcode tables.
    pub markov: MarkovTables,
    /// Ablation mode: a single (block-start) context instead of order-1.
    pub order0: bool,
    /// Global data.
    pub globals: Vec<VmGlobal>,
    /// Functions, in code order.
    pub functions: Vec<BriscFunction>,
    /// The compressed code blob.
    pub code: Vec<u8>,
}

/// One decoded program element, with call targets named.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedItem {
    /// Dictionary entry index.
    pub entry: u32,
    /// The expanded instructions; branch targets are local byte offsets.
    pub insts: Vec<Inst>,
    /// Encoded size in bytes.
    pub size: usize,
}

/// What a decoded `Inst::Call` calls, resolved the way a call by name
/// resolves: to the first function of that name, else to the host
/// function of that name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// Not a direct call.
    None,
    /// A function index into [`BriscImage::functions`].
    Function(u32),
    /// An index into [`codecomp_ir::eval::HOST_FUNCTIONS`].
    Host(u32),
}

/// A reusable buffer that [`BriscImage::decode_into`] fills with one
/// item. `Inst::Call`s carry an empty symbol; their targets are in
/// [`Self::callees`], so decoding never allocates once the buffer has
/// grown to the largest entry.
#[derive(Debug, Default)]
pub struct ItemBuf {
    /// Dictionary entry index.
    pub entry: u32,
    /// Encoded size in bytes.
    pub size: usize,
    /// The expanded instructions; branch targets are local byte offsets.
    pub insts: Vec<Inst>,
    /// Parallel to `insts`: each call's target, [`Callee::None`] for
    /// everything else.
    pub callees: Vec<Callee>,
}

/// Lookup tables derived from an image's dictionary, Markov tables and
/// function names — what "the decompressor can build" (§4) — so each
/// in-place decode step indexes arrays instead of hashing, summing or
/// comparing strings. Build once per image with [`DecodeTables::new`];
/// they go stale if the image's dictionary, Markov tables or function
/// table change.
#[derive(Debug)]
pub struct DecodeTables {
    successors: SuccessorTable,
    /// Operand bytes of each dictionary entry.
    operand_bytes: Vec<u32>,
    /// Call target of each function index.
    function_callee: Vec<Callee>,
    /// Call target of each host index.
    host_callee: Vec<Callee>,
}

impl DecodeTables {
    /// Builds the tables for `image`.
    pub fn new(image: &BriscImage) -> DecodeTables {
        let mut by_name: HashMap<&str, Callee> =
            HashMap::with_capacity(image.functions.len() + codecomp_ir::eval::HOST_FUNCTIONS.len());
        for (i, f) in image.functions.iter().enumerate() {
            by_name
                .entry(f.name.as_str())
                .or_insert(Callee::Function(i as u32));
        }
        for (h, name) in codecomp_ir::eval::HOST_FUNCTIONS.iter().enumerate() {
            by_name.entry(name).or_insert(Callee::Host(h as u32));
        }
        DecodeTables {
            successors: SuccessorTable::new(&image.markov, image.dictionary.len()),
            operand_bytes: image
                .dictionary
                .iter()
                .map(|e| e.wildcard_bits().div_ceil(8))
                .collect(),
            function_callee: image
                .functions
                .iter()
                .map(|f| by_name[f.name.as_str()])
                .collect(),
            host_callee: codecomp_ir::eval::HOST_FUNCTIONS
                .iter()
                .map(|name| by_name[name])
                .collect(),
        }
    }
}

impl BriscImage {
    /// The context actually used at decode time (collapses to the
    /// block-start context under the order-0 ablation).
    pub fn effective_ctx(&self, ctx: u32) -> u32 {
        if self.order0 {
            BLOCK_START
        } else {
            ctx
        }
    }

    /// The function whose code contains global offset `pos`, by binary
    /// search over the function starts. The functions must be in code
    /// order and must not overlap, as assembled images are (and as
    /// [`crate::interp::BriscMachine::new`] checks).
    pub fn function_at(&self, pos: usize) -> Option<usize> {
        let pos = pos as u64;
        let i = self
            .functions
            .partition_point(|f| u64::from(f.start) <= pos)
            .checked_sub(1)?;
        let f = &self.functions[i];
        (pos < u64::from(f.start) + u64::from(f.len)).then_some(i)
    }

    /// Finds a function index by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Whether `local` is an extra (fall-through-reachable) leader of
    /// function `func`.
    pub fn is_extra_leader(&self, func: usize, local: u32) -> bool {
        self.functions[func]
            .extra_leaders
            .binary_search(&local)
            .is_ok()
    }

    /// Size of the code blob alone.
    pub fn code_size(&self) -> usize {
        self.code.len()
    }

    /// Full serialized image size.
    pub fn total_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Decodes the item at global offset `pos` in Markov context `ctx`
    /// into `item`, reusing its buffers. `tables` must have been built
    /// from this image.
    ///
    /// # Errors
    ///
    /// [`BriscError::Corrupt`] on invalid opcodes, entry ids, function
    /// or host indices, or truncation.
    pub fn decode_into(
        &self,
        pos: usize,
        ctx: u32,
        tables: &DecodeTables,
        item: &mut ItemBuf,
    ) -> Result<(), BriscError> {
        item.insts.clear();
        item.callees.clear();
        let mut cursor = pos;
        let entry_id =
            tables
                .successors
                .decode_opcode(self.effective_ctx(ctx), &self.code, &mut cursor)?;
        let (Some(entry), Some(&operand_bytes)) = (
            self.dictionary.get(entry_id as usize),
            tables.operand_bytes.get(entry_id as usize),
        ) else {
            cov_hit!("brisc.decode.bad_entry_id");
            return Err(BriscError::Corrupt(format!("bad entry id {entry_id}")));
        };
        let operand_bytes = operand_bytes as usize;
        let Some(operand_slice) = self.code.get(cursor..cursor + operand_bytes) else {
            cov_hit!("brisc.decode.operand_overrun");
            return Err(BriscError::Corrupt("operands past end of code".into()));
        };
        let mut bits = BitReader::new(operand_slice);
        for p in &entry.patterns {
            let mut callee = Callee::None;
            let inst = p.instantiate(|field| match field {
                PatternField::Wildcard(kind) => read_field(*kind, &mut bits, tables, &mut callee),
                // The compressor never burns a call target and the
                // image format cannot carry one.
                PatternField::Burned(Field::Func(_)) => Err(BriscError::Corrupt(
                    "call target burned into the dictionary".into(),
                )),
                PatternField::Burned(v) => Ok(v.clone()),
            })?;
            item.insts.push(inst);
            item.callees.push(callee);
        }
        item.entry = entry_id;
        item.size = cursor - pos + operand_bytes;
        Ok(())
    }

    /// [`Self::decode_into`] a fresh buffer, with each call's symbol
    /// filled in from its resolved target — for consumers that rebuild
    /// named instructions, such as [`crate::translate`].
    ///
    /// # Errors
    ///
    /// As [`Self::decode_into`].
    pub fn decode_at(
        &self,
        pos: usize,
        ctx: u32,
        tables: &DecodeTables,
    ) -> Result<DecodedItem, BriscError> {
        let mut item = ItemBuf::default();
        self.decode_into(pos, ctx, tables, &mut item)?;
        let mut insts = item.insts;
        for (inst, callee) in insts.iter_mut().zip(item.callees) {
            let name = match callee {
                Callee::None => continue,
                Callee::Function(i) => self.functions[i as usize].name.clone(),
                Callee::Host(h) => codecomp_ir::eval::HOST_FUNCTIONS[h as usize].to_string(),
            };
            if let Inst::Call { target } = inst {
                *target = FuncRef::Symbol(name);
            }
        }
        Ok(DecodedItem {
            entry: item.entry,
            insts,
            size: item.size,
        })
    }

    /// Linearly decodes function `idx`'s entire body without executing
    /// it, charging one fuel step per item — the load-time scan behind
    /// quarantine decisions. `tables` must have been built from this
    /// image.
    ///
    /// # Errors
    ///
    /// [`BriscError::Corrupt`] if any item fails to decode,
    /// [`BriscError::Limit`] when `budget` trips.
    pub fn validate_function(
        &self,
        idx: usize,
        tables: &DecodeTables,
        budget: &codecomp_core::Budget,
    ) -> Result<(), BriscError> {
        let f = self
            .functions
            .get(idx)
            .ok_or_else(|| BriscError::Corrupt(format!("no function index {idx}")))?;
        let mut pos = f.start as usize;
        let end = pos + f.len as usize;
        let mut ctx = BLOCK_START;
        let mut item = ItemBuf::default();
        while pos < end {
            budget.charge_fuel(1)?;
            let local = (pos - f.start as usize) as u32;
            let effective = if self.is_extra_leader(idx, local) {
                BLOCK_START
            } else {
                ctx
            };
            self.decode_into(pos, effective, tables, &mut item)?;
            let last_ends = item.insts.last().is_some_and(Inst::ends_block);
            ctx = if last_ends { BLOCK_START } else { item.entry };
            pos += item.size;
        }
        Ok(())
    }
}

/// Reads one wildcard field. A `Func` field comes back as an empty
/// symbol; its resolved target goes to `callee`.
fn read_field(
    kind: FieldKind,
    bits: &mut BitReader<'_>,
    tables: &DecodeTables,
    callee: &mut Callee,
) -> Result<Field, BriscError> {
    let eof = |_| BriscError::Corrupt("operand bits truncated".into());
    Ok(match kind {
        FieldKind::Reg => Field::Reg(Reg::new(bits.read_bits(4).map_err(eof)? as u8)),
        FieldKind::Imm(ImmEnc::X4) => Field::Imm(bits.read_bits(4).map_err(eof)? as i32 * 4),
        FieldKind::Imm(ImmEnc::I8) => {
            Field::Imm(i32::from(bits.read_bits(8).map_err(eof)? as u8 as i8))
        }
        FieldKind::Imm(ImmEnc::I16) => {
            Field::Imm(i32::from(bits.read_bits(16).map_err(eof)? as u16 as i16))
        }
        FieldKind::Imm(ImmEnc::I32) => Field::Imm(bits.read_bits(32).map_err(eof)? as i32),
        FieldKind::Target => Field::Target(bits.read_bits(16).map_err(eof)? as u32),
        FieldKind::Func => {
            let idx = bits.read_bits(16).map_err(eof)? as u16;
            let target = if idx >= HOST_FUNC_BASE {
                tables
                    .host_callee
                    .get(usize::from(idx - HOST_FUNC_BASE))
                    .ok_or_else(|| BriscError::Corrupt("bad host index".into()))?
            } else {
                tables
                    .function_callee
                    .get(usize::from(idx))
                    .ok_or_else(|| BriscError::Corrupt("bad function index".into()))?
            };
            // A `Call` takes its target from its first `Func` field.
            if *callee == Callee::None {
                *callee = *target;
            }
            Field::Func(String::new())
        }
    })
}

// ---- assembly -----------------------------------------------------------------

/// Assembles per-function items into a complete image: builds the Markov
/// model, lays out byte offsets, patches branch targets, and encodes.
///
/// # Errors
///
/// [`BriscError::Compress`] on layout problems (targets not at item
/// starts, offsets exceeding 16 bits, …).
pub fn assemble(
    dictionary: Vec<DictEntry>,
    funcs: Vec<FuncItems>,
    globals: Vec<VmGlobal>,
) -> Result<BriscImage, BriscError> {
    assemble_with(dictionary, funcs, globals, false)
}

/// [`assemble`] with the order-0 Markov ablation knob.
///
/// # Errors
///
/// As [`assemble`].
pub fn assemble_with(
    dictionary: Vec<DictEntry>,
    funcs: Vec<FuncItems>,
    globals: Vec<VmGlobal>,
    order0: bool,
) -> Result<BriscImage, BriscError> {
    // Function name resolution table for Func fields.
    let func_index: HashMap<&str, u16> = funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i as u16))
        .collect();

    // Contexts per item: BLOCK_START at leaders, else previous entry.
    let item_ctx = |f: &FuncItems, i: usize| -> u32 {
        if order0 || f.leaders[i] {
            BLOCK_START
        } else {
            f.items[i - 1].entry
        }
    };
    let mut transitions = Vec::new();
    for f in &funcs {
        for (i, item) in f.items.iter().enumerate() {
            transitions.push((item_ctx(f, i), item.entry));
        }
    }
    let markov = MarkovTables::build(transitions);

    // Layout: item sizes are context-dependent (escape opcodes) but not
    // offset-dependent, so one pass suffices.
    let mut code = Vec::new();
    let mut functions = Vec::new();
    for f in &funcs {
        let start = code.len() as u32;
        let mut offsets = Vec::with_capacity(f.items.len());
        let mut local = 0u32;
        for (i, item) in f.items.iter().enumerate() {
            offsets.push(local);
            let ctx = item_ctx(f, i);
            let entry = &dictionary[item.entry as usize];
            let size =
                markov.opcode_len(ctx, item.entry) + (entry.wildcard_bits() as usize).div_ceil(8);
            local += size as u32;
        }
        if local > u32::from(u16::MAX) {
            return Err(BriscError::Compress(format!(
                "function {} exceeds the 16-bit branch-offset space",
                f.name
            )));
        }

        // Extra leaders: leader items whose predecessor falls through.
        let mut extra_leaders = Vec::new();
        for (i, item_is_leader) in f.leaders.iter().enumerate() {
            if !item_is_leader || i == 0 {
                continue;
            }
            let prev_entry = &dictionary[f.items[i - 1].entry as usize];
            let prev_last = prev_entry.patterns.last().expect("entries are nonempty");
            let prev_ends = prev_last.canonical().ends_block();
            if !prev_ends {
                extra_leaders.push(offsets[i]);
            }
        }

        // Encode, patching targets from item indices to byte offsets.
        for (i, item) in f.items.iter().enumerate() {
            let ctx = item_ctx(f, i);
            markov.encode_opcode(ctx, item.entry, &mut code)?;
            let entry = &dictionary[item.entry as usize];
            let mut bits = BitWriter::new();
            let mut values = item.values.iter();
            for p in &entry.patterns {
                for pf in &p.fields {
                    if let PatternField::Wildcard(kind) = pf {
                        let v = values
                            .next()
                            .ok_or_else(|| BriscError::Compress("item value underflow".into()))?;
                        write_field(*kind, v, &offsets, &func_index, &mut bits)?;
                    }
                }
            }
            if values.next().is_some() {
                return Err(BriscError::Compress("item value overflow".into()));
            }
            code.extend_from_slice(&bits.finish());
        }
        functions.push(BriscFunction {
            name: f.name.clone(),
            param_count: f.param_count,
            frame_size: f.frame_size,
            saved_regs: f.saved_regs.clone(),
            start,
            len: code.len() as u32 - start,
            extra_leaders,
        });
    }
    Ok(BriscImage {
        dictionary,
        markov,
        order0,
        globals,
        functions,
        code,
    })
}

fn write_field(
    kind: FieldKind,
    value: &Field,
    offsets: &[u32],
    func_index: &HashMap<&str, u16>,
    bits: &mut BitWriter,
) -> Result<(), BriscError> {
    match (kind, value) {
        (FieldKind::Reg, Field::Reg(r)) => bits.write_bits(u64::from(r.number()), 4),
        (FieldKind::Imm(ImmEnc::X4), Field::Imm(v)) => {
            if !ImmEnc::X4.fits(*v) {
                return Err(BriscError::Compress(format!("{v} does not fit x4 field")));
            }
            bits.write_bits(u64::from(*v as u32 / 4), 4);
        }
        (FieldKind::Imm(ImmEnc::I8), Field::Imm(v)) => bits.write_bits(u64::from(*v as u8), 8),
        (FieldKind::Imm(ImmEnc::I16), Field::Imm(v)) => bits.write_bits(u64::from(*v as u16), 16),
        (FieldKind::Imm(ImmEnc::I32), Field::Imm(v)) => bits.write_bits(u64::from(*v as u32), 32),
        (FieldKind::Target, Field::Target(item_idx)) => {
            let off = *offsets.get(*item_idx as usize).ok_or_else(|| {
                BriscError::Compress(format!("branch target item {item_idx} out of range"))
            })?;
            bits.write_bits(u64::from(off), 16);
        }
        (FieldKind::Func, Field::Func(name)) => {
            let idx = match func_index.get(name.as_str()) {
                Some(&i) => i,
                None => {
                    let host = codecomp_ir::eval::HOST_FUNCTIONS
                        .iter()
                        .position(|&h| h == name)
                        .ok_or_else(|| {
                            BriscError::Compress(format!("undefined call target {name}"))
                        })?;
                    HOST_FUNC_BASE + host as u16
                }
            };
            bits.write_bits(u64::from(idx), 16);
        }
        (k, v) => {
            return Err(BriscError::Compress(format!(
                "field kind {k:?} got value {v:?}"
            )));
        }
    }
    Ok(())
}

// ---- byte-level serialization ----------------------------------------------------

fn base_op_index() -> &'static (Vec<BaseOp>, HashMap<BaseOp, u8>) {
    static TABLE: OnceLock<(Vec<BaseOp>, HashMap<BaseOp, u8>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let all = BaseOp::all();
        assert!(all.len() <= 256);
        let index = all.iter().enumerate().map(|(i, &b)| (b, i as u8)).collect();
        (all, index)
    })
}

/// Serializes one dictionary entry (also defines its `P`-cost size).
pub fn serialize_entry(entry: &DictEntry) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, entry.patterns.len() as u64);
    for p in &entry.patterns {
        out.push(base_op_index().1[&p.base]);
        for f in &p.fields {
            match f {
                PatternField::Wildcard(FieldKind::Reg) => out.push(0x00),
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4)) => out.push(0x01),
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::I8)) => out.push(0x02),
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::I16)) => out.push(0x03),
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::I32)) => out.push(0x04),
                PatternField::Wildcard(FieldKind::Target) => out.push(0x05),
                PatternField::Wildcard(FieldKind::Func) => out.push(0x06),
                PatternField::Burned(Field::Reg(r)) => out.push(0x10 | r.number()),
                PatternField::Burned(Field::Imm(v)) => {
                    out.push(0x20);
                    put_ivarint(&mut out, i64::from(*v));
                }
                PatternField::Burned(other) => {
                    // Targets and function refs are never burned; encode
                    // defensively as an impossible tag.
                    debug_assert!(false, "unexpected burned field {other:?}");
                    out.push(0x7F);
                }
            }
        }
    }
    out
}

fn deserialize_entry(r: &mut Cursor<'_>) -> Result<DictEntry, BriscError> {
    let n = r.usize_varint()?;
    if n == 0 || n > MAX_ENTRY_PATTERNS {
        cov_hit!("brisc.entry.bad_pattern_count");
        return Err(BriscError::Corrupt(format!("bad pattern count {n}")));
    }
    let mut patterns = Vec::with_capacity(n);
    for _ in 0..n {
        let base_byte = r.u8()?;
        let Some(&base) = base_op_index().0.get(usize::from(base_byte)) else {
            cov_hit!("brisc.entry.bad_base_op");
            return Err(BriscError::Corrupt(format!("bad base op {base_byte}")));
        };
        let arity =
            codecomp_vm::encode::fields(&codecomp_vm::encode::canonical_instance(base)).len();
        let mut fields = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = r.u8()?;
            fields.push(match tag {
                0x00 => PatternField::Wildcard(FieldKind::Reg),
                0x01 => PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4)),
                0x02 => PatternField::Wildcard(FieldKind::Imm(ImmEnc::I8)),
                0x03 => PatternField::Wildcard(FieldKind::Imm(ImmEnc::I16)),
                0x04 => PatternField::Wildcard(FieldKind::Imm(ImmEnc::I32)),
                0x05 => PatternField::Wildcard(FieldKind::Target),
                0x06 => PatternField::Wildcard(FieldKind::Func),
                t if t & 0xF0 == 0x10 => PatternField::Burned(Field::Reg(Reg::new(t & 0x0F))),
                0x20 => PatternField::Burned(Field::Imm(
                    i32::try_from(r.ivarint()?)
                        .map_err(|_| BriscError::Corrupt("burned imm out of range".into()))?,
                )),
                other => {
                    cov_hit!("brisc.entry.bad_field_tag");
                    return Err(BriscError::Corrupt(format!("bad field tag {other}")));
                }
            });
        }
        patterns.push(InstPattern { base, fields });
    }
    Ok(DictEntry { patterns })
}

/// Serializes the Markov tables (defines their charged size).
fn serialize_markov(markov: &MarkovTables) -> Vec<u8> {
    let mut out = Vec::new();
    let lists = markov.iter_sorted();
    put_uvarint(&mut out, lists.len() as u64);
    for (ctx, succ) in lists {
        put_uvarint(&mut out, u64::from(ctx));
        put_uvarint(&mut out, succ.len() as u64);
        for &e in succ {
            put_uvarint(&mut out, u64::from(e));
        }
    }
    out
}

fn deserialize_markov(
    r: &mut Cursor<'_>,
    budget: &codecomp_core::Budget,
) -> Result<MarkovTables, BriscError> {
    let n = r.usize_varint()?;
    budget.check_table_entries(n as u64)?;
    budget.charge_fuel(n as u64)?;
    // Each list takes at least two bytes (context + count), each
    // successor at least one.
    let mut lists = Vec::with_capacity(n.min(r.remaining() / 2));
    for _ in 0..n {
        let ctx = r.u32_varint()?;
        let m = r.usize_varint()?;
        budget.check_table_entries(m as u64)?;
        budget.charge_fuel(m as u64)?;
        let mut succ = Vec::with_capacity(m.min(r.remaining()));
        for _ in 0..m {
            succ.push(r.u32_varint()?);
        }
        lists.push((ctx, succ));
    }
    Ok(MarkovTables::from_lists(lists))
}

impl BriscImage {
    /// Serializes the image.
    ///
    /// The header (dictionary, Markov tables, globals, function table) is
    /// load-time metadata the decompressor expands once, so the container
    /// DEFLATEs it; the *code* stream is stored raw — it must remain
    /// byte-addressable for in-place interpretation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut header = Vec::new();
        put_uvarint(&mut header, self.dictionary.len() as u64);
        for e in &self.dictionary {
            header.extend_from_slice(&serialize_entry(e));
        }
        header.extend_from_slice(&serialize_markov(&self.markov));
        put_uvarint(&mut header, self.globals.len() as u64);
        for g in &self.globals {
            put_string(&mut header, &g.name);
            put_uvarint(&mut header, u64::from(g.size));
            put_uvarint(&mut header, g.init.len() as u64);
            header.extend_from_slice(&g.init);
        }
        put_uvarint(&mut header, self.functions.len() as u64);
        for f in &self.functions {
            put_string(&mut header, &f.name);
            put_uvarint(&mut header, f.param_count as u64);
            put_uvarint(&mut header, u64::from(f.frame_size));
            put_uvarint(&mut header, f.saved_regs.len() as u64);
            for r in &f.saved_regs {
                header.push(r.number());
            }
            put_uvarint(&mut header, u64::from(f.start));
            put_uvarint(&mut header, u64::from(f.len));
            put_uvarint(&mut header, f.extra_leaders.len() as u64);
            let mut prev = 0u32;
            for &l in &f.extra_leaders {
                put_uvarint(&mut header, u64::from(l - prev));
                prev = l;
            }
        }
        let packed_header =
            codecomp_flate::deflate_compress(&header, codecomp_flate::CompressionLevel::Best);
        let mut out = Vec::new();
        out.extend_from_slice(b"CCBR");
        out.push(u8::from(self.order0));
        put_uvarint(&mut out, packed_header.len() as u64);
        out.extend_from_slice(&packed_header);
        put_uvarint(&mut out, self.code.len() as u64);
        out.extend_from_slice(&self.code);
        out
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// [`BriscError::Corrupt`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<BriscImage, BriscError> {
        Self::from_bytes_budgeted(bytes, &codecomp_core::Budget::default())
    }

    /// Budget-governed [`Self::from_bytes`]: the header inflate, the
    /// dictionary / Markov / global / function table sizes, and the code
    /// blob are all checked against `budget` before allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::from_bytes`], plus [`BriscError::Limit`] when the
    /// budget trips.
    pub fn from_bytes_budgeted(
        bytes: &[u8],
        budget: &codecomp_core::Budget,
    ) -> Result<BriscImage, BriscError> {
        let mut outer = Cursor::new(bytes);
        if outer.take(4)? != b"CCBR" {
            cov_hit!("brisc.image.bad_magic");
            return Err(BriscError::Corrupt("bad magic".into()));
        }
        cov_hit!("brisc.image.magic_ok");
        let order0 = outer.u8()? != 0;
        let header_len = outer.usize_varint()?;
        let packed_header = outer.take(header_len)?;
        let header =
            codecomp_flate::inflate_budgeted(packed_header, budget).map_err(|e| match e {
                codecomp_flate::FlateError::LimitExceeded { limit } => {
                    cov_hit!("brisc.image.header_limit");
                    BriscError::Limit {
                        what: "header inflate output/fuel".into(),
                        limit,
                    }
                }
                other => {
                    cov_hit!("brisc.image.header_corrupt");
                    BriscError::Corrupt(format!("header: {other}"))
                }
            })?;
        cov_hit!("brisc.image.header_inflated");
        let mut r = Cursor::new(&header);
        let ndict = r.usize_varint()?;
        budget.check_table_entries(ndict as u64)?;
        budget.charge_fuel(ndict as u64)?;
        // Every entry takes at least two bytes (pattern count + base op).
        let mut dictionary = Vec::with_capacity(ndict.min(r.remaining() / 2));
        for _ in 0..ndict {
            dictionary.push(deserialize_entry(&mut r)?);
        }
        let markov = deserialize_markov(&mut r, budget)?;
        let nglobals = r.usize_varint()?;
        budget.check_table_entries(nglobals as u64)?;
        budget.charge_fuel(nglobals as u64)?;
        let mut globals = Vec::with_capacity(nglobals.min(r.remaining() / 3));
        for _ in 0..nglobals {
            let name = r.string()?;
            let size = r.u32_varint()?;
            let init_len = r.usize_varint()?;
            globals.push(VmGlobal {
                name,
                size,
                init: r.take(init_len)?.to_vec(),
            });
        }
        let nfuncs = r.usize_varint()?;
        budget.check_table_entries(nfuncs as u64)?;
        budget.charge_fuel(nfuncs as u64)?;
        let mut functions = Vec::with_capacity(nfuncs.min(r.remaining() / 4));
        for _ in 0..nfuncs {
            let name = r.string()?;
            let param_count = r.usize_varint()?;
            let frame_size = r.u32_varint()?;
            let nsaved = r.usize_varint()?;
            if nsaved > usize::from(Reg::COUNT) {
                cov_hit!("brisc.image.saved_regs_overflow");
                return Err(BriscError::Corrupt("too many saved registers".into()));
            }
            let mut saved_regs = Vec::with_capacity(nsaved);
            for _ in 0..nsaved {
                let n = r.u8()?;
                if n >= Reg::COUNT {
                    cov_hit!("brisc.image.bad_saved_reg");
                    return Err(BriscError::Corrupt("bad saved register".into()));
                }
                saved_regs.push(Reg::new(n));
            }
            let start = r.u32_varint()?;
            let len = r.u32_varint()?;
            let nleaders = r.usize_varint()?;
            let mut extra_leaders = Vec::with_capacity(nleaders.min(r.remaining()));
            let mut prev = 0u32;
            for _ in 0..nleaders {
                let delta = r.u32_varint()?;
                prev = prev
                    .checked_add(delta)
                    .ok_or_else(|| BriscError::Corrupt("leader offset overflow".into()))?;
                extra_leaders.push(prev);
            }
            functions.push(BriscFunction {
                name,
                param_count,
                frame_size,
                saved_regs,
                start,
                len,
                extra_leaders,
            });
        }
        if r.remaining() != 0 {
            cov_hit!("brisc.image.trailing_header");
            return Err(BriscError::Corrupt("trailing header bytes".into()));
        }
        let code_len = outer.usize_varint()?;
        budget.check_output_bytes(code_len as u64)?;
        let code = outer.take(code_len)?.to_vec();
        if outer.remaining() != 0 {
            cov_hit!("brisc.image.trailing_bytes");
            return Err(BriscError::Corrupt("trailing bytes".into()));
        }
        for f in &functions {
            if u64::from(f.start) + u64::from(f.len) > code.len() as u64 {
                cov_hit!("brisc.image.function_overruns_code");
                return Err(BriscError::Corrupt(format!(
                    "function {} extends past the code blob",
                    f.name
                )));
            }
        }
        cov_hit!("brisc.image.load_ok");
        codecomp_core::telemetry::gauge_set(
            "brisc.dictionary_entries",
            dictionary.len() as u64,
        );
        codecomp_core::telemetry::counter_add("brisc.image.loads", 1);
        Ok(BriscImage {
            dictionary,
            markov,
            order0,
            globals,
            functions,
            code,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::InstPattern;
    use codecomp_vm::asm::parse_inst;

    fn base_entry(s: &str) -> DictEntry {
        DictEntry::single(InstPattern::base_of(&parse_inst(s, 1).unwrap()))
    }

    #[test]
    fn entry_serialization_roundtrip() {
        let samples = [
            base_entry("mov.i n4,n0"),
            base_entry("ld.iw n0,4(sp)"),
            base_entry("enter sp,sp,24"),
            base_entry("ble.i n4,0,$L5"),
            base_entry("call pepper"),
            base_entry("epi"),
            DictEntry::combined(&base_entry("mov.i n4,n0"), &base_entry("mov.i n2,n1")),
        ];
        for e in &samples {
            let bytes = serialize_entry(e);
            let mut r = Cursor::new(&bytes);
            let back = deserialize_entry(&mut r).unwrap();
            assert_eq!(&back, e, "roundtrip failed for {e}");
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn burned_fields_roundtrip() {
        let mut p = InstPattern::base_of(&parse_inst("ld.iw n0,4(sp)", 1).unwrap());
        p.fields[0] = PatternField::Burned(Field::Reg(Reg::new(0)));
        p.fields[1] = PatternField::Burned(Field::Imm(-300));
        let e = DictEntry::single(p);
        let bytes = serialize_entry(&e);
        let mut r = Cursor::new(&bytes);
        assert_eq!(deserialize_entry(&mut r).unwrap(), e);
    }

    /// A tiny hand-built program exercising assemble + decode_at.
    fn tiny_image() -> BriscImage {
        // Dictionary: [li *,*i8] = 0, [add.i *,*,*] = 1, [rjr *] = 2,
        // [j *] = 3.
        let dict = vec![
            base_entry("li n0,1"),
            base_entry("add.i n0,n1,n2"),
            base_entry("rjr ra"),
            base_entry("j $L0"),
        ];
        // Function: li n0,5; li n1,6; add n0,n0,n1; rjr ra.
        let items = vec![
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(0)), Field::Imm(5)],
            },
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(1)), Field::Imm(6)],
            },
            Item {
                entry: 1,
                values: vec![
                    Field::Reg(Reg::new(0)),
                    Field::Reg(Reg::new(0)),
                    Field::Reg(Reg::new(1)),
                ],
            },
            Item {
                entry: 2,
                values: vec![Field::Reg(Reg::RA)],
            },
        ];
        let f = FuncItems {
            name: "main".into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true, false, false, false],
            items,
        };
        assemble(dict, vec![f], vec![]).unwrap()
    }

    #[test]
    fn assemble_and_decode() {
        let img = tiny_image();
        let tables = DecodeTables::new(&img);
        assert_eq!(img.functions.len(), 1);
        let mut pos = img.functions[0].start as usize;
        let mut ctx = BLOCK_START;
        let mut decoded = Vec::new();
        while pos < (img.functions[0].start + img.functions[0].len) as usize {
            let item = img.decode_at(pos, ctx, &tables).unwrap();
            ctx = item.entry;
            pos += item.size;
            decoded.extend(item.insts);
        }
        let expect: Vec<Inst> = ["li n0,5", "li n1,6", "add.i n0,n0,n1", "rjr ra"]
            .iter()
            .map(|s| parse_inst(s, 1).unwrap())
            .collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn image_bytes_roundtrip() {
        let img = tiny_image();
        let bytes = img.to_bytes();
        let back = BriscImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn corrupt_image_rejected() {
        let img = tiny_image();
        let bytes = img.to_bytes();
        assert!(BriscImage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(BriscImage::from_bytes(b"XXXX").is_err());
        let mut bad = bytes.clone();
        bad[0] = b'Y';
        assert!(BriscImage::from_bytes(&bad).is_err());
    }

    #[test]
    fn oversized_markov_values_rejected_not_truncated() {
        // A context id or successor above u32::MAX must surface as
        // Corrupt, never be silently cast down to a valid-looking id.
        let budget = codecomp_core::Budget::default();
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 1); // one list
        put_uvarint(&mut bytes, u64::MAX); // context id too big for u32
        put_uvarint(&mut bytes, 0); // no successors
        let mut r = Cursor::new(&bytes);
        assert!(matches!(
            deserialize_markov(&mut r, &budget),
            Err(BriscError::Corrupt(_))
        ));
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, 1);
        put_uvarint(&mut bytes, 7); // context
        put_uvarint(&mut bytes, 1); // one successor
        put_uvarint(&mut bytes, u64::from(u32::MAX) + 1); // successor too big
        let mut r = Cursor::new(&bytes);
        assert!(matches!(
            deserialize_markov(&mut r, &budget),
            Err(BriscError::Corrupt(_))
        ));
    }

    #[test]
    fn table_limit_trips_as_limit_not_corrupt() {
        let img = tiny_image();
        let bytes = img.to_bytes();
        let limits = codecomp_core::DecodeLimits {
            max_table_entries: 1, // the dictionary alone has 4 entries
            ..codecomp_core::DecodeLimits::default()
        };
        let err =
            BriscImage::from_bytes_budgeted(&bytes, &codecomp_core::Budget::new(limits))
                .unwrap_err();
        assert!(matches!(err, BriscError::Limit { .. }), "got {err:?}");
    }

    #[test]
    fn validation_scan_accepts_good_functions_and_meters_fuel() {
        let img = tiny_image();
        let tables = DecodeTables::new(&img);
        let budget = codecomp_core::Budget::default();
        img.validate_function(0, &tables, &budget).unwrap();
        // The tiny program has 4 items, so the scan spends exactly 4 fuel.
        assert_eq!(budget.usage().fuel_spent, 4);
        let starved = codecomp_core::Budget::new(codecomp_core::DecodeLimits {
            decode_fuel: 3,
            ..codecomp_core::DecodeLimits::default()
        });
        assert!(matches!(
            img.validate_function(0, &tables, &starved),
            Err(BriscError::Limit { .. })
        ));
    }

    #[test]
    fn branch_targets_patch_to_byte_offsets() {
        // f: L0: li n0,1; j L0 — jump target must be byte offset 0.
        let dict = vec![base_entry("li n0,1"), base_entry("j $L0")];
        let items = vec![
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(0)), Field::Imm(1)],
            },
            Item {
                entry: 1,
                values: vec![Field::Target(0)],
            }, // item index 0
        ];
        let f = FuncItems {
            name: "f".into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true, false],
            items,
        };
        let img = assemble(dict, vec![f], vec![]).unwrap();
        let tables = DecodeTables::new(&img);
        let first = img.decode_at(0, BLOCK_START, &tables).unwrap();
        let second = img.decode_at(first.size, first.entry, &tables).unwrap();
        assert_eq!(second.insts[0], Inst::Jump { target: 0 });
    }

    #[test]
    fn extra_leaders_recorded_for_fallthrough_labels() {
        // li; li (leader: branch target); rjr — the middle item is a
        // leader but its predecessor falls through.
        let dict = vec![base_entry("li n0,1"), base_entry("rjr ra")];
        let items = vec![
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(0)), Field::Imm(1)],
            },
            Item {
                entry: 0,
                values: vec![Field::Reg(Reg::new(1)), Field::Imm(2)],
            },
            Item {
                entry: 1,
                values: vec![Field::Reg(Reg::RA)],
            },
        ];
        let f = FuncItems {
            name: "f".into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true, true, false],
            items,
        };
        let img = assemble(dict, vec![f], vec![]).unwrap();
        assert_eq!(img.functions[0].extra_leaders.len(), 1);
        let leader_off = img.functions[0].extra_leaders[0];
        assert!(img.is_extra_leader(0, leader_off));
        // The item there decodes in BLOCK_START context.
        let item = img
            .decode_at(leader_off as usize, BLOCK_START, &DecodeTables::new(&img))
            .unwrap();
        assert_eq!(item.insts[0], parse_inst("li n1,2", 1).unwrap());
    }

    #[test]
    fn host_function_references() {
        let dict = vec![base_entry("call print_int"), base_entry("rjr ra")];
        let items = vec![
            Item {
                entry: 0,
                values: vec![Field::Func("print_int".into())],
            },
            Item {
                entry: 1,
                values: vec![Field::Reg(Reg::RA)],
            },
        ];
        let f = FuncItems {
            name: "f".into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true, true], // after-call is a leader
            items,
        };
        let img = assemble(dict, vec![f], vec![]).unwrap();
        let tables = DecodeTables::new(&img);
        let item = img.decode_at(0, BLOCK_START, &tables).unwrap();
        assert_eq!(item.insts[0], parse_inst("call print_int", 1).unwrap());
        // The buffer form leaves the symbol empty and resolves the host.
        let mut buf = ItemBuf::default();
        img.decode_into(0, BLOCK_START, &tables, &mut buf).unwrap();
        assert_eq!(buf.callees, vec![Callee::Host(0)]);
        assert_eq!(
            buf.insts[0],
            Inst::Call {
                target: FuncRef::Symbol(String::new())
            }
        );
    }
}
