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
use codecomp_coding::bits::BitWriter;
use codecomp_core::bytesio::{code_global, Cursor, Io};
use codecomp_vm::encode::{canonical_instance, field_refs, rebuild, set_field, BaseOp, Field};
use codecomp_vm::isa::{FuncRef, Inst};
use codecomp_vm::program::{callees_by_name, Callee, VmGlobal};
use codecomp_vm::reg::Reg;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
#[derive(Debug, Clone, PartialEq, Default)]
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
#[derive(Debug, Clone, PartialEq, Default)]
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

/// A reusable buffer that [`BriscImage::decode_into`] fills with one
/// item. `Inst::Call`s carry an empty symbol; their targets are in
/// [`Self::callees`].
///
/// It keeps one instruction buffer per dictionary entry, copied from the
/// entry's template the first time the entry is decoded. Every later
/// decode of the entry writes only what its operand bits decide: each
/// wildcard field and each call target is rewritten on every decode, and
/// burned fields never change, so nothing needs resetting and decoding
/// never allocates once each entry in use has been seen. After an error
/// the current entry's contents are unspecified.
#[derive(Debug, Default)]
pub struct ItemBuf {
    /// Dictionary entry index.
    pub entry: u32,
    /// Encoded size in bytes.
    pub size: usize,
    /// The [`DecodeTables::id`] `entries` were copied from; 0 (no
    /// tables) before the first decode.
    tables: u64,
    /// One buffer per dictionary entry, empty until the entry is first
    /// decoded.
    entries: Vec<EntryBuf>,
}

/// One dictionary entry's decoded instructions.
#[derive(Debug, Default)]
struct EntryBuf {
    /// The expanded instructions; branch targets are local byte offsets.
    insts: Vec<Inst>,
    /// Parallel to `insts`: each call's target, [`Callee::None`] for
    /// everything else.
    callees: Vec<Callee>,
}

impl ItemBuf {
    /// The current item's expanded instructions; branch targets are
    /// local byte offsets.
    #[inline]
    pub fn insts(&self) -> &[Inst] {
        self.entries
            .get(self.entry as usize)
            .map_or(&[], |e| &e.insts)
    }

    /// Parallel to [`Self::insts`]: each call's target, [`Callee::None`]
    /// for everything else.
    #[inline]
    pub fn callees(&self) -> &[Callee] {
        self.entries
            .get(self.entry as usize)
            .map_or(&[], |e| &e.callees)
    }
}

/// Lookup tables derived from an image's dictionary, Markov tables and
/// function names — what "the decompressor can build" (§4) — so each
/// in-place decode step indexes arrays and writes planned operand fields
/// instead of hashing, summing, comparing strings or rebuilding
/// instructions. Build once per image with [`DecodeTables::new`]; they
/// go stale if the image's dictionary, Markov tables or function table
/// change.
#[derive(Debug)]
pub struct DecodeTables {
    /// Tells these tables apart from every other set built in this
    /// process, so an [`ItemBuf`] never reuses another image's entries.
    id: u64,
    successors: SuccessorTable,
    /// One template per dictionary entry.
    templates: Vec<Template>,
    /// Call target of each function index.
    function_callee: Vec<Callee>,
    /// Call target of each host index.
    host_callee: Vec<Callee>,
}

impl DecodeTables {
    /// The target of the call whose `Func` operand bits are `raw`.
    #[inline]
    fn callee(&self, raw: u64) -> Result<Callee, BriscError> {
        let idx = raw as u16;
        let target = if idx >= HOST_FUNC_BASE {
            self.host_callee
                .get(usize::from(idx - HOST_FUNC_BASE))
                .ok_or_else(|| BriscError::Corrupt("bad host index".into()))?
        } else {
            self.function_callee
                .get(usize::from(idx))
                .ok_or_else(|| BriscError::Corrupt("bad function index".into()))?
        };
        Ok(*target)
    }

    /// Builds the tables for `image`.
    pub fn new(image: &BriscImage) -> DecodeTables {
        // Ids only need to differ; they publish no other data.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let by_name = callees_by_name(image.functions.iter().map(|f| f.name.as_str()));
        DecodeTables {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            successors: SuccessorTable::new(&image.markov, image.dictionary.len()),
            templates: image.dictionary.iter().map(Template::new).collect(),
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

/// One dictionary entry decoded as far as it can be without operands:
/// everything an item of the entry holds that its operand bits do not
/// change, and where each operand goes. Its size follows the entry,
/// never the code.
#[derive(Debug)]
struct Template {
    /// One instruction per pattern, burned fields set, wildcards zero.
    insts: Vec<Inst>,
    /// The wildcards that fill an operand field.
    fields: Vec<FieldWildcard>,
    /// The `Func` wildcards, in the order their bits are coded.
    calls: Vec<CallWildcard>,
    /// Operand bytes of an item of this entry.
    operand_bytes: usize,
    /// The error every item of this entry raises once `calls` have been
    /// checked; `insts` then stops before the failing pattern.
    fault: Option<Fault>,
}

/// A wildcard that fills operand field `field` of instruction `inst`
/// (the pattern's index in the entry). Its value cannot fail: what can
/// is decided when the template is built.
#[derive(Debug, Clone, Copy)]
struct FieldWildcard {
    /// Its first bit within the item's operand bytes.
    bit: u32,
    kind: FieldKind,
    inst: usize,
    field: usize,
}

/// A `Func` wildcard of instruction `inst`. Its function or host index
/// is checked; the first one of each instruction also names the
/// callee, and the call keeps the template's empty symbol.
#[derive(Debug, Clone, Copy)]
struct CallWildcard {
    /// Its first bit within the item's operand bytes.
    bit: u32,
    inst: usize,
    names_callee: bool,
}

/// Why every item of a dictionary entry fails to decode.
#[derive(Debug)]
enum Fault {
    /// The entry has no patterns.
    Empty,
    /// This pattern is no instruction whatever its operands (see
    /// [`crate::entry::InstPattern::template`]); its operands start at
    /// this bit. Its fields are read in order up to the failure, so a
    /// bad operand before it is reported first.
    Pattern(InstPattern, u32),
}

impl Template {
    fn new(entry: &DictEntry) -> Template {
        let mut template = Template {
            insts: Vec::with_capacity(entry.patterns.len()),
            fields: Vec::new(),
            calls: Vec::new(),
            operand_bytes: entry.wildcard_bits().div_ceil(8) as usize,
            fault: entry.patterns.is_empty().then_some(Fault::Empty),
        };
        let mut bit = 0;
        for p in &entry.patterns {
            let Some(inst) = p.template() else {
                template.fault = Some(Fault::Pattern(p.clone(), bit));
                break;
            };
            let (arity, inst_at) = (field_refs(&inst).len(), template.insts.len());
            let mut names_callee = true;
            for (field, f) in p.fields.iter().enumerate() {
                let PatternField::Wildcard(kind) = *f else {
                    continue;
                };
                // A non-call field past the base instruction's arity is
                // neither kept nor checked.
                if kind == FieldKind::Func {
                    template.calls.push(CallWildcard {
                        bit,
                        inst: inst_at,
                        names_callee: std::mem::take(&mut names_callee),
                    });
                } else if field < arity {
                    template.fields.push(FieldWildcard {
                        bit,
                        kind,
                        inst: inst_at,
                        field,
                    });
                }
                bit += kind.bits();
            }
            template.insts.push(inst);
        }
        template
    }
}

impl Fault {
    /// The error an item whose operand bytes start `ops` raises here,
    /// reading what the failing pattern reads before it fails.
    fn raise(&self, ops: &[u8], tables: &DecodeTables) -> BriscError {
        let (p, mut bit) = match self {
            Fault::Empty => return BriscError::Corrupt("empty dictionary entry".into()),
            Fault::Pattern(p, bit) => (p, *bit),
        };
        // No base instruction has more than three fields; values past
        // the third are still read (and so checked) but unused.
        let mut full = [Field::Imm(0), Field::Imm(0), Field::Imm(0)];
        for (i, f) in p.fields.iter().enumerate() {
            let value = match f {
                PatternField::Wildcard(kind) => {
                    let raw = operand(ops, bit, kind.bits());
                    bit += kind.bits();
                    if *kind == FieldKind::Func {
                        if let Err(e) = tables.callee(raw) {
                            return e;
                        }
                    }
                    kind.value(raw).to_field()
                }
                PatternField::Burned(Field::Func(_)) => {
                    return BriscError::Corrupt("call target burned into the dictionary".into())
                }
                PatternField::Burned(v) => v.clone(),
            };
            if let Some(slot) = full.get_mut(i) {
                *slot = value;
            }
        }
        let shape = rebuild(p.base, &full[..p.fields.len().min(full.len())])
            .expect_err("a pattern without a template has the wrong shape");
        BriscError::Corrupt(shape.to_string())
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
    /// or host indices, truncation, or an entry no item of which decodes
    /// (no patterns, a burned call target, or fields that do not fit the
    /// base instruction).
    pub fn decode_into(
        &self,
        pos: usize,
        ctx: u32,
        tables: &DecodeTables,
        item: &mut ItemBuf,
    ) -> Result<(), BriscError> {
        let (entry_id, template, cursor) = self.locate(pos, ctx, tables)?;
        if item.tables != tables.id {
            item.tables = tables.id;
            item.entries.clear();
            item.entries
                .resize_with(tables.templates.len(), EntryBuf::default);
        }
        let entry = &mut item.entries[entry_id as usize];
        if entry.insts.is_empty() {
            entry.insts.clone_from(&template.insts);
            entry.callees = vec![Callee::None; template.insts.len()];
        }
        fill(template, &self.code[cursor..], tables, entry)?;
        item.entry = entry_id;
        item.size = cursor - pos + template.operand_bytes;
        Ok(())
    }

    /// The entry id, template and operand offset of the item at `pos` in
    /// context `ctx`, once its operand bytes are known to be in the code.
    #[inline(always)]
    fn locate<'t>(
        &self,
        pos: usize,
        ctx: u32,
        tables: &'t DecodeTables,
    ) -> Result<(u32, &'t Template, usize), BriscError> {
        let mut cursor = pos;
        let entry_id =
            tables
                .successors
                .decode_opcode(self.effective_ctx(ctx), &self.code, &mut cursor)?;
        let Some(template) = tables.templates.get(entry_id as usize) else {
            return Err(BriscError::Corrupt(format!("bad entry id {entry_id}")));
        };
        if self.code.len() < cursor + template.operand_bytes {
            return Err(BriscError::Corrupt("operands past end of code".into()));
        }
        Ok((entry_id, template, cursor))
    }

    /// Decodes the item at `pos` into a fresh buffer, with each call's
    /// symbol filled in from its resolved target — for tests and tools
    /// that want one item's named instructions.
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
        let (entry_id, template, cursor) = self.locate(pos, ctx, tables)?;
        let mut entry = EntryBuf {
            insts: template.insts.clone(),
            callees: vec![Callee::None; template.insts.len()],
        };
        fill(template, &self.code[cursor..], tables, &mut entry)?;
        Ok(DecodedItem {
            entry: entry_id,
            insts: entry
                .insts
                .iter()
                .zip(entry.callees)
                .map(|(inst, callee)| self.named(inst, callee))
                .collect(),
            size: cursor - pos + template.operand_bytes,
        })
    }

    /// `inst` with a call's symbol filled in from its resolved `callee`.
    pub(crate) fn named(&self, inst: &Inst, callee: Callee) -> Inst {
        let name = match callee {
            Callee::None => return inst.clone(),
            Callee::Function(i) => self.functions[i as usize].name.clone(),
            Callee::Host(h) => codecomp_ir::eval::HOST_FUNCTIONS[h as usize].to_string(),
        };
        match inst {
            Inst::Call { .. } => Inst::Call {
                target: FuncRef::Symbol(name),
            },
            other => other.clone(),
        }
    }

    /// Linearly decodes function `idx`'s entire body into `item` without
    /// executing it, charging one fuel step per item — the load-time scan
    /// behind quarantine decisions. One `item` can serve every function
    /// of a scan. `tables` must have been built from this image.
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
        item: &mut ItemBuf,
    ) -> Result<(), BriscError> {
        let f = self
            .functions
            .get(idx)
            .ok_or_else(|| BriscError::Corrupt(format!("no function index {idx}")))?;
        let mut pos = f.start as usize;
        let end = pos + f.len as usize;
        let mut ctx = BLOCK_START;
        while pos < end {
            budget.charge_fuel(1)?;
            let local = (pos - f.start as usize) as u32;
            let effective = if self.is_extra_leader(idx, local) {
                BLOCK_START
            } else {
                ctx
            };
            self.decode_into(pos, effective, tables, item)?;
            let last_ends = item.insts().last().is_some_and(Inst::ends_block);
            ctx = if last_ends { BLOCK_START } else { item.entry };
            pos += item.size;
        }
        Ok(())
    }
}

/// Writes the operands of an item of `template`, whose operand bytes
/// start `ops`, into `entry`, a copy of the template that earlier items
/// of the entry may have written.
#[inline(always)]
fn fill(
    template: &Template,
    ops: &[u8],
    tables: &DecodeTables,
    entry: &mut EntryBuf,
) -> Result<(), BriscError> {
    for w in &template.fields {
        let raw = operand(ops, w.bit, w.kind.bits());
        // `Template::new` set this field from `kind.value(0)`, and `value`
        // returns the same variant whatever the bits, so the shape cannot
        // fail here: it was decided when the tables were built.
        let set = set_field(&mut entry.insts[w.inst], w.field, w.kind.value(raw));
        debug_assert!(set.is_ok(), "{set:?}");
    }
    for w in &template.calls {
        let callee = tables.callee(operand(ops, w.bit, FieldKind::Func.bits()))?;
        if w.names_callee {
            entry.callees[w.inst] = callee;
        }
    }
    match &template.fault {
        Some(fault) => Err(fault.raise(ops, tables)),
        None => Ok(()),
    }
}

/// The `width` operand bits at bit `bit` of `ops`, from one big-endian
/// 64-bit window at the byte holding the first bit (zero-padded past the
/// end of the code). Operands are at most 32 bits wide and start at most
/// 7 bits into the window, so one window always holds them.
#[inline]
fn operand(ops: &[u8], bit: u32, width: u32) -> u64 {
    let tail = ops.get((bit / 8) as usize..).unwrap_or_default();
    let word = match tail.first_chunk::<8>() {
        Some(window) => u64::from_be_bytes(*window),
        None => {
            let mut window = [0u8; 8];
            window[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(window)
        }
    };
    (word << (bit % 8)) >> (64 - width)
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

const MAGIC: &[u8; 4] = b"CCBR";

fn base_op_index() -> &'static (Vec<BaseOp>, HashMap<BaseOp, u8>) {
    static TABLE: OnceLock<(Vec<BaseOp>, HashMap<BaseOp, u8>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let all = BaseOp::all();
        assert!(all.len() <= 256);
        let index = all.iter().enumerate().map(|(i, &b)| (b, i as u8)).collect();
        (all, index)
    })
}

/// One dictionary entry; its length is the entry's `P`-cost size. Per
/// pattern: the base-op byte, then one tag per field of that base op (a
/// burned immediate's value follows its tag).
pub fn code_entry<I: Io>(io: &mut I, entry: &mut DictEntry) -> Result<(), BriscError> {
    io.seq(&mut entry.patterns, |io, p| {
        io.tag(
            &mut p.base,
            |base| Ok(base_op_index().1[base]),
            |byte| {
                base_op_index()
                    .0
                    .get(usize::from(byte))
                    .copied()
                    .ok_or_else(|| BriscError::Corrupt(format!("bad base op {byte}")))
            },
        )?;
        let arity = field_refs(&canonical_instance(p.base)).len();
        p.fields
            .resize(arity, PatternField::Wildcard(FieldKind::Reg));
        p.fields.iter_mut().try_for_each(|f| code_field(io, f))
    })
}

/// Wildcard kinds, indexed by their field tag.
const WILDCARD_TAGS: [FieldKind; 7] = [
    FieldKind::Reg,
    FieldKind::Imm(ImmEnc::X4),
    FieldKind::Imm(ImmEnc::I8),
    FieldKind::Imm(ImmEnc::I16),
    FieldKind::Imm(ImmEnc::I32),
    FieldKind::Target,
    FieldKind::Func,
];

/// One pattern field: a wildcard's tag is its kind's index in
/// [`WILDCARD_TAGS`]; a burned register is `0x10 | reg`; a burned
/// immediate is `0x20` followed by its value.
fn code_field<I: Io>(io: &mut I, field: &mut PatternField) -> Result<(), BriscError> {
    io.tag(
        field,
        |f| {
            Ok(match f {
                PatternField::Wildcard(kind) => WILDCARD_TAGS
                    .iter()
                    .position(|k| k == kind)
                    .expect("every kind has a tag")
                    as u8,
                PatternField::Burned(Field::Reg(r)) => 0x10 | r.number(),
                PatternField::Burned(Field::Imm(_)) => 0x20,
                PatternField::Burned(other) => {
                    // Targets and function refs are never burned; encode
                    // defensively as an impossible tag.
                    debug_assert!(false, "unexpected burned field {other:?}");
                    0x7F
                }
            })
        },
        |tag| {
            Ok(match tag {
                t if usize::from(t) < WILDCARD_TAGS.len() => {
                    PatternField::Wildcard(WILDCARD_TAGS[usize::from(t)])
                }
                t if t & 0xF0 == 0x10 => PatternField::Burned(Field::Reg(Reg::new(t & 0x0F))),
                0x20 => PatternField::Burned(Field::Imm(0)),
                other => {
                    return Err(BriscError::Corrupt(format!("bad field tag {other}")));
                }
            })
        },
    )?;
    if let PatternField::Burned(Field::Imm(v)) = field {
        io.i32(v)?;
    }
    Ok(())
}

/// The Markov tables (their length is charged to the program): one
/// `(context, successors)` list per context, in context order.
pub fn code_markov<I: Io>(io: &mut I, markov: &mut MarkovTables) -> Result<(), BriscError> {
    let mut lists: Vec<(u32, Vec<u32>)> = markov
        .iter_sorted()
        .into_iter()
        .map(|(ctx, succ)| (ctx, succ.to_vec()))
        .collect();
    io.seq(&mut lists, |io, (ctx, succ)| {
        io.u32(ctx)?;
        io.seq(succ, |io, e| io.u32(e))
    })?;
    *markov = MarkovTables::from_lists(lists);
    Ok(())
}

/// One function-table entry. Extra leaders travel as deltas from the
/// previous one.
pub fn code_function<I: Io>(io: &mut I, f: &mut BriscFunction) -> Result<(), BriscError> {
    io.string(&mut f.name)?;
    io.usize(&mut f.param_count)?;
    io.u32(&mut f.frame_size)?;
    io.seq(&mut f.saved_regs, |io, r| {
        io.tag(
            r,
            |r| Ok(r.number()),
            |n| {
                if n >= Reg::COUNT {
                    return Err(BriscError::Corrupt("bad saved register".into()));
                }
                Ok(Reg::new(n))
            },
        )
    })?;
    io.u32(&mut f.start)?;
    io.u32(&mut f.len)?;
    let mut prev = 0u32;
    let mut deltas: Vec<u32> = f
        .extra_leaders
        .iter()
        .map(|&l| l - std::mem::replace(&mut prev, l))
        .collect();
    io.seq(&mut deltas, |io, d| io.u32(d))?;
    let mut prev = 0u32;
    f.extra_leaders = deltas
        .into_iter()
        .map(|d| {
            prev = prev
                .checked_add(d)
                .ok_or_else(|| BriscError::Corrupt("leader offset overflow".into()))?;
            Ok(prev)
        })
        .collect::<Result<_, BriscError>>()?;
    Ok(())
}

/// The header: load-time metadata the decompressor expands once.
pub fn code_header<I: Io>(io: &mut I, image: &mut BriscImage) -> Result<(), BriscError> {
    io.seq(&mut image.dictionary, code_entry)?;
    code_markov(io, &mut image.markov)?;
    io.seq(&mut image.globals, code_global)?;
    io.seq(&mut image.functions, code_function)
}

/// The container around the header: magic, the order-0 flag, the
/// DEFLATEd header, and the code blob.
pub fn code_container<I: Io>(
    io: &mut I,
    image: &mut BriscImage,
    packed_header: &mut Vec<u8>,
) -> Result<(), BriscError> {
    io.magic(MAGIC)?;
    io.tag(
        &mut image.order0,
        |&order0| Ok(u8::from(order0)),
        |b| Ok::<_, BriscError>(b != 0),
    )?;
    io.bytes(packed_header)?;
    io.bytes(&mut image.code)?;
    Ok(())
}

impl BriscImage {
    /// Serializes the image.
    ///
    /// The header (dictionary, Markov tables, globals, function table) is
    /// load-time metadata the decompressor expands once, so the container
    /// DEFLATEs it; the *code* stream is stored raw — it must remain
    /// byte-addressable for in-place interpretation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut image = self.clone();
        let mut header = Vec::new();
        code_header(&mut header, &mut image).expect("writing a header cannot fail");
        let mut packed =
            codecomp_flate::deflate_compress(&header, codecomp_flate::CompressionLevel::Best);
        let mut out = Vec::new();
        code_container(&mut out, &mut image, &mut packed).expect("writing a container cannot fail");
        out
    }

    /// Deserializes an image.
    ///
    /// # Errors
    ///
    /// [`BriscError::Truncated`] if the bytes end before the declared
    /// structure does; [`BriscError::Corrupt`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<BriscImage, BriscError> {
        Self::from_bytes_budgeted(bytes, &codecomp_core::Budget::default())
    }

    /// Budget-governed [`Self::from_bytes`]: the header inflate, every
    /// table count, and the code blob are all checked against `budget`
    /// before allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::from_bytes`], plus [`BriscError::Limit`] when the
    /// budget trips.
    pub fn from_bytes_budgeted(
        bytes: &[u8],
        budget: &codecomp_core::Budget,
    ) -> Result<BriscImage, BriscError> {
        let mut image = BriscImage::default();
        let mut packed_header = Vec::new();
        let mut outer = Cursor::new(bytes, budget);
        code_container(&mut outer, &mut image, &mut packed_header)?;
        if outer.remaining() != 0 {
            return Err(BriscError::Corrupt("trailing bytes".into()));
        }
        budget.check_output_bytes(image.code.len() as u64)?;
        let header =
            codecomp_flate::inflate_budgeted(&packed_header, budget).map_err(|e| match e {
                codecomp_flate::FlateError::LimitExceeded { limit } => BriscError::Limit {
                    what: "header inflate output/fuel".into(),
                    limit,
                },
                other => BriscError::Corrupt(format!("header: {other}")),
            })?;
        let mut r = Cursor::new(&header, budget);
        code_header(&mut r, &mut image)?;
        if r.remaining() != 0 {
            return Err(BriscError::Corrupt("trailing header bytes".into()));
        }
        if let Some(e) = image
            .dictionary
            .iter()
            .find(|e| e.patterns.is_empty() || e.patterns.len() > MAX_ENTRY_PATTERNS)
        {
            return Err(BriscError::Corrupt(format!(
                "bad pattern count {}",
                e.patterns.len()
            )));
        }
        for f in &image.functions {
            if f.saved_regs.len() > usize::from(Reg::COUNT) {
                return Err(BriscError::Corrupt("too many saved registers".into()));
            }
            if u64::from(f.start) + u64::from(f.len) > image.code.len() as u64 {
                return Err(BriscError::Corrupt(format!(
                    "function {} extends past the code blob",
                    f.name
                )));
            }
        }
        codecomp_core::telemetry::gauge_set(
            "brisc.dictionary_entries",
            image.dictionary.len() as u64,
        );
        codecomp_core::telemetry::counter_add("brisc.image.loads", 1);
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_coding::bits::BitReader;
    use codecomp_vm::asm::parse_inst;

    fn base_entry(s: &str) -> DictEntry {
        DictEntry::single(InstPattern::base_of(&parse_inst(s, 1).unwrap()))
    }

    #[test]
    fn entry_serialization_roundtrip() {
        let mut burned = InstPattern::base_of(&parse_inst("ld.iw n0,4(sp)", 1).unwrap());
        burned.fields[0] = PatternField::Burned(Field::Reg(Reg::new(0)));
        burned.fields[1] = PatternField::Burned(Field::Imm(-300));
        let samples = [
            base_entry("mov.i n4,n0"),
            base_entry("ld.iw n0,4(sp)"),
            base_entry("enter sp,sp,24"),
            base_entry("ble.i n4,0,$L5"),
            base_entry("call pepper"),
            base_entry("epi"),
            DictEntry::combined(&base_entry("mov.i n4,n0"), &base_entry("mov.i n2,n1")),
            DictEntry::single(burned),
        ];
        let budget = codecomp_core::Budget::default();
        for e in &samples {
            let mut bytes = Vec::new();
            code_entry(&mut bytes, &mut e.clone()).unwrap();
            let (mut r, mut back) = (Cursor::new(&bytes, &budget), DictEntry::default());
            code_entry(&mut r, &mut back).unwrap();
            assert_eq!(&back, e, "roundtrip failed for {e}");
            assert_eq!(r.remaining(), 0);
        }
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
    fn decode_error_class_does_not_depend_on_the_message() {
        use codecomp_core::DecodeError;
        // An overrunning function is malformed whatever its name says.
        let mut img = tiny_image();
        img.functions[0].name = "truncated_x".into();
        img.functions[0].len += 100;
        let err = BriscImage::from_bytes(&img.to_bytes()).unwrap_err();
        assert!(
            matches!(DecodeError::from(err.clone()), DecodeError::Malformed { .. }),
            "got {err:?}"
        );
        // A cut image is truncated.
        let bytes = tiny_image().to_bytes();
        let err = BriscImage::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(DecodeError::from(err), DecodeError::Truncated);
    }

    #[test]
    fn oversized_markov_values_rejected_not_truncated() {
        // A context id or successor above u32::MAX must surface as
        // Corrupt, never be silently cast down to a valid-looking id.
        let budget = codecomp_core::Budget::default();
        let varints = |values: &[u64]| {
            let mut bytes = Vec::new();
            for &v in values {
                bytes.uvarint(&mut { v }).unwrap();
            }
            bytes
        };
        // One list: a context id too big for u32, no successors.
        let bytes = varints(&[1, u64::MAX, 0]);
        assert!(matches!(
            code_markov(
                &mut Cursor::new(&bytes, &budget),
                &mut MarkovTables::default()
            ),
            Err(BriscError::Corrupt(_))
        ));
        // One list: context 7, one successor too big for u32.
        let bytes = varints(&[1, 7, 1, u64::from(u32::MAX) + 1]);
        assert!(matches!(
            code_markov(
                &mut Cursor::new(&bytes, &budget),
                &mut MarkovTables::default()
            ),
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
        let mut buf = ItemBuf::default();
        img.validate_function(0, &tables, &budget, &mut buf)
            .unwrap();
        // The tiny program has 4 items, so the scan spends exactly 4 fuel.
        assert_eq!(budget.usage().fuel_spent, 4);
        let starved = codecomp_core::Budget::new(codecomp_core::DecodeLimits {
            decode_fuel: 3,
            ..codecomp_core::DecodeLimits::default()
        });
        assert!(matches!(
            img.validate_function(0, &tables, &starved, &mut buf),
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
        assert_eq!(buf.callees(), [Callee::Host(0)]);
        assert_eq!(
            buf.insts()[0],
            Inst::Call {
                target: FuncRef::Symbol(String::new())
            }
        );
    }

    // ---- the reference decoder ------------------------------------------------

    /// One decode's observable result: entry, size, instructions and
    /// callees, or the error.
    type Decoded = Result<(u32, usize, Vec<Inst>, Vec<Callee>), BriscError>;

    /// The decoder templates replaced: every pattern of the entry
    /// instantiated from scratch, its fields read one by one. Kept as
    /// the reference [`BriscImage::decode_into`] must equal item for
    /// item. The one addition is the empty entry, which this decoded as
    /// an empty item for the interpreter's run loop to trap on.
    fn reference_decode(
        image: &BriscImage,
        pos: usize,
        ctx: u32,
        tables: &DecodeTables,
    ) -> Decoded {
        let mut cursor = pos;
        let entry_id =
            tables
                .successors
                .decode_opcode(image.effective_ctx(ctx), &image.code, &mut cursor)?;
        let Some(entry) = image.dictionary.get(entry_id as usize) else {
            return Err(BriscError::Corrupt(format!("bad entry id {entry_id}")));
        };
        let operand_bytes = entry.wildcard_bits().div_ceil(8) as usize;
        let Some(operand_slice) = image.code.get(cursor..cursor + operand_bytes) else {
            return Err(BriscError::Corrupt("operands past end of code".into()));
        };
        let mut bits = BitReader::new(operand_slice);
        let (mut insts, mut callees) = (Vec::new(), Vec::new());
        for p in &entry.patterns {
            let mut callee = Callee::None;
            let inst = instantiate(p, |field| match field {
                PatternField::Wildcard(kind) => read_field(*kind, &mut bits, tables, &mut callee),
                PatternField::Burned(Field::Func(_)) => Err(BriscError::Corrupt(
                    "call target burned into the dictionary".into(),
                )),
                PatternField::Burned(v) => Ok(v.clone()),
            })?;
            insts.push(inst);
            callees.push(callee);
        }
        if insts.is_empty() {
            return Err(BriscError::Corrupt("empty dictionary entry".into()));
        }
        Ok((entry_id, cursor - pos + operand_bytes, insts, callees))
    }

    /// Rebuilds an instruction, asking `value` for each field position
    /// in order (burned or wildcard).
    fn instantiate(
        p: &InstPattern,
        mut value: impl FnMut(&PatternField) -> Result<Field, BriscError>,
    ) -> Result<Inst, BriscError> {
        // No base instruction has more than three fields; values past
        // the third are still produced (and so checked) but unused.
        let mut full = [Field::Imm(0), Field::Imm(0), Field::Imm(0)];
        for (i, f) in p.fields.iter().enumerate() {
            let v = value(f)?;
            if let Some(slot) = full.get_mut(i) {
                *slot = v;
            }
        }
        rebuild(p.base, &full[..p.fields.len().min(full.len())])
            .map_err(|e| BriscError::Corrupt(e.to_string()))
    }

    /// Reads one wildcard field. A `Func` field comes back as an empty
    /// symbol; the first one's resolved target goes to `callee`.
    fn read_field(
        kind: FieldKind,
        bits: &mut BitReader<'_>,
        tables: &DecodeTables,
        callee: &mut Callee,
    ) -> Result<Field, BriscError> {
        let eof = |_| BriscError::Corrupt("operand bits past end of code".into());
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
                if *callee == Callee::None {
                    *callee = *target;
                }
                Field::Func(String::new())
            }
        })
    }

    /// Walks every function of `image` as the load scan does, decoding
    /// each item with the templates and with the reference, until the
    /// function's first error; returns the number of items compared and
    /// the errors the walks stopped at.
    fn assert_matches_reference(what: &str, image: &BriscImage) -> (usize, Vec<BriscError>) {
        let tables = DecodeTables::new(image);
        let mut buf = ItemBuf::default();
        let (mut compared, mut errors) = (0, Vec::new());
        for (fi, f) in image.functions.iter().enumerate() {
            let start = f.start as usize;
            let (mut pos, end) = (start, start + f.len as usize);
            let mut ctx = BLOCK_START;
            while pos < end {
                if image.is_extra_leader(fi, (pos - start) as u32) {
                    ctx = BLOCK_START;
                }
                let expect = reference_decode(image, pos, ctx, &tables);
                let got: Decoded = image.decode_into(pos, ctx, &tables, &mut buf).map(|()| {
                    (
                        buf.entry,
                        buf.size,
                        buf.insts().to_vec(),
                        buf.callees().to_vec(),
                    )
                });
                assert_eq!(got, expect, "{what}: item at {pos}, context {ctx}");
                compared += 1;
                let (entry, size, insts) = match expect {
                    Ok((entry, size, insts, _)) => (entry, size, insts),
                    Err(e) => {
                        errors.push(e);
                        break;
                    }
                };
                ctx = if insts.last().is_some_and(Inst::ends_block) {
                    BLOCK_START
                } else {
                    entry
                };
                pos += size;
            }
        }
        (compared, errors)
    }

    #[test]
    fn a_reused_entry_buffer_decodes_as_the_reference_does() {
        // Entry 0 is [li *,*i8][call *,*]: the call has two `Func`
        // wildcards, and only the first names its callee.
        let mut call = InstPattern::base_of(&parse_inst("call f", 1).unwrap());
        call.fields.push(PatternField::Wildcard(FieldKind::Func));
        let entry = DictEntry::combined(&base_entry("li n0,1"), &DictEntry::single(call));
        let dict = vec![entry, base_entry("rjr ra")];
        let item = |rd, imm, first: &str, second: &str| Item {
            entry: 0,
            values: vec![
                Field::Reg(Reg::new(rd)),
                Field::Imm(imm),
                Field::Func(first.into()),
                Field::Func(second.into()),
            ],
        };
        let ret = Item {
            entry: 1,
            values: vec![Field::Reg(Reg::RA)],
        };
        let function = |name: &str, items: Vec<Item>| FuncItems {
            name: name.into(),
            param_count: 0,
            frame_size: 0,
            saved_regs: vec![],
            leaders: vec![true; items.len()],
            items,
        };
        // The second item calls `g`, which is then dropped from the
        // function table: it fails on its last wildcard, after the
        // register, the immediate and the callee were written.
        let main = function(
            "main",
            vec![
                item(1, 5, "f", "main"),
                item(2, -7, "f", "g"),
                item(3, 9, "main", "f"),
                ret.clone(),
            ],
        );
        let mut image = assemble(
            dict,
            vec![
                main,
                function("f", vec![ret.clone()]),
                function("g", vec![ret]),
            ],
            vec![],
        )
        .unwrap();
        image.functions.pop();
        let tables = DecodeTables::new(&image);
        let mut buf = ItemBuf::default();
        let mut pos = 0;
        let mut callees = Vec::new();
        for good in [true, false, true] {
            let expect = reference_decode(&image, pos, BLOCK_START, &tables);
            let got: Decoded = image
                .decode_into(pos, BLOCK_START, &tables, &mut buf)
                .map(|()| {
                    (
                        buf.entry,
                        buf.size,
                        buf.insts().to_vec(),
                        buf.callees().to_vec(),
                    )
                });
            assert_eq!(got, expect, "item at {pos}");
            match expect {
                Ok((_, size, _, item_callees)) => {
                    assert!(good, "item at {pos} decoded");
                    callees.push(item_callees);
                    pos += size;
                }
                Err(e) => {
                    assert!(!good, "item at {pos}: {e}");
                    assert_eq!(e, BriscError::Corrupt("bad function index".into()));
                    // Items of one entry in one context are one size.
                    pos += buf.size;
                }
            }
        }
        let (main, f) = (Callee::Function(0), Callee::Function(1));
        assert_eq!(callees, [[Callee::None, f], [Callee::None, main]]);
    }

    #[test]
    fn an_entry_buffer_starts_over_on_other_tables() {
        // Two images whose dictionaries are one size, entry 0 of each
        // [li *,k] with its own burned immediate k.
        let image = |k| {
            let mut li = InstPattern::base_of(&parse_inst("li n0,1", 1).unwrap());
            li.fields[1] = PatternField::Burned(Field::Imm(k));
            let main = FuncItems {
                name: "main".into(),
                param_count: 0,
                frame_size: 0,
                saved_regs: vec![],
                leaders: vec![true, false],
                items: vec![
                    Item {
                        entry: 0,
                        values: vec![Field::Reg(Reg::new(1))],
                    },
                    Item {
                        entry: 1,
                        values: vec![Field::Reg(Reg::RA)],
                    },
                ],
            };
            let dict = vec![DictEntry::single(li), base_entry("rjr ra")];
            assemble(dict, vec![main], vec![]).unwrap()
        };
        let images = [image(5), image(-7)];
        let tables: Vec<DecodeTables> = images.iter().map(DecodeTables::new).collect();
        // One buffer, alternating between the images: each item must
        // carry its own image's burned field, never the other's.
        let mut buf = ItemBuf::default();
        for (image, tables) in images.iter().zip(&tables).cycle().take(4) {
            let pos = image.functions[0].start as usize;
            let expect = reference_decode(image, pos, BLOCK_START, tables);
            let got: Decoded = image
                .decode_into(pos, BLOCK_START, tables, &mut buf)
                .map(|()| {
                    (
                        buf.entry,
                        buf.size,
                        buf.insts().to_vec(),
                        buf.callees().to_vec(),
                    )
                });
            assert_eq!(got, expect);
        }
        assert_eq!(buf.insts(), [parse_inst("li n1,-7", 1).unwrap()]);
    }

    fn compiled(src: &str) -> codecomp_vm::program::VmProgram {
        let ir = codecomp_front::compile(src).unwrap();
        codecomp_vm::codegen::compile_module(&ir, codecomp_vm::isa::IsaConfig::full()).unwrap()
    }

    #[test]
    fn templates_decode_every_corpus_and_synthetic_item_as_the_reference_does() {
        let modules = codecomp_corpus::synthetic_modules(
            7,
            codecomp_corpus::MultiModuleConfig {
                modules: 2,
                shared_functions: 10,
                functions_per_module: 6,
                statements_per_function: 8,
                globals: 5,
                max_expr_depth: 4,
            },
        );
        let sources = codecomp_corpus::benchmarks()
            .into_iter()
            .map(|b| (b.name, b.source))
            .chain(modules.iter().map(|src| ("module", src.as_str())));
        let mut compared = 0;
        for (name, src) in sources {
            let vm = compiled(src);
            for options in crate::compress::tests::golden_variants() {
                let image = crate::compress::compress(&vm, options).unwrap().image;
                let (items, errors) =
                    assert_matches_reference(&format!("{name} {options:?}"), &image);
                assert_eq!(errors, [], "{name} {options:?}");
                compared += items;
            }
        }
        assert!(compared > 30_000, "only {compared} items compared");
    }

    #[test]
    fn templates_fail_as_the_reference_does_on_mutated_code_and_dictionaries() {
        use codecomp_core::fault::mutation_schedule;
        const MUTATIONS: usize = 150;
        let budget = codecomp_core::Budget::default();
        let (mut code_cases, mut dict_cases) = (0, 0);
        // Failures every template fault and operand check must have met.
        let mut failures = vec![
            "field shape mismatch",
            "empty dictionary entry",
            "bad function index",
            "bad host index",
            "bad entry id",
        ];
        for (seed, b) in codecomp_corpus::benchmarks().into_iter().enumerate() {
            let vm = compiled(b.source);
            let image = crate::compress::compress(&vm, Default::default())
                .unwrap()
                .image;
            let mut check = |what: String, mutated: &BriscImage| {
                for e in assert_matches_reference(&what, mutated).1 {
                    let e = e.to_string();
                    failures.retain(|class| !e.contains(class));
                }
            };
            for m in mutation_schedule(seed as u64, image.code.len(), MUTATIONS) {
                let mutated = BriscImage {
                    code: m.apply(&image.code),
                    ..image.clone()
                };
                check(format!("{} code {m:?}", b.name), &mutated);
                code_cases += 1;
            }
            // Entries the code still names but the dictionary lost.
            let mut halved = image.clone();
            halved.dictionary.truncate(image.dictionary.len() / 2);
            check(format!("{} halved dictionary", b.name), &halved);
            let mut dict_bytes = Vec::new();
            dict_bytes
                .seq(&mut image.dictionary.clone(), code_entry)
                .unwrap();
            for m in mutation_schedule(seed as u64, dict_bytes.len(), MUTATIONS) {
                let mut dictionary = Vec::new();
                let bytes = m.apply(&dict_bytes);
                if Cursor::new(&bytes, &budget)
                    .seq(&mut dictionary, code_entry)
                    .is_err()
                {
                    continue;
                }
                let mutated = BriscImage {
                    dictionary,
                    ..image.clone()
                };
                check(format!("{} dictionary {m:?}", b.name), &mutated);
                dict_cases += 1;
            }
        }
        assert_eq!(code_cases, 10 * MUTATIONS);
        assert!(dict_cases > 150, "only {dict_cases} dictionaries decoded");
        assert!(failures.is_empty(), "never failed with {failures:?}");
    }
}
