//! The BRISC compression algorithm (paper §4).
//!
//! Greedy dictionary construction: each pass scans the current program,
//! generating candidate instruction patterns by one-field operand
//! specialization, `-x4` immediate narrowing, and opcode combination
//! over the augmented operand-specialized sets of adjacent pairs; each
//! candidate is scored `B = P − W`; the top `K` are adopted; the
//! program is rewritten (combinations first, one new pattern per pair,
//! then compacting specializations); the hunt stops when a pass yields
//! fewer than `K` positive candidates.
//!
//! Candidates are generated as allocation-free `Copy` keys (an entry
//! plus a spec), and only the keys that can reach `P > 0` are ever
//! materialized into a [`DictEntry`]. Keys are grouped by a fingerprint
//! of the pattern sequence they denote; a group whose summed savings,
//! less the smallest exact dictionary size among its keys, is not
//! positive cannot hold an adoptable entry under either memory regime,
//! so its keys are dropped unscored. The bound is exact: the surviving
//! entries, their scores and their order are those of scoring every key.

use crate::entry::{DictEntry, FieldKind, ImmEnc, InstPattern, PatternField, MAX_ENTRY_PATTERNS};
use crate::image::{assemble_with, BriscImage, FuncItems, Item};
use crate::BriscError;
use codecomp_core::bytesio::{uvarint_len, zigzag};
use codecomp_core::dict::{select_top_k, Benefit, MemoryRegime, PassPolicy};
use codecomp_core::fxhash::{FxHashMap, FxHashSet, FxHasher};
use codecomp_vm::encode::{field_refs, Field, FieldRef};
use codecomp_vm::isa::Inst;
use codecomp_vm::program::{VmFunction, VmProgram};
use codecomp_vm::reg::Reg;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Compressor knobs; the default matches the paper (`K = 20`, order-1
/// Markov, all candidate generators on).
#[derive(Debug, Clone, Copy)]
pub struct BriscOptions {
    /// Candidates adopted per pass.
    pub k: usize,
    /// Safety cap on passes.
    pub max_passes: usize,
    /// `B = P − W` or abundant-memory `B = P`.
    pub regime: MemoryRegime,
    /// Generate one-field operand specializations.
    pub specialization: bool,
    /// Generate opcode combinations of adjacent pairs.
    pub combination: bool,
    /// Generate `-x4` scaled-immediate narrowings.
    pub x4: bool,
    /// Replace conventional epilogues with the `epi` macro-instruction.
    pub epi: bool,
    /// Use a single context instead of the order-1 Markov model.
    pub order0: bool,
    /// Extra bytes charged against `P` per adopted entry, modeling the
    /// growth of the transmitted Markov tables (the paper charges only
    /// the dictionary entry itself; this knob exists for the ablation).
    pub table_charge: u32,
}

impl Default for BriscOptions {
    fn default() -> Self {
        Self {
            k: 20,
            max_passes: 64,
            regime: MemoryRegime::Constrained,
            specialization: true,
            combination: true,
            x4: true,
            epi: true,
            order0: false,
            table_charge: 0,
        }
    }
}

/// Compression outcome: the image plus statistics.
#[derive(Debug, Clone)]
pub struct BriscReport {
    /// The compressed program.
    pub image: BriscImage,
    /// Passes executed.
    pub passes: usize,
    /// Total candidates tested (the paper reports 93,211 for gcc-2.6.3).
    pub candidates_tested: usize,
    /// Candidates among them whose bound allowed `P > 0`, and which were
    /// therefore materialized and fully scored.
    pub candidates_scored: usize,
    /// Final dictionary size including base entries (gcc: 1232).
    pub dictionary_entries: usize,
    /// Base entries among them.
    pub base_entries: usize,
    /// Input size: the quantized base VM encoding of the program.
    pub input_bytes: usize,
}

/// One element of the working program: a dictionary entry applied to a
/// run of original instructions.
#[derive(Debug, Clone)]
struct CItem {
    entry: u32,
    insts: Vec<Inst>,
    /// Original index of the first instruction (for target remapping).
    first_inst: usize,
}

#[derive(Debug)]
struct CFunc {
    name: String,
    param_count: usize,
    frame_size: u32,
    saved_regs: Vec<Reg>,
    items: Vec<CItem>,
    /// Leader flags parallel to `items`.
    leaders: Vec<bool>,
}

/// The growing dictionary, with each entry's costs cached when it is
/// added so candidate scoring never re-derives them.
#[derive(Debug, Default)]
struct Dictionary {
    entries: Vec<DictEntry>,
    /// Wildcard bits per entry (its instance size).
    bits: Vec<u32>,
    /// Serialized size per entry ([`DictEntry::dict_bytes`]).
    bytes: Vec<usize>,
    index: FxHashMap<DictEntry, u32>,
}

impl Dictionary {
    /// Adds `entry`, whose serialized size is `bytes`, and returns its id.
    fn push(&mut self, entry: DictEntry, bytes: usize) -> u32 {
        let id = self.entries.len() as u32;
        self.bits.push(entry.wildcard_bits());
        self.bytes.push(bytes);
        self.index.insert(entry.clone(), id);
        self.entries.push(entry);
        id
    }

    /// Encoded instance size of entry `id` ([`DictEntry::instance_bytes`]).
    fn instance_bytes(&self, id: u32) -> usize {
        inst_bytes(self.bits[id as usize])
    }

    /// The id of `entry`, adding it first if it is new.
    fn intern(&mut self, entry: DictEntry) -> u32 {
        match self.index.get(&entry) {
            Some(&id) => id,
            None => {
                let bytes = entry.dict_bytes();
                self.push(entry, bytes)
            }
        }
    }
}

/// The state of one greedy hunt: the working program, the dictionary,
/// and the keys already generated (the paper's "hash table of
/// previously generated candidates").
#[derive(Debug)]
struct Hunt {
    options: BriscOptions,
    funcs: Vec<CFunc>,
    dict: Dictionary,
    seen_keys: FxHashSet<CandKey>,
    candidates_tested: usize,
    candidates_scored: usize,
}

/// Compresses a VM program into a BRISC image.
///
/// # Errors
///
/// [`BriscError`] on programs outside the representable envelope
/// (functions over 64 KiB of compressed code, > 65280 functions, …).
pub fn compress(program: &VmProgram, options: BriscOptions) -> Result<BriscReport, BriscError> {
    let _stage = codecomp_core::telemetry::stage!("brisc.compress");
    let input_bytes = codecomp_vm::encode::code_segment_size(program);

    let mut hunt = Hunt::new(program, options)?;
    let base_entries = hunt.dict.entries.len();

    // ---- greedy passes ----
    let policy = PassPolicy {
        k: options.k,
        max_passes: options.max_passes,
        regime: options.regime,
    };
    let mut passes = 0usize;
    loop {
        passes += 1;
        let adopted = hunt.pass();
        if !policy.continue_after(adopted, passes) {
            break;
        }
    }

    // ---- convert to image items ----
    let Hunt {
        funcs,
        dict,
        candidates_tested,
        candidates_scored,
        ..
    } = hunt;
    let mut out_funcs = Vec::with_capacity(funcs.len());
    for f in &funcs {
        // Map original instruction index -> item index.
        let mut inst_to_item = HashMap::new();
        for (idx, item) in f.items.iter().enumerate() {
            inst_to_item.insert(item.first_inst, idx as u32);
        }
        let mut items = Vec::with_capacity(f.items.len());
        for item in &f.items {
            let entry = &dict.entries[item.entry as usize];
            let mut values = Vec::new();
            for (p, inst) in entry.patterns.iter().zip(&item.insts) {
                for v in p.extract(inst) {
                    values.push(match v {
                        Field::Target(inst_idx) => Field::Target(
                            *inst_to_item.get(&(inst_idx as usize)).ok_or_else(|| {
                                BriscError::Compress(format!(
                                    "branch target {inst_idx} is not an item start in {}",
                                    f.name
                                ))
                            })?,
                        ),
                        other => other,
                    });
                }
            }
            items.push(Item {
                entry: item.entry,
                values,
            });
        }
        out_funcs.push(FuncItems {
            name: f.name.clone(),
            param_count: f.param_count,
            frame_size: f.frame_size,
            saved_regs: f.saved_regs.clone(),
            items,
            leaders: f.leaders.clone(),
        });
    }
    let globals = program.globals.clone();
    let image = assemble_with(dict.entries, out_funcs, globals, options.order0)?;
    {
        use codecomp_core::telemetry as t;
        t::gauge_set("brisc.dictionary_entries", image.dictionary.len() as u64);
        t::gauge_set("brisc.base_entries", base_entries as u64);
        t::counter_add("brisc.compress.programs", 1);
        t::counter_add("brisc.compress.input_bytes", input_bytes as u64);
        t::counter_add("brisc.compress.candidates_tested", candidates_tested as u64);
        t::counter_add("brisc.compress.candidates_scored", candidates_scored as u64);
    }
    Ok(BriscReport {
        dictionary_entries: image.dictionary.len(),
        base_entries,
        image,
        passes,
        candidates_tested,
        candidates_scored,
        input_bytes,
    })
}

impl Hunt {
    /// The initial item sequence: every instruction on its base entry.
    fn new(program: &VmProgram, options: BriscOptions) -> Result<Hunt, BriscError> {
        let mut dict = Dictionary::default();
        let mut funcs = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            funcs.push(build_cfunc(f, options, &mut dict)?);
        }
        Ok(Hunt {
            options,
            funcs,
            dict,
            seen_keys: FxHashSet::default(),
            candidates_tested: 0,
            candidates_scored: 0,
        })
    }

    /// Every new candidate key of this pass with its summed byte saving.
    fn candidates(&self) -> FxHashMap<CandKey, i64> {
        let mut candidates = FxHashMap::default();
        for f in &self.funcs {
            generate_candidates(
                f,
                &self.dict,
                self.options,
                &self.seen_keys,
                &mut candidates,
            );
        }
        candidates
    }

    /// Runs one greedy pass — generate, bound, score, adopt the top `K`,
    /// rewrite — and returns how many entries it adopted.
    fn pass(&mut self) -> usize {
        let candidates = self.candidates();
        self.candidates_tested += candidates.len();
        let charge = i64::from(self.options.table_charge);

        // Bound: group keys by the pattern sequence they denote. Every
        // saving is positive and `W ≥ 0`, so an entry's `B` is at most
        // its group's summed saving less the group's smallest exact
        // dictionary size and the table charge; a group where that is
        // not positive holds no adoptable entry.
        let mut keyed: Vec<(CandKey, i64, u64)> = Vec::with_capacity(candidates.len());
        let mut groups: FxHashMap<u64, (i64, usize)> = FxHashMap::default();
        for (&key, &saved) in &candidates {
            let fp = fingerprint(key, &self.dict.entries);
            let group = groups.entry(fp).or_insert((0, usize::MAX));
            group.0 += saved;
            group.1 = group.1.min(key_dict_bytes(key, &self.dict));
            keyed.push((key, saved, fp));
        }
        self.seen_keys.extend(candidates.into_keys());

        // Materialize the survivors once per key; merge keys that denote
        // the same resulting pattern; drop entries already in the
        // dictionary.
        let mut merged: FxHashMap<DictEntry, i64> = FxHashMap::default();
        for (key, saved, fp) in keyed {
            let (sum, min_bytes) = groups[&fp];
            if sum - min_bytes as i64 - charge <= 0 {
                continue;
            }
            self.candidates_scored += 1;
            let entry = materialize(key, &self.dict.entries);
            debug_assert_eq!(key_dict_bytes(key, &self.dict), entry.dict_bytes());
            if self.dict.index.contains_key(&entry) {
                continue;
            }
            *merged.entry(entry).or_insert(0) += saved;
        }
        let mut merged: Vec<(DictEntry, i64)> = merged.into_iter().collect();
        // Deterministic order for tie-breaking inside select_top_k.
        merged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let scored: Vec<((DictEntry, usize), Benefit)> = merged
            .into_iter()
            .map(|(entry, total_saved)| {
                let bytes = entry.dict_bytes();
                let benefit = Benefit {
                    size_reduction: total_saved - bytes as i64 - charge,
                    table_cost: entry.native_table_cost() as i64,
                };
                ((entry, bytes), benefit)
            })
            .collect();

        let adopted = select_top_k(scored, self.options.k, self.options.regime);
        let new_ids: Vec<u32> = adopted
            .into_iter()
            .map(|((entry, bytes), _)| self.dict.push(entry, bytes))
            .collect();
        if !new_ids.is_empty() {
            for f in &mut self.funcs {
                rewrite(f, &self.dict, &new_ids);
            }
        }
        new_ids.len()
    }
}

// ---- initial program construction ---------------------------------------------

fn build_cfunc(
    f: &VmFunction,
    options: BriscOptions,
    dict: &mut Dictionary,
) -> Result<CFunc, BriscError> {
    // Epilogue peephole (on the labeled form, so labels stay aligned).
    let code = if options.epi {
        replace_epilogues(f)
    } else {
        f.code.clone()
    };

    // Strip labels, mapping label -> instruction index.
    let mut insts: Vec<Inst> = Vec::with_capacity(code.len());
    let mut label_at: HashMap<u32, usize> = HashMap::new();
    for inst in &code {
        match inst {
            Inst::Label(l) => {
                label_at.insert(*l, insts.len());
            }
            other => insts.push(other.clone()),
        }
    }
    // Rewrite branch targets to instruction indices.
    let resolve = |l: u32| -> Result<u32, BriscError> {
        label_at
            .get(&l)
            .map(|&i| i as u32)
            .ok_or_else(|| BriscError::Compress(format!("unresolved label {l} in {}", f.name)))
    };
    let mut targets: HashSet<usize> = HashSet::new();
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. }
            | Inst::BranchImm { target, .. }
            | Inst::Jump { target } => {
                *target = resolve(*target)?;
                targets.insert(*target as usize);
            }
            _ => {}
        }
    }

    // Instruction-level leaders.
    let mut leaders = vec![false; insts.len()];
    for (i, leader) in leaders.iter_mut().enumerate() {
        *leader = i == 0 || targets.contains(&i) || (i > 0 && insts[i - 1].ends_block());
    }

    // Items: one per instruction, on its base entry.
    let mut items = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        items.push(CItem {
            entry: dict.intern(DictEntry::single(InstPattern::base_of(inst))),
            insts: vec![inst.clone()],
            first_inst: i,
        });
    }
    Ok(CFunc {
        name: f.name.clone(),
        param_count: f.param_count,
        frame_size: f.frame_size,
        saved_regs: f.saved_regs.clone(),
        items,
        leaders,
    })
}

/// Replaces the conventional epilogue (`reload`*, `reload ra`, `exit`,
/// `rjr ra`) with the `epi` macro-instruction when it matches the
/// function's frame layout exactly.
fn replace_epilogues(f: &VmFunction) -> Vec<Inst> {
    if f.frame_size == 0 {
        return f.code.clone();
    }
    let mut expect: Vec<Inst> = Vec::new();
    for (i, &r) in f.saved_regs.iter().enumerate() {
        expect.push(Inst::Reload {
            rd: r,
            off: f.saved_slot(i),
        });
    }
    expect.push(Inst::Reload {
        rd: Reg::RA,
        off: f.ra_slot(),
    });
    expect.push(Inst::Exit {
        amount: f.frame_size as i32,
    });
    expect.push(Inst::Rjr { rs: Reg::RA });

    let mut out = Vec::with_capacity(f.code.len());
    let mut i = 0usize;
    while i < f.code.len() {
        if f.code[i..].starts_with(&expect) {
            out.push(Inst::Epi);
            i += expect.len();
        } else {
            out.push(f.code[i].clone());
            i += 1;
        }
    }
    out
}

// ---- candidate generation -----------------------------------------------------

/// A specializable field value (targets and function refs never burn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FieldVal {
    Reg(u8),
    Imm(i32),
}

/// A zero-or-one-field modification of a dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SpecDesc {
    /// The entry unchanged.
    Identity,
    /// One wildcard field burned to a value.
    Burn { pi: u8, fi: u8, v: FieldVal },
    /// One plain immediate wildcard narrowed to the 4-bit `-x4` form.
    X4 { pi: u8, fi: u8 },
}

/// A candidate, identified without materializing the entry — candidate
/// generation runs millions of times per pass, so keys stay `Copy` and
/// allocation-free; the `DictEntry` is built once per unique candidate
/// at scoring time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CandKey {
    Single {
        entry: u32,
        spec: SpecDesc,
    },
    Pair {
        a: u32,
        sa: SpecDesc,
        b: u32,
        sb: SpecDesc,
    },
}

impl SpecDesc {
    /// The `(pattern, field)` position a spec rewrites and the field it
    /// writes there; `None` for the identity.
    fn substitution(self) -> Option<((usize, usize), PatternField)> {
        match self {
            SpecDesc::Identity => None,
            SpecDesc::Burn { pi, fi, v } => Some((
                (usize::from(pi), usize::from(fi)),
                PatternField::Burned(match v {
                    FieldVal::Reg(n) => Field::Reg(Reg::new(n)),
                    FieldVal::Imm(i) => Field::Imm(i),
                }),
            )),
            SpecDesc::X4 { pi, fi } => Some((
                (usize::from(pi), usize::from(fi)),
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4)),
            )),
        }
    }

    /// Bytes the spec adds to an entry's serialized size: a burned
    /// immediate's value follows its tag as a zigzag varint; every other
    /// field keeps its one tag byte.
    fn added_dict_bytes(self) -> usize {
        match self {
            SpecDesc::Burn {
                v: FieldVal::Imm(v),
                ..
            } => uvarint_len(zigzag(i64::from(v))),
            _ => 0,
        }
    }
}

/// Applies a spec to an entry, producing the materialized pattern.
fn apply_spec(entry: &DictEntry, spec: SpecDesc) -> DictEntry {
    let mut e = entry.clone();
    if let Some(((pi, fi), field)) = spec.substitution() {
        e.patterns[pi].fields[fi] = field;
    }
    e
}

/// Materializes a candidate key into a dictionary entry.
fn materialize(key: CandKey, dictionary: &[DictEntry]) -> DictEntry {
    match key {
        CandKey::Single { entry, spec } => apply_spec(&dictionary[entry as usize], spec),
        CandKey::Pair { a, sa, b, sb } => DictEntry::combined(
            &apply_spec(&dictionary[a as usize], sa),
            &apply_spec(&dictionary[b as usize], sb),
        ),
    }
}

/// `materialize(key, ..).dict_bytes()`, in O(1) from the cached sizes
/// of the source entries: a combination concatenates the two pattern
/// lists under one pattern-count varint.
fn key_dict_bytes(key: CandKey, dict: &Dictionary) -> usize {
    let of = |entry: u32, spec: SpecDesc| dict.bytes[entry as usize] + spec.added_dict_bytes();
    match key {
        CandKey::Single { entry, spec } => of(entry, spec),
        CandKey::Pair { a, sa, b, sb } => {
            let la = dict.entries[a as usize].len() as u64;
            let lb = dict.entries[b as usize].len() as u64;
            of(a, sa) + of(b, sb) + uvarint_len(la + lb) - uvarint_len(la) - uvarint_len(lb)
        }
    }
}

/// A hash of the pattern sequence `key` materializes to, computed
/// without materializing it: the source entries' patterns are walked
/// with the spec'd field substituted. Keys that denote equal entries
/// get equal fingerprints.
fn fingerprint(key: CandKey, dictionary: &[DictEntry]) -> u64 {
    fn walk(h: &mut FxHasher, entry: &DictEntry, spec: SpecDesc) {
        let substitution = spec.substitution();
        for (pi, pattern) in entry.patterns.iter().enumerate() {
            pattern.base.hash(h);
            for (fi, field) in pattern.fields.iter().enumerate() {
                match &substitution {
                    Some((at, to)) if *at == (pi, fi) => to.hash(h),
                    _ => field.hash(h),
                }
            }
        }
    }
    let mut h = FxHasher::default();
    match key {
        CandKey::Single { entry, spec } => walk(&mut h, &dictionary[entry as usize], spec),
        CandKey::Pair { a, sa, b, sb } => {
            walk(&mut h, &dictionary[a as usize], sa);
            walk(&mut h, &dictionary[b as usize], sb);
        }
    }
    h.finish()
}

/// Encoded instance size for `bits` of wildcard operands: one opcode
/// byte plus byte-padded operands.
fn inst_bytes(bits: u32) -> usize {
    1 + (bits as usize).div_ceil(8)
}

/// Wildcard bits of an entry after applying a spec, from cached base bits.
fn bits_after(entry: &DictEntry, base_bits: u32, spec: SpecDesc) -> u32 {
    match spec {
        SpecDesc::Identity => base_bits,
        SpecDesc::Burn { pi, fi, .. } => {
            let PatternField::Wildcard(kind) =
                &entry.patterns[usize::from(pi)].fields[usize::from(fi)]
            else {
                unreachable!("specs only name wildcard fields");
            };
            base_bits - kind.bits()
        }
        SpecDesc::X4 { pi, fi } => {
            let PatternField::Wildcard(FieldKind::Imm(enc)) =
                &entry.patterns[usize::from(pi)].fields[usize::from(fi)]
            else {
                unreachable!("x4 specs only name immediate wildcards");
            };
            base_bits - (enc.bits() - 4)
        }
    }
}

/// Enumerates the non-identity specs an item instance admits.
fn specs_of(entry: &DictEntry, insts: &[Inst], options: BriscOptions, out: &mut Vec<SpecDesc>) {
    out.clear();
    for (pi, pattern) in entry.patterns.iter().enumerate() {
        let inst_fields = field_refs(&insts[pi]);
        for (fi, pf) in pattern.fields.iter().enumerate() {
            let PatternField::Wildcard(kind) = pf else {
                continue;
            };
            match kind {
                FieldKind::Reg => {
                    if options.specialization {
                        let FieldRef::Reg(r) = inst_fields[fi] else {
                            unreachable!()
                        };
                        out.push(SpecDesc::Burn {
                            pi: pi as u8,
                            fi: fi as u8,
                            v: FieldVal::Reg(r.number()),
                        });
                    }
                }
                FieldKind::Imm(enc) => {
                    let FieldRef::Imm(v) = inst_fields[fi] else {
                        unreachable!()
                    };
                    if options.specialization {
                        out.push(SpecDesc::Burn {
                            pi: pi as u8,
                            fi: fi as u8,
                            v: FieldVal::Imm(v),
                        });
                    }
                    if options.x4 && *enc != ImmEnc::X4 && ImmEnc::X4.fits(v) {
                        out.push(SpecDesc::X4 {
                            pi: pi as u8,
                            fi: fi as u8,
                        });
                    }
                }
                FieldKind::Target | FieldKind::Func => {}
            }
        }
    }
}

/// Whether an item may be the non-final component of a combination: it
/// must fall through and must not be a call (the return address would
/// land mid-item) or a branch (whose successor is a block leader anyway).
fn can_lead_combination(item: &CItem) -> bool {
    let last = item.insts.last().expect("items are nonempty");
    last.falls_through()
        && !matches!(
            last,
            Inst::Call { .. } | Inst::CallR { .. } | Inst::Branch { .. } | Inst::BranchImm { .. }
        )
}

fn generate_candidates(
    f: &CFunc,
    dict: &Dictionary,
    options: BriscOptions,
    seen_keys: &FxHashSet<CandKey>,
    candidates: &mut FxHashMap<CandKey, i64>,
) {
    let (dictionary, entry_bits) = (&dict.entries, &dict.bits);
    let mut consider = |key: CandKey, old_bytes: usize, new_bytes: usize| {
        if new_bytes >= old_bytes || seen_keys.contains(&key) {
            return;
        }
        *candidates.entry(key).or_insert(0) += (old_bytes - new_bytes) as i64;
    };

    let mut specs_a: Vec<SpecDesc> = Vec::new();
    let mut specs_b: Vec<SpecDesc> = Vec::new();
    for (i, item) in f.items.iter().enumerate() {
        let entry = &dictionary[item.entry as usize];
        let bits = entry_bits[item.entry as usize];
        let old = inst_bytes(bits);
        specs_of(entry, &item.insts, options, &mut specs_a);
        for &spec in &specs_a {
            consider(
                CandKey::Single {
                    entry: item.entry,
                    spec,
                },
                old,
                inst_bytes(bits_after(entry, bits, spec)),
            );
        }
        if options.combination && i + 1 < f.items.len() {
            let next = &f.items[i + 1];
            let next_entry = &dictionary[next.entry as usize];
            if !f.leaders[i + 1]
                && can_lead_combination(item)
                && entry.len() + next_entry.len() <= MAX_ENTRY_PATTERNS
            {
                let next_bits = entry_bits[next.entry as usize];
                let pair_old = old + inst_bytes(next_bits);
                specs_of(next_entry, &next.insts, options, &mut specs_b);
                for sa in std::iter::once(SpecDesc::Identity).chain(specs_a.iter().copied()) {
                    let a_bits = bits_after(entry, bits, sa);
                    for sb in std::iter::once(SpecDesc::Identity).chain(specs_b.iter().copied()) {
                        let b_bits = bits_after(next_entry, next_bits, sb);
                        consider(
                            CandKey::Pair {
                                a: item.entry,
                                sa,
                                b: next.entry,
                                sb,
                            },
                            pair_old,
                            inst_bytes(a_bits + b_bits),
                        );
                    }
                }
            }
        }
    }
}

// ---- program rewriting ----------------------------------------------------------

fn rewrite(f: &mut CFunc, dict: &Dictionary, new_ids: &[u32]) {
    let dictionary = &dict.entries;
    let new_combined: Vec<u32> = new_ids
        .iter()
        .copied()
        .filter(|&id| dictionary[id as usize].len() > 1)
        .collect();

    // Phase 1: combinations, greedy left-to-right, best (smallest) match
    // per pair ("on each pass, there can only be one new instruction
    // pattern that applies to a particular pair").
    let old_leaders = std::mem::take(&mut f.leaders);
    let mut old_items = std::mem::take(&mut f.items)
        .into_iter()
        .enumerate()
        .peekable();
    let mut items = Vec::with_capacity(old_items.len());
    let mut leaders = Vec::with_capacity(old_leaders.len());
    while let Some((i, mut a)) = old_items.next() {
        if let Some((j, b)) = old_items.peek() {
            let combined_len = a.insts.len() + b.insts.len();
            if !new_combined.is_empty()
                && !old_leaders[*j]
                && combined_len <= MAX_ENTRY_PATTERNS
                && can_lead_combination(&a)
            {
                let old_bytes = dict.instance_bytes(a.entry) + dict.instance_bytes(b.entry);
                let best = new_combined
                    .iter()
                    .copied()
                    .filter(|&id| {
                        let e = &dictionary[id as usize];
                        e.len() == combined_len
                            && dict.instance_bytes(id) < old_bytes
                            && e.matches_seq(a.insts.iter().chain(&b.insts))
                    })
                    .min_by_key(|&id| dict.instance_bytes(id));
                if let Some(id) = best {
                    let (_, b) = old_items.next().expect("peeked");
                    a.entry = id;
                    a.insts.extend(b.insts);
                }
            }
        }
        items.push(a);
        leaders.push(old_leaders[i]);
    }

    // Phase 2: compacting specializations over all new entries.
    for item in &mut items {
        let current_bytes = dict.instance_bytes(item.entry);
        let best = new_ids
            .iter()
            .copied()
            .filter(|&id| {
                let e = &dictionary[id as usize];
                e.len() == item.insts.len()
                    && dict.instance_bytes(id) < current_bytes
                    && e.matches_seq(&item.insts)
            })
            .min_by_key(|&id| dict.instance_bytes(id));
        if let Some(id) = best {
            item.entry = id;
        }
    }

    f.items = items;
    f.leaders = leaders;
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_front::compile;
    use codecomp_vm::codegen::compile_module;
    use codecomp_vm::isa::IsaConfig;

    fn vm_program(src: &str) -> VmProgram {
        compile_module(&compile(src).unwrap(), IsaConfig::full()).unwrap()
    }

    fn salty_program() -> VmProgram {
        vm_program(
            "int pepper(int a, int b) { return a + b; }
             int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }
             int main() { return salt(3, 9); }",
        )
    }

    #[test]
    fn compresses_and_produces_an_image() {
        let report = compress(&salty_program(), BriscOptions::default()).unwrap();
        assert!(report.dictionary_entries >= report.base_entries);
        assert!(report.passes >= 1);
        assert!(report.image.code_size() > 0);
        assert!(report.input_bytes > 0);
    }

    #[test]
    fn epi_replaces_conventional_epilogues() {
        let p = salty_program();
        let salt = p.function("salt").unwrap();
        let rewritten = replace_epilogues(salt);
        assert!(rewritten.contains(&Inst::Epi), "epilogue should become epi");
        assert!(
            !rewritten.iter().any(|i| matches!(i, Inst::Exit { .. })),
            "exit should be folded into epi"
        );
        // Original count shrinks by (saved reloads + ra reload + exit + rjr - 1).
        let delta = salt.saved_regs.len() + 3 - 1;
        assert_eq!(
            rewritten.iter().filter(|i| !i.is_label()).count(),
            salt.inst_count() - delta
        );
    }

    #[test]
    fn compressed_code_is_smaller_on_redundant_programs() {
        // Many similar functions: heavy prologue/epilogue idioms.
        let mut src = String::from("int id(int a, int b) { return a; }\n");
        for i in 0..24 {
            src.push_str(&format!(
                "int f{i}(int a, int b) {{
                     int s = a;
                     int j;
                     for (j = 0; j < b; j++) s += {prev}(s, j);
                     return s;
                 }}\n",
                prev = if i == 0 {
                    "id".to_string()
                } else {
                    format!("f{}", i - 1)
                },
            ));
        }
        src.push_str("int main() { return f3(1, 2); }");
        let p = vm_program(&src);
        let report = compress(&p, BriscOptions::default()).unwrap();
        assert!(
            report.image.code_size() < report.input_bytes,
            "compressed code {} should beat base encoding {}",
            report.image.code_size(),
            report.input_bytes,
        );
        assert!(
            report.dictionary_entries > report.base_entries,
            "patterns should be adopted"
        );
    }

    #[test]
    fn disabled_generators_produce_no_adoptions_of_their_kind() {
        let p = salty_program();
        let no_comb = BriscOptions {
            combination: false,
            ..BriscOptions::default()
        };
        let report = compress(&p, no_comb).unwrap();
        assert!(
            report.image.dictionary.iter().all(|e| e.len() == 1),
            "no combined entries when combination is off"
        );
        let no_spec = BriscOptions {
            specialization: false,
            x4: false,
            ..BriscOptions::default()
        };
        let report = compress(&p, no_spec).unwrap();
        for e in &report.image.dictionary {
            for pat in &e.patterns {
                assert!(
                    pat.fields
                        .iter()
                        .all(|f| matches!(f, PatternField::Wildcard(_))),
                    "no burned fields when specialization is off"
                );
            }
        }
    }

    #[test]
    fn candidate_counts_are_reported() {
        let report = compress(&salty_program(), BriscOptions::default()).unwrap();
        assert!(report.candidates_tested > 0);
    }

    #[test]
    fn order0_option_is_carried_into_the_image() {
        let report = compress(
            &salty_program(),
            BriscOptions {
                order0: true,
                ..BriscOptions::default()
            },
        )
        .unwrap();
        assert!(report.image.order0);
    }

    /// Runs every pass of a hunt over `program`, handing `check` each
    /// pass's candidate keys before the pass scores them.
    fn for_each_pass(program: &VmProgram, mut check: impl FnMut(&Hunt, &FxHashMap<CandKey, i64>)) {
        let options = BriscOptions::default();
        let mut hunt = Hunt::new(program, options).unwrap();
        loop {
            check(&hunt, &hunt.candidates());
            if hunt.pass() < options.k {
                break;
            }
        }
    }

    #[test]
    fn key_costs_and_fingerprints_agree_with_materialized_entries() {
        for b in codecomp_corpus::benchmarks() {
            let p = vm_program(b.source);
            for_each_pass(&p, |hunt, candidates| {
                let mut fingerprints: HashMap<DictEntry, u64> = HashMap::new();
                for &key in candidates.keys() {
                    let entry = materialize(key, &hunt.dict.entries);
                    assert_eq!(
                        key_dict_bytes(key, &hunt.dict),
                        entry.dict_bytes(),
                        "{}: {key:?} -> {entry}",
                        b.name
                    );
                    let fp = fingerprint(key, &hunt.dict.entries);
                    let first = *fingerprints.entry(entry.clone()).or_insert(fp);
                    assert_eq!(fp, first, "{}: keys for {entry} disagree", b.name);
                }
            });
        }
    }

    /// A one-function hunt whose items are `addi sp,sp,100`, `per_entry`
    /// of them on `[addi sp,*,*]` and as many on `[addi *,sp,*]`.
    fn split_addi_hunt(per_entry: usize) -> Hunt {
        let inst = Inst::AluImm {
            op: codecomp_vm::isa::AluOp::Add,
            rd: Reg::SP,
            rs: Reg::SP,
            imm: 100,
        };
        let burned = |fi: usize| {
            let mut p = InstPattern::base_of(&inst);
            p.fields[fi] = PatternField::Burned(Field::Reg(Reg::SP));
            DictEntry::single(p)
        };
        let mut dict = Dictionary::default();
        let rd_sp = dict.intern(burned(0));
        let rs_sp = dict.intern(burned(1));
        let items: Vec<CItem> = (0..2 * per_entry)
            .map(|i| CItem {
                entry: if i < per_entry { rd_sp } else { rs_sp },
                insts: vec![inst.clone()],
                first_inst: i,
            })
            .collect();
        Hunt {
            options: BriscOptions {
                k: 1,
                regime: MemoryRegime::Abundant,
                combination: false,
                x4: false,
                ..BriscOptions::default()
            },
            funcs: vec![CFunc {
                name: "main".into(),
                param_count: 0,
                frame_size: 0,
                saved_regs: Vec::new(),
                leaders: (0..items.len()).map(|i| i == 0).collect(),
                items,
            }],
            dict,
            seen_keys: FxHashSet::default(),
            candidates_tested: 0,
            candidates_scored: 0,
        }
    }

    #[test]
    fn keys_that_only_pay_jointly_are_merged_and_adopted() {
        // `(rd=sp entry, burn rs=sp)` and `(rs=sp entry, burn rd=sp)` both
        // denote [addi sp,sp,*] (5 dictionary bytes) and each saves one
        // byte per site: three sites apiece cannot pay alone (3 - 5), but
        // together they do (6 - 5 = 1), so the bound must keep both.
        let mut hunt = split_addi_hunt(3);
        assert_eq!(hunt.pass(), 1);
        let adopted = hunt.dict.entries.last().unwrap();
        assert_eq!(adopted.to_string(), "[add.i sp,sp,*]");
        assert!(hunt.candidates_scored >= 2);
        let id = hunt.dict.entries.len() as u32 - 1;
        assert!(hunt.funcs[0].items.iter().all(|item| item.entry == id));

        // Two sites apiece cannot pay even jointly: nothing is scored.
        let mut hunt = split_addi_hunt(2);
        assert_eq!(hunt.pass(), 0);
        assert!(hunt.candidates_tested > 0);
        assert_eq!(hunt.candidates_scored, 0);
    }

    #[test]
    fn branch_targets_stay_item_aligned() {
        // A loop with a backward branch: the target must remain an item
        // start through all rewriting.
        let p = vm_program(
            "int main() { int s = 0; int i; for (i = 0; i < 50; i++) s += i * 3; return s; }",
        );
        let report = compress(&p, BriscOptions::default()).unwrap();
        // Round-trip the image to prove targets still decode.
        let bytes = report.image.to_bytes();
        let back = BriscImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, report.image);
    }
}
