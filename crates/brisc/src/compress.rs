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
//! plus a spec, or two of them) and priced from costs the dictionary
//! caches per entry: a key's serialized size, fingerprint and native
//! expansion cost each follow in O(1) from its source entries'. Keys
//! are grouped by the fingerprint of the pattern sequence they denote,
//! and a group's summed saving, less its smallest dictionary size and
//! the table charge, bounds the `B` of every entry in it under either
//! memory regime. Groups are visited best bound first, and a group's
//! keys are materialized into [`DictEntry`]s only while its bound can
//! still beat or tie the `K`-th best score found so far. The search is
//! exact: it adopts the entries, in the order, that scoring every key
//! would.
//!
//! Generation is incremental. A pass only generates keys at the sites
//! that hold an entry adopted since the last scan — singles of such an
//! item, and pairs with such an item on either side. Any other site's
//! keys name only older entries, so the scan that last saw the site
//! already generated them.

use crate::entry::{DictEntry, FieldKind, ImmEnc, InstPattern, PatternField, MAX_ENTRY_PATTERNS};
use crate::image::{assemble_with, BriscImage, FuncItems, Item};
use crate::BriscError;
use codecomp_core::bytesio::{uvarint_len, zigzag};
use codecomp_core::dict::{Benefit, MemoryRegime, PassPolicy, TopK};
use codecomp_core::fxhash::{FxHashMap, FxHasher};
use codecomp_core::telemetry::stage;
use codecomp_vm::encode::{field_refs, Field, FieldRef};
use codecomp_vm::isa::Inst;
use codecomp_vm::program::{branch_targets, compact, VmFunction, VmProgram};
use codecomp_vm::reg::Reg;
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

impl BriscOptions {
    /// When the hunt stops: after a pass that adopts fewer than `k`
    /// entries, or after `max_passes`.
    fn pass_policy(self) -> PassPolicy {
        PassPolicy {
            k: self.k,
            max_passes: self.max_passes,
            regime: self.regime,
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
    /// Each distinct key is counted once, in the pass that first
    /// generates it.
    pub candidates_tested: usize,
    /// Candidates among them that were materialized and fully scored:
    /// the keys of the fingerprint groups whose bound could still reach
    /// the pass's top `K` when the search came to them.
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
    /// Fingerprint per entry ([`fingerprint`]).
    fingerprints: Vec<u64>,
    /// Per entry, each pattern's [`InstPattern::native_bytes`].
    native: Vec<Vec<usize>>,
    index: FxHashMap<DictEntry, u32>,
}

impl Dictionary {
    /// Adds `entry`, whose serialized size is `bytes`, and returns its id.
    fn push(&mut self, entry: DictEntry, bytes: usize) -> u32 {
        let id = self.entries.len() as u32;
        self.bits.push(entry.wildcard_bits());
        self.bytes.push(bytes);
        self.fingerprints.push(fingerprint(&entry));
        self.native.push(
            entry
                .patterns
                .iter()
                .map(InstPattern::native_bytes)
                .collect(),
        );
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
/// and how far the dictionary reached at the last scan.
///
/// The mark replaces the paper's "hash table of previously generated
/// candidates". [`rewrite`] only gives an item an entry adopted in the
/// same pass, and ids are handed out densely in increasing order, so a
/// site whose items all have ids below the mark is unchanged since the
/// last scan, and every key it yields was generated then. Any key with
/// an id at or above the mark is new.
#[derive(Debug)]
struct Hunt {
    options: BriscOptions,
    funcs: Vec<CFunc>,
    dict: Dictionary,
    /// Dictionary length when candidates were last generated.
    scanned: u32,
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
    let _stage = stage!("brisc.compress");
    let input_bytes = codecomp_vm::encode::code_segment_size(program);

    let mut hunt = Hunt::new(program, options);
    let base_entries = hunt.dict.entries.len();

    // ---- greedy passes ----
    let policy = options.pass_policy();
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
        let mut items = Vec::with_capacity(f.items.len());
        for item in &f.items {
            let entry = &dict.entries[item.entry as usize];
            let mut values = Vec::new();
            for (p, inst) in entry.patterns.iter().zip(&item.insts) {
                for v in p.extract(inst) {
                    values.push(match v {
                        // Items start at strictly increasing instructions.
                        Field::Target(inst_idx) => Field::Target(
                            f.items
                                .binary_search_by_key(&(inst_idx as usize), |item| item.first_inst)
                                .map_err(|_| {
                                    BriscError::Compress(format!(
                                        "branch target {inst_idx} is not an item start in {}",
                                        f.name
                                    ))
                                })? as u32,
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
    fn new(program: &VmProgram, options: BriscOptions) -> Hunt {
        let mut dict = Dictionary::default();
        let funcs = program
            .functions
            .iter()
            .map(|f| build_cfunc(f, options, &mut dict))
            .collect();
        Hunt {
            options,
            funcs,
            dict,
            scanned: 0,
            candidates_tested: 0,
            candidates_scored: 0,
        }
    }

    /// Every new candidate key of this pass with its summed byte saving.
    fn candidates(&self) -> FxHashMap<CandKey, i64> {
        let mut candidates = FxHashMap::default();
        for f in &self.funcs {
            generate_candidates(f, &self.dict, self.options, self.scanned, &mut candidates);
        }
        candidates
    }

    /// Runs one greedy pass — generate, bound, score, adopt the top `K`,
    /// rewrite — and returns how many entries it adopted.
    fn pass(&mut self) -> usize {
        let candidates = {
            let _stage = stage!("brisc.compress.generate");
            self.candidates()
        };
        self.scanned = self.dict.entries.len() as u32;
        self.candidates_tested += candidates.len();
        let adopted = {
            let _stage = stage!("brisc.compress.score");
            self.score(candidates)
        };

        let _stage = stage!("brisc.compress.rewrite");
        let new_ids: Vec<u32> = adopted
            .into_iter()
            .map(|(entry, bytes)| self.dict.push(entry, bytes))
            .collect();
        if !new_ids.is_empty() {
            for f in &mut self.funcs {
                rewrite(f, &self.dict, &new_ids);
            }
        }
        new_ids.len()
    }

    /// Scores `candidates` and returns the top `K` entries with their
    /// serialized sizes.
    fn score(&mut self, candidates: FxHashMap<CandKey, i64>) -> Vec<(DictEntry, usize)> {
        let charge = i64::from(self.options.table_charge);

        // Bound: group keys by the pattern sequence they denote. Every
        // saving is positive and `W ≥ 0`, so an entry's `B` is at most
        // its group's summed saving less the group's smallest exact
        // dictionary size and the table charge.
        let mut group_of: FxHashMap<u64, usize> =
            FxHashMap::with_capacity_and_hasher(candidates.len(), Default::default());
        let mut groups: Vec<(i64, usize)> = Vec::new();
        let mut keyed: Vec<(usize, CandKey, i64, usize)> = Vec::with_capacity(candidates.len());
        for (key, saved) in candidates {
            let bytes = key_dict_bytes(key, &self.dict);
            let g = *group_of
                .entry(key_fingerprint(key, &self.dict))
                .or_insert_with(|| {
                    groups.push((0, usize::MAX));
                    groups.len() - 1
                });
            groups[g].0 += saved;
            groups[g].1 = groups[g].1.min(bytes);
            keyed.push((g, key, saved, bytes));
        }
        let bound = |g: usize| groups[g].0 - groups[g].1 as i64 - charge;

        // Order the keys of every group that can hold a positive `B` by
        // their group's bound, best first.
        let mut order: Vec<usize> = (0..groups.len()).filter(|&g| bound(g) > 0).collect();
        order.sort_unstable_by_key(|&g| std::cmp::Reverse(bound(g)));
        let mut rank = vec![usize::MAX; groups.len()];
        for (r, &g) in order.iter().enumerate() {
            rank[g] = r;
        }
        keyed.retain(|&(g, ..)| rank[g] != usize::MAX);
        keyed.sort_unstable_by_key(|&(g, ..)| rank[g]);

        // Branch and bound: materialize a group's keys, merge those that
        // denote the same entry and drop entries already in the
        // dictionary, until no later group's bound can reach the top K.
        let mut top = TopK::new(self.options.k, self.options.regime);
        let mut merged: Vec<(DictEntry, i64, usize, CandKey)> = Vec::new();
        for keys in keyed.chunk_by(|x, y| x.0 == y.0) {
            if !top.admits(bound(keys[0].0)) {
                break;
            }
            self.candidates_scored += keys.len();
            for &(_, key, saved, bytes) in keys {
                let entry = materialize(key, &self.dict.entries);
                debug_assert_eq!(bytes, entry.dict_bytes());
                match merged.iter_mut().find(|m| m.0 == entry) {
                    Some(m) => m.1 += saved,
                    None => merged.push((entry, saved, bytes, key)),
                }
            }
            for (entry, saved, bytes, key) in merged.drain(..) {
                if self.dict.index.contains_key(&entry) {
                    continue;
                }
                let benefit = Benefit {
                    size_reduction: saved - bytes as i64 - charge,
                    table_cost: key_table_cost(key, &self.dict) as i64,
                };
                top.offer((entry, bytes), benefit);
            }
        }
        top.into_best_first()
            .into_iter()
            .map(|(adopted, _)| adopted)
            .collect()
    }
}

// ---- initial program construction ---------------------------------------------

fn build_cfunc(f: &VmFunction, options: BriscOptions, dict: &mut Dictionary) -> CFunc {
    let insts = if options.epi {
        replace_epilogues(f)
    } else {
        f.code.clone()
    };
    // Instruction-level leaders: the entry, branch targets, and every
    // instruction after a block end. A target past the last instruction
    // starts no item; conversion to the image reports it.
    let mut leaders = branch_targets(&insts);
    if let Some(entry) = leaders.first_mut() {
        *entry = true;
    }
    for (i, pair) in insts.windows(2).enumerate() {
        if pair[0].ends_block() {
            leaders[i + 1] = true;
        }
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
    CFunc {
        name: f.name.clone(),
        param_count: f.param_count,
        frame_size: f.frame_size,
        saved_regs: f.saved_regs.clone(),
        items,
        leaders,
    }
}

/// `f`'s code with each conventional epilogue (`reload`*, `reload ra`,
/// `exit`, `rjr ra`) that matches its frame layout exactly, and that no
/// branch enters past its first instruction, folded into the `epi`
/// macro-instruction. Under [`BriscOptions::epi`] this is the code the
/// image holds, and so what [`crate::translate`] gives back.
pub fn replace_epilogues(f: &VmFunction) -> Vec<Inst> {
    let mut code = f.code.clone();
    if f.frame_size == 0 {
        return code;
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

    let targeted = branch_targets(&code);
    let mut keep = vec![true; code.len()];
    let mut i = 0usize;
    while i + expect.len() <= code.len() {
        let end = i + expect.len();
        if code[i..end] == expect[..] && !targeted[i + 1..end].contains(&true) {
            code[i] = Inst::Epi;
            keep[i + 1..end].fill(false);
            i = end;
        } else {
            i += 1;
        }
    }
    compact(&mut code, &keep);
    code
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

/// `materialize(key, ..).native_table_cost()` from the cached
/// per-pattern costs: only the one pattern a spec changes is encoded
/// again.
fn key_table_cost(key: CandKey, dict: &Dictionary) -> usize {
    let of = |entry: u32, spec: SpecDesc| {
        let costs = &dict.native[entry as usize];
        let total: usize = costs.iter().sum();
        let Some(((pi, fi), to)) = spec.substitution() else {
            return total;
        };
        let mut pattern = dict.entries[entry as usize].patterns[pi].clone();
        pattern.fields[fi] = to;
        total - costs[pi] + pattern.native_bytes()
    };
    let native = match key {
        CandKey::Single { entry, spec } => of(entry, spec),
        CandKey::Pair { a, sa, b, sb } => of(a, sa) + of(b, sb),
    };
    native / 2
}

/// Multiplier of the fingerprint polynomial. It is odd, so no power of
/// it is zero mod 2^64 and every pattern position counts.
const FP_BASE: u64 = 0x9E37_79B9_7F4A_7C15;

/// `x` spread over all 64 bits (the SplitMix64 finalizer), so that
/// sums of hashes do not cancel.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The 32 low bits of an Fx hash of `v`.
fn fx32(v: impl Hash) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish() & 0xFFFF_FFFF
}

/// A hash of `field` at position `fi` of a pattern: a tag, the field's
/// value and its position packed into one word, then mixed. A spec
/// replaces a wildcard with a burned register or immediate or an `-x4`
/// wildcard, so pricing a key runs no hasher.
fn field_hash(fi: usize, field: &PatternField) -> u64 {
    let code = match field {
        PatternField::Burned(Field::Reg(r)) => u64::from(r.number()),
        PatternField::Burned(Field::Imm(v)) => 1 << 32 | u64::from(*v as u32),
        PatternField::Burned(Field::Target(t)) => 2 << 32 | u64::from(*t),
        PatternField::Burned(Field::Func(name)) => 3 << 32 | fx32(name),
        PatternField::Wildcard(kind) => {
            4 << 32
                | match kind {
                    FieldKind::Imm(enc) => *enc as u64,
                    FieldKind::Reg => 4,
                    FieldKind::Target => 5,
                    FieldKind::Func => 6,
                }
        }
    };
    mix(code | (fi as u64) << 40)
}

/// A hash of an entry's pattern sequence: `Σ h(pᵢ)·R^(n−1−i)` over its
/// `n` patterns, where a pattern's `h` is the hash of its base plus the
/// hash of each `(position, field)`. Both sums are linear, so a key's
/// fingerprint follows from its source entries' in O(1)
/// ([`key_fingerprint`]).
fn fingerprint(entry: &DictEntry) -> u64 {
    entry.patterns.iter().fold(0, |fp, p| {
        let h = p
            .fields
            .iter()
            .enumerate()
            .fold(mix(5 << 32 | fx32(p.base)), |h, (fi, field)| {
                h.wrapping_add(field_hash(fi, field))
            });
        fp.wrapping_mul(FP_BASE).wrapping_add(h)
    })
}

/// `fingerprint(&materialize(key, ..))` in O(1) from the cached
/// fingerprints: a spec adds the change in its one field's hash at its
/// pattern's weight, and a combination shifts the first part's
/// fingerprint past the second part's patterns. Keys that denote equal
/// entries get equal fingerprints.
fn key_fingerprint(key: CandKey, dict: &Dictionary) -> u64 {
    let of = |entry: u32, spec: SpecDesc| {
        let fp = dict.fingerprints[entry as usize];
        let Some(((pi, fi), to)) = spec.substitution() else {
            return fp;
        };
        let patterns = &dict.entries[entry as usize].patterns;
        let delta = field_hash(fi, &to).wrapping_sub(field_hash(fi, &patterns[pi].fields[fi]));
        let weight = FP_BASE.wrapping_pow((patterns.len() - 1 - pi) as u32);
        fp.wrapping_add(delta.wrapping_mul(weight))
    };
    match key {
        CandKey::Single { entry, spec } => of(entry, spec),
        CandKey::Pair { a, sa, b, sb } => {
            let shift = FP_BASE.wrapping_pow(dict.entries[b as usize].len() as u32);
            of(a, sa).wrapping_mul(shift).wrapping_add(of(b, sb))
        }
    }
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

/// Adds to `candidates` the keys of every site of `f` that holds an
/// entry id at or above `fresh`: the singles of an item on such an
/// entry, and each pair with such an item on either side. With `fresh`
/// 0 that is every site.
fn generate_candidates(
    f: &CFunc,
    dict: &Dictionary,
    options: BriscOptions,
    fresh: u32,
    candidates: &mut FxHashMap<CandKey, i64>,
) {
    let (dictionary, entry_bits) = (&dict.entries, &dict.bits);
    let mut consider = |key: CandKey, old_bytes: usize, new_bytes: usize| {
        if new_bytes < old_bytes {
            *candidates.entry(key).or_insert(0) += (old_bytes - new_bytes) as i64;
        }
    };

    let mut specs_a: Vec<SpecDesc> = Vec::new();
    let mut specs_b: Vec<SpecDesc> = Vec::new();
    for (i, item) in f.items.iter().enumerate() {
        let next = if options.combination {
            f.items.get(i + 1)
        } else {
            None
        };
        let item_fresh = item.entry >= fresh;
        if !(item_fresh || next.is_some_and(|next| next.entry >= fresh)) {
            continue;
        }
        let entry = &dictionary[item.entry as usize];
        let bits = entry_bits[item.entry as usize];
        let old = inst_bytes(bits);
        specs_of(entry, &item.insts, options, &mut specs_a);
        if item_fresh {
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
        }
        if let Some(next) = next {
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
pub(crate) mod tests {
    use super::*;
    use codecomp_core::fxhash::FxHashSet;
    use codecomp_corpus::{synthetic_modules, MultiModuleConfig};
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
        assert_eq!(rewritten.len(), salt.code.len() - delta);
        // An early `return` jumps to the epilogue, and then to the `epi`.
        let p = vm_program("int f(int a) { int b = a + 1; if (a) return b; return 2; }");
        let f = p.function("f").unwrap();
        let rewritten = replace_epilogues(f);
        let epi = rewritten.iter().position(|i| *i == Inst::Epi).unwrap() as u32;
        assert!(rewritten.contains(&Inst::Jump { target: epi }), "{f}");
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
    fn for_each_pass(
        program: &VmProgram,
        options: BriscOptions,
        mut check: impl FnMut(&Hunt, &FxHashMap<CandKey, i64>),
    ) {
        let policy = options.pass_policy();
        let mut hunt = Hunt::new(program, options);
        let mut passes = 0;
        loop {
            check(&hunt, &hunt.candidates());
            passes += 1;
            if !policy.continue_after(hunt.pass(), passes) {
                break;
            }
        }
    }

    #[test]
    fn key_costs_and_fingerprints_agree_with_materialized_entries() {
        for b in codecomp_corpus::benchmarks() {
            let p = vm_program(b.source);
            for_each_pass(&p, BriscOptions::default(), |hunt, candidates| {
                let mut fingerprints: FxHashMap<DictEntry, u64> = FxHashMap::default();
                for &key in candidates.keys() {
                    let entry = materialize(key, &hunt.dict.entries);
                    let at = || format!("{}: {key:?} -> {entry}", b.name);
                    assert_eq!(
                        key_dict_bytes(key, &hunt.dict),
                        entry.dict_bytes(),
                        "{}",
                        at()
                    );
                    assert_eq!(
                        key_table_cost(key, &hunt.dict),
                        entry.native_table_cost(),
                        "{}",
                        at()
                    );
                    let fp = key_fingerprint(key, &hunt.dict);
                    assert_eq!(fp, fingerprint(&entry), "{}", at());
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
            scanned: 0,
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

    /// The option sets of `tests/brisc_compress_golden.rs`.
    pub(crate) fn golden_variants() -> Vec<BriscOptions> {
        let d = BriscOptions::default();
        vec![
            d,
            BriscOptions {
                combination: false,
                ..d
            },
            BriscOptions {
                specialization: false,
                ..d
            },
            BriscOptions { x4: false, ..d },
            BriscOptions { epi: false, ..d },
            BriscOptions { order0: true, ..d },
            BriscOptions {
                regime: MemoryRegime::Abundant,
                ..d
            },
            BriscOptions {
                table_charge: 6,
                ..d
            },
            BriscOptions { k: 5, ..d },
        ]
    }

    /// The scorer the branch-and-bound search replaced: fingerprint
    /// every key by walking its source entries, materialize every key
    /// whose group bound is positive, merge by entry, price each entry
    /// with `dict_bytes()` and `native_table_cost()`, and take the top
    /// `K` of a full sort by score, then entry.
    fn reference_score(hunt: &Hunt, candidates: &FxHashMap<CandKey, i64>) -> Vec<DictEntry> {
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
        let walked_fingerprint = |key: CandKey| {
            let entries = &hunt.dict.entries;
            let mut h = FxHasher::default();
            match key {
                CandKey::Single { entry, spec } => walk(&mut h, &entries[entry as usize], spec),
                CandKey::Pair { a, sa, b, sb } => {
                    walk(&mut h, &entries[a as usize], sa);
                    walk(&mut h, &entries[b as usize], sb);
                }
            }
            h.finish()
        };
        let charge = i64::from(hunt.options.table_charge);
        let mut groups: FxHashMap<u64, (i64, usize)> = FxHashMap::default();
        for (&key, &saved) in candidates {
            let group = groups
                .entry(walked_fingerprint(key))
                .or_insert((0, usize::MAX));
            group.0 += saved;
            group.1 = group.1.min(key_dict_bytes(key, &hunt.dict));
        }
        let mut merged: FxHashMap<DictEntry, i64> = FxHashMap::default();
        for (&key, &saved) in candidates {
            let (sum, min_bytes) = groups[&walked_fingerprint(key)];
            if sum - min_bytes as i64 - charge <= 0 {
                continue;
            }
            let entry = materialize(key, &hunt.dict.entries);
            if !hunt.dict.index.contains_key(&entry) {
                *merged.entry(entry).or_insert(0) += saved;
            }
        }
        let mut scored: Vec<(DictEntry, i64)> = merged
            .into_iter()
            .map(|(entry, saved)| {
                let benefit = Benefit {
                    size_reduction: saved - entry.dict_bytes() as i64 - charge,
                    table_cost: entry.native_table_cost() as i64,
                };
                let score = hunt.options.regime.score(benefit);
                (entry, score)
            })
            .filter(|&(_, score)| score > 0)
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(hunt.options.k);
        scored.into_iter().map(|(entry, _)| entry).collect()
    }

    /// Runs the hunt over `program` and checks that every pass adopts
    /// what [`reference_score`] picks from the same candidates, in the
    /// same order.
    fn assert_scorers_agree(name: &str, program: &VmProgram, options: BriscOptions) {
        let policy = options.pass_policy();
        let mut hunt = Hunt::new(program, options);
        let mut passes = 0;
        loop {
            passes += 1;
            let expected = reference_score(&hunt, &hunt.candidates());
            let before = hunt.dict.entries.len();
            let adopted = hunt.pass();
            assert!(
                hunt.dict.entries[before..] == expected[..],
                "{name} {options:?} pass {passes}: adopted {:?}, the reference {:?}",
                hunt.dict.entries[before..]
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
                expected.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
            if !policy.continue_after(adopted, passes) {
                break;
            }
        }
    }

    /// `count` programs of each perfbench synthetic workload's shape:
    /// members of `synthetic_modules` groups (a shared prelude of 10
    /// functions, 6 of their own) and 12-function `synthetic` programs,
    /// drawn from seeds upward of `seed`.
    fn perfbench_shaped(seed: u64, count: usize) -> Vec<(String, VmProgram)> {
        let group = MultiModuleConfig {
            modules: 5,
            shared_functions: 10,
            functions_per_module: 6,
            statements_per_function: 8,
            globals: 5,
            max_expr_depth: 4,
        };
        let distinct = codecomp_corpus::SynthConfig {
            functions: 12,
            statements_per_function: 8,
            globals: 6,
        };
        let members = (seed..)
            .flat_map(|s| {
                synthetic_modules(s, group)
                    .into_iter()
                    .enumerate()
                    .map(move |(m, src)| (format!("shared-{s}-m{m}"), src))
            })
            .take(count);
        let programs = (seed..seed + count as u64).map(|s| {
            (
                format!("distinct-{s}"),
                codecomp_corpus::synthetic(s, distinct),
            )
        });
        members
            .chain(programs)
            .map(|(name, src)| (name, vm_program(&src)))
            .collect()
    }

    #[test]
    fn branch_and_bound_adopts_what_scoring_every_key_adopts() {
        let corpus = codecomp_corpus::benchmarks()
            .into_iter()
            .map(|b| (b.name.to_string(), vm_program(b.source)));
        for (name, p) in corpus.chain(perfbench_shaped(1, 2)) {
            for options in golden_variants() {
                assert_scorers_agree(&name, &p, options);
            }
        }
    }

    #[test]
    #[ignore = "60 programs under 9 option sets: run with --release --include-ignored"]
    fn branch_and_bound_agrees_on_perfbench_shaped_programs() {
        for (name, p) in perfbench_shaped(100, 30) {
            for options in golden_variants() {
                assert_scorers_agree(&name, &p, options);
            }
        }
    }

    /// The rule incremental generation replaces: scan every site and
    /// drop the keys an earlier pass generated (`seen`, which this adds
    /// the pass's keys to).
    fn rescanned_candidates(hunt: &Hunt, seen: &mut FxHashSet<CandKey>) -> FxHashMap<CandKey, i64> {
        let mut candidates = FxHashMap::default();
        for f in &hunt.funcs {
            generate_candidates(f, &hunt.dict, hunt.options, 0, &mut candidates);
        }
        candidates.retain(|key, _| !seen.contains(key));
        seen.extend(candidates.keys().copied());
        candidates
    }

    #[test]
    fn incremental_candidates_equal_a_full_rescan_at_every_pass() {
        let modules = synthetic_modules(
            7,
            MultiModuleConfig {
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
        for (name, src) in sources {
            let p = vm_program(src);
            for options in golden_variants() {
                let mut seen = FxHashSet::default();
                let mut pass = 0;
                for_each_pass(&p, options, |hunt, candidates| {
                    pass += 1;
                    let reference = rescanned_candidates(hunt, &mut seen);
                    assert!(
                        *candidates == reference,
                        "{name} {options:?} pass {pass}: {} keys, a rescan finds {}",
                        candidates.len(),
                        reference.len()
                    );
                });
            }
        }
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
