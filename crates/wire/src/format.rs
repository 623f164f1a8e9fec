//! The wire-format container: compression pipeline and its inverse.

use crate::WireError;
use codecomp_coding::arith::{ArithDecoder, ArithEncoder};
use codecomp_coding::huffman::{HuffmanDecoder, HuffmanEncoder};
use codecomp_coding::model::AdaptiveModel;
use codecomp_coding::mtf::{mtf_decode_identity, mtf_encode};
use codecomp_core::bytesio::{put_ivarint, put_string, put_uvarint, Cursor};
use codecomp_core::cov_hit;
use codecomp_core::streams::SplitStreams;
use codecomp_core::telemetry;
use codecomp_core::treepat::TreePattern;
use codecomp_core::Budget;
use codecomp_flate::{deflate_compress, inflate_budgeted, CompressionLevel};
use codecomp_ir::binary::{byte_for_op, desc_for_byte, desc_to_op};
use codecomp_ir::op::{Literal, Opcode};
use codecomp_ir::tree::{Function, Global, Module, Tree};

const MAGIC: &[u8; 4] = b"CCWF";

/// Index-coder selection for the MTF index streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coder {
    /// Varint indices, no entropy coding.
    Raw,
    /// Semi-static canonical Huffman (the paper's choice).
    #[default]
    Huffman,
    /// Order-0 adaptive arithmetic coding (the design-space alternative).
    Arithmetic,
}

impl Coder {
    fn tag(self) -> u8 {
        match self {
            Coder::Raw => 0,
            Coder::Huffman => 1,
            Coder::Arithmetic => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => Coder::Raw,
            1 => Coder::Huffman,
            2 => Coder::Arithmetic,
            other => return Err(WireError::Corrupt(format!("bad coder tag {other}"))),
        })
    }
}

/// Pipeline-stage knobs; the default is the paper's full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOptions {
    /// Separate literal streams per operator class (vs one mixed stream).
    pub split_streams: bool,
    /// Move-to-front coding of each stream.
    pub mtf: bool,
    /// Entropy coder for the index streams.
    pub coder: Coder,
    /// Final per-stream DEFLATE stage.
    pub deflate: bool,
}

impl Default for WireOptions {
    fn default() -> Self {
        Self {
            split_streams: true,
            mtf: true,
            coder: Coder::Huffman,
            deflate: true,
        }
    }
}

/// Bits 5-7 of the options byte are reserved for future format
/// revisions and must be zero in current-version images.
const RESERVED_OPTION_BITS: u8 = 0xE0;

impl WireOptions {
    pub(crate) fn to_byte(self) -> u8 {
        u8::from(self.split_streams)
            | (u8::from(self.mtf) << 1)
            | (self.coder.tag() << 2)
            | (u8::from(self.deflate) << 4)
    }

    pub(crate) fn from_byte(b: u8) -> Result<Self, WireError> {
        // A set reserved bit means the image was produced by a newer
        // format revision; decoding it as current-version would silently
        // misinterpret the payload, so it is malformed input here.
        if b & RESERVED_OPTION_BITS != 0 {
            cov_hit!("wire.options.reserved_bits");
            return Err(WireError::Corrupt(format!(
                "reserved wire option bits set: {b:#04x}"
            )));
        }
        cov_hit!("wire.options.ok");
        Ok(Self {
            split_streams: b & 1 != 0,
            mtf: b & 2 != 0,
            coder: Coder::from_tag((b >> 2) & 3)?,
            deflate: b & 16 != 0,
        })
    }
}

/// The result of compression: the image plus per-section accounting.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// The complete compressed image.
    pub bytes: Vec<u8>,
    /// The options used.
    pub options: WireOptions,
    /// `(section key, compressed payload size)` in image order.
    pub sections: Vec<(String, usize)>,
}

impl WireReport {
    /// Total image size in bytes.
    pub fn total(&self) -> usize {
        self.bytes.len()
    }
}

/// Compresses a module with the given pipeline options.
///
/// # Errors
///
/// [`WireError`] if the module contains trees outside the operator table.
pub fn compress(module: &Module, options: WireOptions) -> Result<WireReport, WireError> {
    let _stage = telemetry::stage!("wire.compress");
    // 1-2. Gather statement trees and patternize into streams.
    let trees: Vec<Tree> = module
        .functions
        .iter()
        .flat_map(|f| f.body.iter().cloned())
        .collect();
    let split = SplitStreams::split(&trees);
    // Per-section symbol counts, filled in as each stream is encoded
    // and published as gauges next to the byte gauges below.
    let mut section_symbols: Vec<(String, u64)> = Vec::new();

    let mut sections: Vec<(String, Vec<u8>)> = Vec::new();

    // $meta: globals and function shapes.
    let mut meta = Vec::new();
    put_uvarint(&mut meta, module.globals.len() as u64);
    for g in &module.globals {
        put_string(&mut meta, &g.name);
        put_uvarint(&mut meta, u64::from(g.size));
        put_uvarint(&mut meta, g.init.len() as u64);
        meta.extend_from_slice(&g.init);
    }
    put_uvarint(&mut meta, module.functions.len() as u64);
    for f in &module.functions {
        put_string(&mut meta, &f.name);
        put_uvarint(&mut meta, f.param_count as u64);
        put_uvarint(&mut meta, u64::from(f.frame_size));
        put_uvarint(&mut meta, f.body.len() as u64);
    }
    sections.push(("$meta".into(), meta));

    // $patterns: the operator-pattern stream.
    let mut pat_payload = Vec::new();
    encode_symbol_stream(
        &mut pat_payload,
        split.patterns.len(),
        |out, i| encode_pattern(out, &split.patterns[i]),
        &split.pattern_stream,
        options,
    )?;
    sections.push(("$patterns".into(), pat_payload));
    section_symbols.push(("$patterns".into(), split.pattern_stream.len() as u64));

    // Literal streams: per class, or one mixed stream.
    if options.split_streams {
        for (key, lits) in &split.literals {
            let mut payload = Vec::new();
            encode_literal_stream(&mut payload, lits, options)?;
            sections.push((key.clone(), payload));
            section_symbols.push((key.clone(), lits.len() as u64));
        }
    } else {
        let mut all = Vec::new();
        for tree in &trees {
            collect_literals_prefix(tree, &mut all);
        }
        let mut payload = Vec::new();
        encode_literal_stream(&mut payload, &all, options)?;
        sections.push(("$literals".into(), payload));
        section_symbols.push(("$literals".into(), all.len() as u64));
    }

    // 5. DEFLATE each stream in isolation and assemble the container.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(options.to_byte());
    put_uvarint(&mut out, sections.len() as u64);
    let mut report_sections = Vec::with_capacity(sections.len());
    for (key, raw) in sections {
        let payload = if options.deflate {
            deflate_compress(&raw, CompressionLevel::Best)
        } else {
            raw
        };
        put_string(&mut out, &key);
        put_uvarint(&mut out, payload.len() as u64);
        report_sections.push((key, payload.len()));
        out.extend_from_slice(&payload);
    }
    if telemetry::enabled() {
        // The --stats contract: per-section byte gauges plus the
        // container framing gauge always sum to `total_bytes` exactly,
        // so the printed table can never disagree with the image.
        // Section names are per-module, so first zero every gauge a
        // previously encoded module may have left behind.
        if let Some(c) = telemetry::collector() {
            c.metrics.zero_gauges_with_prefix("wire.encode.section_bytes.");
            c.metrics.zero_gauges_with_prefix("wire.encode.section_symbols.");
        }
        let mut section_total = 0usize;
        for (key, len) in &report_sections {
            telemetry::gauge_set(&format!("wire.encode.section_bytes.{key}"), *len as u64);
            section_total += len;
        }
        for (key, symbols) in &section_symbols {
            telemetry::gauge_set(&format!("wire.encode.section_symbols.{key}"), *symbols);
        }
        telemetry::gauge_set(
            "wire.encode.container_bytes",
            (out.len() - section_total) as u64,
        );
        telemetry::gauge_set("wire.encode.total_bytes", out.len() as u64);
        telemetry::counter_add("wire.encode.modules", 1);
        telemetry::counter_add(
            "wire.encode.symbols",
            section_symbols.iter().map(|&(_, n)| n).sum(),
        );
    }
    Ok(WireReport {
        bytes: out,
        options,
        sections: report_sections,
    })
}

/// Decompresses a wire image back into the original module under the
/// default [`codecomp_core::DecodeLimits`] (historical behaviour).
///
/// # Errors
///
/// [`WireError::Corrupt`] on malformed images.
pub fn decompress(bytes: &[u8]) -> Result<Module, WireError> {
    decompress_budgeted(bytes, &Budget::default())
}

/// Batched decode telemetry: the hot loop mutates plain fields and one
/// [`DecodeStats::flush`] on success publishes everything — the old
/// per-section `counter_add` calls each paid a registry lock and a
/// name lookup inside the measured region.
#[derive(Debug, Default)]
struct DecodeStats {
    enabled: bool,
    symbols: u64,
    table_entries: u64,
    /// `(section key, compressed payload bytes, symbols)` in image order;
    /// `$meta` carries no symbol stream and reports 0 symbols.
    sections: Vec<(String, u64, u64)>,
}

impl DecodeStats {
    fn new() -> Self {
        DecodeStats {
            enabled: telemetry::enabled(),
            ..DecodeStats::default()
        }
    }

    /// Publishes the batch, mirroring the encode side's reset-and-set
    /// gauge contract: stale `wire.decode.section_*` gauges from a
    /// previously decoded module are zeroed before this module's
    /// sections are set, and `container_bytes` plus the section byte
    /// gauges sum exactly to `total_bytes`.
    fn flush(&self, total_bytes: u64) {
        if !self.enabled {
            return;
        }
        telemetry::counter_add("wire.decode.symbols", self.symbols);
        telemetry::counter_add("wire.decode.table_entries", self.table_entries);
        if let Some(c) = telemetry::collector() {
            c.metrics.zero_gauges_with_prefix("wire.decode.section_bytes.");
            c.metrics.zero_gauges_with_prefix("wire.decode.section_symbols.");
        }
        let mut section_total = 0u64;
        for (key, bytes, symbols) in &self.sections {
            telemetry::gauge_set(&format!("wire.decode.section_bytes.{key}"), *bytes);
            telemetry::gauge_set(&format!("wire.decode.section_symbols.{key}"), *symbols);
            section_total += bytes;
        }
        telemetry::gauge_set(
            "wire.decode.container_bytes",
            total_bytes.saturating_sub(section_total),
        );
        telemetry::gauge_set("wire.decode.total_bytes", total_bytes);
    }
}

/// Reads one framed section (key, length, payload) at the cursor and
/// inflates its payload.
fn read_section<'a>(
    c: &mut Cursor<'a>,
    options: WireOptions,
    budget: &Budget,
) -> Result<(String, Vec<u8>, u64), WireError> {
    let key = c.string()?;
    let len = c.usize_varint()?;
    let payload = c.take(len)?;
    let _inflate = telemetry::stage!("wire.decode.inflate");
    let raw = if options.deflate {
        cov_hit!("wire.section.deflated");
        inflate_budgeted(payload, budget)?
    } else {
        cov_hit!("wire.section.raw");
        budget.check_output_bytes(payload.len() as u64)?;
        payload.to_vec()
    };
    Ok((key, raw, len as u64))
}

/// Budget-governed [`decompress`]: every stage — section DEFLATE,
/// stream symbol counts, table sizes, pattern nesting, decode fuel —
/// is checked against `budget`, and usage high-water marks are
/// recorded on it.
///
/// Decoding is single-pass over the container framing: each section is
/// inflated and handed straight to its stream decoder as the cursor
/// reaches it, with no intermediate `(key, payload)` section list.
///
/// # Errors
///
/// [`WireError::Limit`] when a budget knob trips (never misreported as
/// `Corrupt`); otherwise as [`decompress`].
pub fn decompress_budgeted(bytes: &[u8], budget: &Budget) -> Result<Module, WireError> {
    let _stage = telemetry::stage!("wire.decompress");
    telemetry::counter_add("wire.decode.modules", 1);
    telemetry::counter_add("wire.decode.input_bytes", bytes.len() as u64);
    let mut stats = DecodeStats::new();
    let mut c = Cursor::new(bytes);
    if c.take(4)? != MAGIC {
        cov_hit!("wire.magic.bad");
        return Err(WireError::Corrupt("bad magic".into()));
    }
    cov_hit!("wire.magic.ok");
    let options = WireOptions::from_byte(c.u8()?)?;
    let n_sections = c.usize_varint()?;

    // Section 1: $meta — globals and function shapes.
    if n_sections == 0 {
        cov_hit!("wire.meta.missing");
        return Err(WireError::Corrupt("missing $meta".into()));
    }
    let (meta_key, meta, meta_len) = read_section(&mut c, options, budget)?;
    if meta_key != "$meta" {
        cov_hit!("wire.meta.wrong_key");
        return Err(WireError::Corrupt("first section is not $meta".into()));
    }
    cov_hit!("wire.meta.ok");
    if stats.enabled {
        stats.sections.push((meta_key, meta_len, 0));
    }
    let mut mc = Cursor::new(&meta);
    let nglobals = mc.usize_varint()?;
    budget.check_table_entries(nglobals as u64)?;
    budget.charge_fuel(nglobals as u64)?;
    let mut globals = Vec::with_capacity(nglobals.min(mc.remaining() / 3));
    for _ in 0..nglobals {
        let name = mc.string()?;
        let size = u32::try_from(mc.uvarint()?)
            .map_err(|_| WireError::Corrupt("global size out of range".into()))?;
        let init_len = mc.usize_varint()?;
        globals.push(Global {
            name,
            size,
            init: mc.take(init_len)?.to_vec(),
        });
    }
    let nfuncs = mc.usize_varint()?;
    budget.check_table_entries(nfuncs as u64)?;
    budget.charge_fuel(nfuncs as u64)?;
    let mut func_meta = Vec::with_capacity(nfuncs.min(mc.remaining() / 4));
    for _ in 0..nfuncs {
        let name = mc.string()?;
        let params = mc.usize_varint()?;
        let frame = u32::try_from(mc.uvarint()?)
            .map_err(|_| WireError::Corrupt("frame size out of range".into()))?;
        let stmts = mc.usize_varint()?;
        func_meta.push((name, params, frame, stmts));
    }

    // Section 2: $patterns — the operator-pattern stream.
    if n_sections == 1 {
        cov_hit!("wire.patterns.missing");
        return Err(WireError::Corrupt("missing $patterns".into()));
    }
    let (pat_key, pat_raw, pat_len) = read_section(&mut c, options, budget)?;
    if pat_key != "$patterns" {
        cov_hit!("wire.patterns.wrong_key");
        return Err(WireError::Corrupt("second section is not $patterns".into()));
    }
    let mut pc = Cursor::new(&pat_raw);
    let (patterns, stream) = decode_symbol_stream(&mut pc, options, budget, &mut stats, |c| {
        decode_pattern(c, budget)
    })?;
    if stats.enabled {
        stats.sections.push((pat_key, pat_len, stream.len() as u64));
    }

    // Remaining sections: literal streams, decoded as they are framed.
    let mut literal_sections: Vec<(String, Vec<Literal>)> =
        Vec::with_capacity((n_sections - 2).min(c.remaining() / 2));
    for _ in 2..n_sections {
        let (key, raw, len) = read_section(&mut c, options, budget)?;
        let mut lc = Cursor::new(&raw);
        let lits = decode_literal_stream(&mut lc, options, budget, &mut stats)?;
        if stats.enabled {
            stats.sections.push((key.clone(), len, lits.len() as u64));
        }
        literal_sections.push((key, lits));
    }
    if c.remaining() != 0 {
        cov_hit!("wire.trailing_bytes");
        return Err(WireError::Corrupt(
            "trailing bytes after last section".into(),
        ));
    }

    // Rebuild trees against the pattern table.
    let join = telemetry::stage!("wire.decode.join");
    let trees: Vec<Tree> = if options.split_streams {
        cov_hit!("wire.join.split");
        SplitStreams {
            patterns,
            pattern_stream: stream,
            literals: literal_sections.into_iter().collect(),
        }
        .join()?
    } else {
        cov_hit!("wire.join.mixed");
        let (_, all) = literal_sections
            .into_iter()
            .next()
            .ok_or_else(|| WireError::Corrupt("missing $literals".into()))?;
        let mut queue = all.into_iter();
        let mut trees = Vec::with_capacity(stream.len());
        for &sym in &stream {
            let pat = patterns
                .get(sym as usize)
                .ok_or_else(|| WireError::Corrupt(format!("bad pattern symbol {sym}")))?;
            let tree = pat.rebuild_slots(&mut || {
                queue
                    .next()
                    .ok_or_else(|| codecomp_core::CoreError::StreamUnderflow("literals".into()))
            })?;
            trees.push(tree);
        }
        trees
    };
    drop(join);

    // Slice trees into functions.
    let mut module = Module {
        globals,
        functions: Vec::new(),
    };
    let mut trees = trees.into_iter();
    let mut remaining = trees.len();
    for (name, params, frame, stmts) in func_meta {
        // `stmts` is attacker-controlled; compare against what is left,
        // never `cursor + stmts`, which could overflow.
        if stmts > remaining {
            cov_hit!("wire.functions.stmt_overrun");
            return Err(WireError::Corrupt(
                "statement count overruns tree stream".into(),
            ));
        }
        let mut f = Function::new(name, params, frame);
        f.body = trees.by_ref().take(stmts).collect();
        remaining -= stmts;
        module.functions.push(f);
    }
    if remaining != 0 {
        cov_hit!("wire.functions.trailing_trees");
        return Err(WireError::Corrupt(
            "trailing trees after last function".into(),
        ));
    }
    cov_hit!("wire.decode.ok");
    stats.flush(bytes.len() as u64);
    Ok(module)
}

// ---- pattern (de)serialization ---------------------------------------------

fn encode_pattern(out: &mut Vec<u8>, pat: &TreePattern) -> Result<(), WireError> {
    put_uvarint(out, pat.node_count() as u64);
    fn emit(out: &mut Vec<u8>, p: &TreePattern) -> Result<(), WireError> {
        out.push(byte_for_op(p.op, p.width)?);
        for k in &p.kids {
            emit(out, k)?;
        }
        Ok(())
    }
    emit(out, pat)
}

fn decode_pattern(c: &mut Cursor<'_>, budget: &Budget) -> Result<TreePattern, WireError> {
    let count = c.usize_varint()?;
    let (pat, used) = decode_pattern_node(c, 0, budget)?;
    if used != count {
        cov_hit!("wire.pattern.count_mismatch");
        return Err(WireError::Corrupt(format!(
            "pattern node count mismatch: header {count}, actual {used}"
        )));
    }
    Ok(pat)
}

fn decode_pattern_node(
    c: &mut Cursor<'_>,
    depth: u32,
    budget: &Budget,
) -> Result<(TreePattern, usize), WireError> {
    // Bounds stack use against hand-crafted deeply-nested inputs.
    budget.check_pattern_depth(depth)?;
    let byte = c.u8()?;
    let Some(desc) = desc_for_byte(byte) else {
        cov_hit!("wire.pattern.unknown_op");
        return Err(WireError::Corrupt(format!("unknown operator byte {byte}")));
    };
    cov_hit!("wire.pattern.node");
    let (op, width) = desc_to_op(desc);
    let arity = match op.opcode {
        Opcode::Ret => usize::from(op.ty != codecomp_ir::op::IrType::V),
        other => other.arity().expect("only RET is variable"),
    };
    let mut kids = Vec::with_capacity(arity);
    let mut used = 1usize;
    for _ in 0..arity {
        let (k, n) = decode_pattern_node(c, depth + 1, budget)?;
        used += n;
        kids.push(k);
    }
    let has_literal = op.opcode.literal_kind() != codecomp_ir::op::LiteralKind::None;
    Ok((
        TreePattern {
            op,
            width,
            has_literal,
            kids,
        },
        used,
    ))
}

// ---- literal (de)serialization ----------------------------------------------

fn encode_literal(out: &mut Vec<u8>, lit: &Literal) {
    match lit {
        Literal::Int(v) => {
            out.push(0);
            put_ivarint(out, *v);
        }
        Literal::Offset(v) => {
            out.push(1);
            put_ivarint(out, i64::from(*v));
        }
        Literal::Label(v) => {
            out.push(2);
            put_uvarint(out, u64::from(*v));
        }
        Literal::Symbol(s) => {
            out.push(3);
            put_string(out, s);
        }
    }
}

fn decode_literal(c: &mut Cursor<'_>) -> Result<Literal, WireError> {
    Ok(match c.u8()? {
        0 => {
            cov_hit!("wire.literal.int");
            Literal::Int(c.ivarint()?)
        }
        1 => {
            cov_hit!("wire.literal.offset");
            Literal::Offset(
                i32::try_from(c.ivarint()?)
                    .map_err(|_| WireError::Corrupt("offset out of range".into()))?,
            )
        }
        2 => {
            cov_hit!("wire.literal.label");
            Literal::Label(
                u32::try_from(c.uvarint()?)
                    .map_err(|_| WireError::Corrupt("label out of range".into()))?,
            )
        }
        3 => {
            cov_hit!("wire.literal.symbol");
            Literal::Symbol(c.string()?)
        }
        other => {
            cov_hit!("wire.literal.bad_tag");
            return Err(WireError::Corrupt(format!("bad literal tag {other}")));
        }
    })
}

fn collect_literals_prefix(tree: &Tree, out: &mut Vec<Literal>) {
    if let Some(l) = tree.literal() {
        out.push(l.clone());
    }
    for k in tree.kids() {
        collect_literals_prefix(k, out);
    }
}

// ---- generic symbol-stream coding --------------------------------------------

/// Encodes a stream of occurrences over a first-occurrence-ordered table.
///
/// `table_len` entries are written with `write_entry`; `occurrences` are
/// indices into that table in program order.
fn encode_symbol_stream(
    out: &mut Vec<u8>,
    table_len: usize,
    mut write_entry: impl FnMut(&mut Vec<u8>, usize) -> Result<(), WireError>,
    occurrences: &[u32],
    options: WireOptions,
) -> Result<(), WireError> {
    put_uvarint(out, table_len as u64);
    for i in 0..table_len {
        write_entry(out, i)?;
    }
    let (indices, alphabet) = if options.mtf {
        // The paper's MTF variant: index 0 denotes a first occurrence.
        // Occurrence values are first-occurrence-ordered table indices,
        // so the MTF side table is the identity and is not transmitted.
        let enc = mtf_encode(occurrences);
        debug_assert!(enc.table.iter().copied().eq(0..table_len as u32));
        (enc.indices, table_len + 1)
    } else {
        (occurrences.to_vec(), table_len)
    };
    encode_indices(out, &indices, alphabet.max(1), options.coder)
}

fn decode_symbol_stream<T>(
    c: &mut Cursor<'_>,
    options: WireOptions,
    budget: &Budget,
    stats: &mut DecodeStats,
    mut read_entry: impl FnMut(&mut Cursor<'_>) -> Result<T, WireError>,
) -> Result<(Vec<T>, Vec<u32>), WireError> {
    let table_len = c.usize_varint()?;
    budget.check_table_entries(table_len as u64)?;
    budget.charge_fuel(table_len as u64)?;
    let mut table = Vec::with_capacity(table_len.min(c.remaining()));
    {
        let _entries = telemetry::stage!("wire.decode.entry_table");
        for _ in 0..table_len {
            table.push(read_entry(c)?);
        }
    }
    let alphabet = if options.mtf {
        table_len + 1
    } else {
        table_len
    };
    let indices = {
        let _indices = telemetry::stage!("wire.decode.indices");
        decode_indices(c, alphabet.max(1), options.coder, budget)?
    };
    let mtf = telemetry::stage!("wire.decode.mtf");
    let occurrences = if options.mtf {
        cov_hit!("wire.stream.mtf");
        // Occurrence values are first-occurrence table indices, so the
        // MTF side table is the identity and the batched array decoder
        // applies.
        let Some(occ) = mtf_decode_identity(&indices, table_len) else {
            cov_hit!("wire.stream.bad_mtf_index");
            return Err(WireError::Corrupt("bad MTF index".into()));
        };
        occ
    } else {
        cov_hit!("wire.stream.direct");
        indices
    };
    drop(mtf);
    if occurrences.iter().any(|&o| o as usize >= table_len) && !occurrences.is_empty() {
        cov_hit!("wire.stream.occurrence_overflow");
        return Err(WireError::Corrupt("occurrence beyond table".into()));
    }
    stats.symbols += occurrences.len() as u64;
    stats.table_entries += table_len as u64;
    Ok((table, occurrences))
}

fn encode_literal_stream(
    out: &mut Vec<u8>,
    lits: &[Literal],
    options: WireOptions,
) -> Result<(), WireError> {
    // Build the first-occurrence table.
    let mut table: Vec<Literal> = Vec::new();
    let mut occurrences = Vec::with_capacity(lits.len());
    for l in lits {
        let idx = match table.iter().position(|t| t == l) {
            Some(i) => i,
            None => {
                table.push(l.clone());
                table.len() - 1
            }
        };
        occurrences.push(idx as u32);
    }
    encode_symbol_stream(
        out,
        table.len(),
        |o, i| {
            encode_literal(o, &table[i]);
            Ok(())
        },
        &occurrences,
        options,
    )
}

fn decode_literal_stream(
    c: &mut Cursor<'_>,
    options: WireOptions,
    budget: &Budget,
    stats: &mut DecodeStats,
) -> Result<Vec<Literal>, WireError> {
    let (table, occurrences) = decode_symbol_stream(c, options, budget, stats, decode_literal)?;
    occurrences
        .into_iter()
        .map(|o| {
            table
                .get(o as usize)
                .cloned()
                .ok_or_else(|| WireError::Corrupt("occurrence beyond table".into()))
        })
        .collect()
}

// ---- index coding ---------------------------------------------------------------

fn encode_indices(
    out: &mut Vec<u8>,
    indices: &[u32],
    alphabet: usize,
    coder: Coder,
) -> Result<(), WireError> {
    put_uvarint(out, indices.len() as u64);
    if indices.is_empty() {
        return Ok(());
    }
    match coder {
        Coder::Raw => {
            for &i in indices {
                put_uvarint(out, u64::from(i));
            }
        }
        Coder::Huffman => {
            let mut freqs = vec![0u64; alphabet];
            for &i in indices {
                freqs[i as usize] += 1;
            }
            let enc = HuffmanEncoder::from_frequencies(&freqs, 15)?;
            out.extend_from_slice(enc.lengths());
            debug_assert_eq!(enc.lengths().len(), alphabet);
            let bits = enc.encode_symbols(indices.iter().map(|&i| i as usize))?;
            put_uvarint(out, bits.len() as u64);
            out.extend_from_slice(&bits);
        }
        Coder::Arithmetic => {
            let mut model = AdaptiveModel::new(alphabet);
            let mut enc = ArithEncoder::new();
            for &i in indices {
                let (lo, hi) = model.bounds(i as usize)?;
                enc.encode(lo, hi, model.total())?;
                model.update(i as usize)?;
            }
            let bytes = enc.finish();
            put_uvarint(out, bytes.len() as u64);
            out.extend_from_slice(&bytes);
        }
    }
    Ok(())
}

fn decode_indices(
    c: &mut Cursor<'_>,
    alphabet: usize,
    coder: Coder,
    budget: &Budget,
) -> Result<Vec<u32>, WireError> {
    let count = c.usize_varint()?;
    if count == 0 {
        cov_hit!("wire.indices.empty");
        return Ok(Vec::new());
    }
    // An attacker-supplied count above the stream-symbol ceiling is
    // rejected before any decode work happens; the adaptive arithmetic
    // coder can represent near-zero bits per symbol, so without this
    // cap a tiny payload could demand unbounded decode effort.
    budget.check_stream_symbols(count as u64)?;
    budget.charge_fuel(count as u64)?;
    match coder {
        Coder::Raw => {
            cov_hit!("wire.indices.raw");
            let mut out = Vec::with_capacity(count.min(c.remaining()));
            for _ in 0..count {
                out.push(
                    u32::try_from(c.uvarint()?)
                        .map_err(|_| WireError::Corrupt("index out of range".into()))?,
                );
            }
            Ok(out)
        }
        Coder::Huffman => {
            cov_hit!("wire.indices.huffman");
            let lengths = c.take(alphabet)?;
            let nbytes = c.usize_varint()?;
            let bits = c.take(nbytes)?;
            let dec = {
                let _build = telemetry::stage!("wire.decode.table_build");
                HuffmanDecoder::from_lengths(lengths)?
            };
            // Table-driven bulk decode: two-level lookup against a
            // 64-bit reservoir instead of a bit-walk per symbol.
            let out = dec.decode_exact(bits, count)?;
            Ok(out.into_iter().map(|s| s as u32).collect())
        }
        Coder::Arithmetic => {
            cov_hit!("wire.indices.arith");
            let nbytes = c.usize_varint()?;
            let bytes = c.take(nbytes)?;
            let mut model = AdaptiveModel::with_budget(alphabet, budget)?;
            let mut dec = ArithDecoder::new(bytes)?;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let point = dec.decode_point(model.total())?;
                let (sym, lo, hi) = model.locate(point)?;
                dec.consume(lo, hi, model.total())?;
                model.update(sym)?;
                out.push(sym as u32);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_front::compile;

    fn sample_module() -> Module {
        compile(
            "int data[16];
             int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() {
                 int i;
                 int s = 0;
                 for (i = 0; i < 16; i++) { data[i] = fib(i % 10); s += data[i]; }
                 print_int(s);
                 return s;
             }",
        )
        .unwrap()
    }

    #[test]
    fn default_pipeline_roundtrips() {
        let m = sample_module();
        let packed = compress(&m, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), m);
    }

    #[test]
    fn all_option_combinations_roundtrip() {
        let m = sample_module();
        for split in [true, false] {
            for mtf in [true, false] {
                for coder in [Coder::Raw, Coder::Huffman, Coder::Arithmetic] {
                    for deflate in [true, false] {
                        let options = WireOptions {
                            split_streams: split,
                            mtf,
                            coder,
                            deflate,
                        };
                        let packed = compress(&m, options).unwrap();
                        assert_eq!(
                            decompress(&packed.bytes).unwrap(),
                            m,
                            "roundtrip failed for {options:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compresses_below_uncompressed_binary() {
        // Per-stream overheads dominate on tiny inputs (the paper sees
        // the same small-input loss), so use a realistically sized
        // program: many functions with the usual idioms.
        let mut src = String::from("int acc;\n");
        for i in 0..40 {
            src.push_str(&format!(
                "int work{i}(int a, int b) {{
                     int s = 0; int j;
                     for (j = a; j < b; j++) {{ s += j * {i}; acc += s % 7; }}
                     if (s > 100) return s - b; else return s + a;
                 }}\n"
            ));
        }
        src.push_str("int main() { return work3(1, 5) + work7(2, 9); }");
        let m = compile(&src).unwrap();
        let packed = compress(&m, WireOptions::default()).unwrap();
        let uncompressed = codecomp_ir::binary::encode_module(&m).unwrap().len();
        assert!(
            packed.total() < uncompressed / 2,
            "wire {} should be well below raw {}",
            packed.total(),
            uncompressed
        );
    }

    #[test]
    fn sections_report_accounts_for_image() {
        let m = sample_module();
        let packed = compress(&m, WireOptions::default()).unwrap();
        assert_eq!(packed.sections[0].0, "$meta");
        assert_eq!(packed.sections[1].0, "$patterns");
        let payload_total: usize = packed.sections.iter().map(|(_, n)| n).sum();
        assert!(payload_total < packed.total());
        assert!(packed
            .sections
            .iter()
            .any(|(k, _)| k == "ADDRLP8" || k == "CNSTC"));
    }

    #[test]
    fn empty_module_roundtrips() {
        let m = Module::new();
        let packed = compress(&m, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), m);
    }

    #[test]
    fn corrupt_images_rejected() {
        let m = sample_module();
        let packed = compress(&m, WireOptions::default()).unwrap();
        assert!(decompress(&packed.bytes[..10]).is_err());
        let mut bad = packed.bytes.clone();
        bad[0] = b'X';
        assert!(decompress(&bad).is_err());
        // Flipping a payload byte must not roundtrip silently to a
        // different module without erroring in most cases; at minimum it
        // must not panic.
        for i in (5..packed.bytes.len()).step_by(7) {
            let mut bad = packed.bytes.clone();
            bad[i] ^= 0x5A;
            let _ = decompress(&bad);
        }
    }

    #[test]
    fn reserved_option_bits_rejected() {
        // Every value with any of bits 5-7 set is a future-revision
        // marker and must not decode as a current-version options byte.
        for b in 0u8..=255 {
            let parsed = WireOptions::from_byte(b);
            if b & 0xE0 != 0 {
                assert!(parsed.is_err(), "byte {b:#04x} should be rejected");
            }
        }
        // A whole image with a reserved bit set is malformed, even when
        // the rest of the image is a valid current-version module.
        let m = sample_module();
        let mut packed = compress(&m, WireOptions::default()).unwrap().bytes;
        assert_eq!(packed[4] & 0xE0, 0, "encoder must not emit reserved bits");
        packed[4] |= 0x80;
        match decompress(&packed) {
            Err(WireError::Corrupt(msg)) => assert!(msg.contains("reserved")),
            other => panic!("expected Corrupt(reserved ...), got {other:?}"),
        }
    }

    #[test]
    fn options_byte_roundtrip() {
        for split in [true, false] {
            for mtf in [true, false] {
                for coder in [Coder::Raw, Coder::Huffman, Coder::Arithmetic] {
                    for deflate in [true, false] {
                        let o = WireOptions {
                            split_streams: split,
                            mtf,
                            coder,
                            deflate,
                        };
                        assert_eq!(WireOptions::from_byte(o.to_byte()).unwrap(), o);
                    }
                }
            }
        }
    }
}
