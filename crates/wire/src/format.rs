//! The wire-format container: compression pipeline and its inverse.

use crate::WireError;
use codecomp_coding::arith::{ArithDecoder, ArithEncoder};
use codecomp_coding::huffman::{HuffmanDecoder, HuffmanEncoder};
use codecomp_coding::model::AdaptiveModel;
use codecomp_coding::mtf::{mtf_decode, mtf_encode};
use codecomp_core::bytesio::{code_global, code_node, Cursor, Io};
use codecomp_core::streams::SplitStreams;
use codecomp_core::telemetry;
use codecomp_core::treepat::TreePattern;
use codecomp_core::Budget;
use codecomp_flate::{deflate_compress, inflate_budgeted, CompressionLevel};
use codecomp_ir::op::{Literal, LiteralKind};
use codecomp_ir::tree::{Function, Global, Module, Tree};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"CCWF";

/// Index-coder selection for the MTF index streams. The discriminant
/// is the coder's field in the options byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Coder {
    /// Varint indices, no entropy coding.
    Raw = 0,
    /// Semi-static canonical Huffman (the paper's choice).
    #[default]
    Huffman = 1,
    /// Order-0 adaptive arithmetic coding (the design-space alternative).
    Arithmetic = 2,
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
            | ((self.coder as u8) << 2)
            | (u8::from(self.deflate) << 4)
    }

    pub(crate) fn from_byte(b: u8) -> Result<Self, WireError> {
        // A set reserved bit means the image was produced by a newer
        // format revision; decoding it as current-version would silently
        // misinterpret the payload, so it is malformed input here.
        if b & RESERVED_OPTION_BITS != 0 {
            return Err(WireError::Corrupt(format!(
                "reserved wire option bits set: {b:#04x}"
            )));
        }
        Ok(Self {
            split_streams: b & 1 != 0,
            mtf: b & 2 != 0,
            coder: match (b >> 2) & 3 {
                0 => Coder::Raw,
                1 => Coder::Huffman,
                2 => Coder::Arithmetic,
                other => return Err(WireError::Corrupt(format!("bad coder tag {other}"))),
            },
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
pub fn compress(module: &Module, mut options: WireOptions) -> Result<WireReport, WireError> {
    let _stage = telemetry::stage!("wire.compress");
    // 1-2. Gather statement trees and patternize into streams.
    let trees: Vec<Tree> = module
        .functions
        .iter()
        .flat_map(|f| f.body.iter().cloned())
        .collect();
    let mut split = SplitStreams::split(&trees);
    // Per-section symbol counts, filled in as each stream is encoded
    // and published as gauges next to the byte gauges below.
    let mut section_symbols: Vec<(String, u64)> = Vec::new();

    let mut sections: Vec<(String, Vec<u8>)> = Vec::new();

    // $meta: globals and function shapes.
    let mut payload = Vec::new();
    code_meta(
        &mut payload,
        &mut module.globals.clone(),
        &mut module
            .functions
            .iter()
            .map(|f| (f.name.clone(), f.param_count, f.frame_size, f.body.len()))
            .collect(),
    )?;
    sections.push(("$meta".into(), payload));

    // $patterns: the operator-pattern stream.
    let mut payload = Vec::new();
    code_symbol_stream(
        &mut payload,
        options,
        &mut split.patterns,
        &mut split.pattern_stream,
        code_pattern,
    )?;
    sections.push(("$patterns".into(), payload));
    section_symbols.push(("$patterns".into(), split.pattern_stream.len() as u64));

    // Literal streams: per class, or one mixed stream, each over its
    // first-occurrence table.
    let literal_streams: Vec<(String, Vec<Literal>)> = if options.split_streams {
        std::mem::take(&mut split.literals).into_iter().collect()
    } else {
        let mut all = Vec::new();
        for tree in &trees {
            collect_literals_prefix(tree, &mut all);
        }
        vec![("$literals".into(), all)]
    };
    for (key, lits) in literal_streams {
        let mut table: Vec<Literal> = Vec::new();
        let mut index: HashMap<&Literal, u32> = HashMap::new();
        let mut occurrences: Vec<u32> = lits
            .iter()
            .map(|l| {
                *index.entry(l).or_insert_with(|| {
                    table.push(l.clone());
                    table.len() as u32 - 1
                })
            })
            .collect();
        let mut payload = Vec::new();
        code_symbol_stream(
            &mut payload,
            options,
            &mut table,
            &mut occurrences,
            code_literal,
        )?;
        sections.push((key.clone(), payload));
        section_symbols.push((key, lits.len() as u64));
    }

    // 5. DEFLATE each stream in isolation and assemble the container.
    if options.deflate {
        for (_, payload) in &mut sections {
            *payload = deflate_compress(payload, CompressionLevel::Best);
        }
    }
    let report_sections: Vec<(String, usize)> = sections
        .iter()
        .map(|(key, payload)| (key.clone(), payload.len()))
        .collect();
    let mut out = Vec::new();
    code_container(&mut out, &mut options, &mut sections)?;
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

/// Inflates one section's payload (or passes it through when the image
/// is not DEFLATEd).
fn inflate_section(
    payload: Vec<u8>,
    options: WireOptions,
    budget: &Budget,
) -> Result<Vec<u8>, WireError> {
    let _inflate = telemetry::stage!("wire.decode.inflate");
    if options.deflate {
        Ok(inflate_budgeted(&payload, budget)?)
    } else {
        budget.check_output_bytes(payload.len() as u64)?;
        Ok(payload)
    }
}

/// Budget-governed [`decompress`]: every stage — section DEFLATE,
/// stream symbol counts, table sizes, pattern nesting, decode fuel —
/// is checked against `budget`, and usage high-water marks are
/// recorded on it.
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
    let mut c = Cursor::new(bytes, budget);
    let (mut options, mut sections) = (WireOptions::default(), Vec::new());
    code_container(&mut c, &mut options, &mut sections)?;
    if c.remaining() != 0 {
        return Err(WireError::Corrupt(
            "trailing bytes after last section".into(),
        ));
    }
    // `$meta` and `$patterns` lead, in that order; literal streams follow.
    for (i, want) in ["$meta", "$patterns"].into_iter().enumerate() {
        if sections.get(i).is_none_or(|(key, _)| key != want) {
            return Err(WireError::Corrupt(format!("section {i} is not {want}")));
        }
    }
    let (mut globals, mut shapes) = (Vec::new(), Vec::new());
    let (mut patterns, mut stream) = (Vec::new(), Vec::new());
    let mut literal_sections: Vec<(String, Vec<Literal>)> = Vec::with_capacity(sections.len());
    for (i, (key, payload)) in sections.into_iter().enumerate() {
        let len = payload.len() as u64;
        let raw = inflate_section(payload, options, budget)?;
        let c = &mut Cursor::new(&raw, budget);
        let (table_len, symbols) = match i {
            0 => {
                code_meta(c, &mut globals, &mut shapes)?;
                (0, 0)
            }
            1 => {
                code_symbol_stream(c, options, &mut patterns, &mut stream, code_pattern)?;
                (patterns.len(), stream.len())
            }
            _ => {
                let (mut table, mut occurrences) = (Vec::new(), Vec::new());
                code_symbol_stream(c, options, &mut table, &mut occurrences, code_literal)?;
                let lits = occurrences
                    .iter()
                    .map(|&o| table[o as usize].clone())
                    .collect();
                literal_sections.push((key.clone(), lits));
                (table.len(), occurrences.len())
            }
        };
        stats.table_entries += table_len as u64;
        stats.symbols += symbols as u64;
        if stats.enabled {
            stats.sections.push((key, len, symbols as u64));
        }
    }

    // Rebuild trees against the pattern table.
    let join = telemetry::stage!("wire.decode.join");
    let trees: Vec<Tree> = if options.split_streams {
        SplitStreams {
            patterns,
            pattern_stream: stream,
            literals: literal_sections.into_iter().collect(),
        }
        .join()?
    } else {
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
    for (name, params, frame, stmts) in shapes {
        // `stmts` is attacker-controlled; compare against what is left,
        // never `cursor + stmts`, which could overflow.
        if stmts > remaining {
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
        return Err(WireError::Corrupt(
            "trailing trees after last function".into(),
        ));
    }
    stats.flush(bytes.len() as u64);
    Ok(module)
}

// ---- container framing ---------------------------------------------------------

/// The container: magic, options byte, then the `(key, payload)`
/// sections, each payload DEFLATEd when the options say so.
pub fn code_container<I: Io>(
    io: &mut I,
    options: &mut WireOptions,
    sections: &mut Vec<(String, Vec<u8>)>,
) -> Result<(), WireError> {
    io.magic(MAGIC)?;
    io.tag(options, |o| Ok(o.to_byte()), WireOptions::from_byte)?;
    io.seq(sections, |io, (key, payload)| {
        io.string(key)?;
        io.bytes(payload)
    })?;
    Ok(())
}

/// A function's `(name, params, frame size, statement count)`: its body
/// is the next `statement count` trees of the stream.
pub type FuncShape = (String, usize, u32, usize);

/// The `$meta` section: globals and the shape of every function.
pub fn code_meta<I: Io>(
    io: &mut I,
    globals: &mut Vec<Global>,
    shapes: &mut Vec<FuncShape>,
) -> Result<(), WireError> {
    io.seq(globals, code_global)?;
    io.seq(shapes, |io, (name, params, frame, stmts)| {
        io.string(name)?;
        io.usize(params)?;
        io.u32(frame)?;
        io.usize(stmts)
    })?;
    Ok(())
}

// ---- pattern and literal codecs ---------------------------------------------------

/// A pattern: its node count, then one operator byte per node in prefix
/// order. Each operator implies its child count, so kids are not
/// framed; the node count cross-checks the walk.
pub fn code_pattern<I: Io>(io: &mut I, pat: &mut TreePattern) -> Result<(), WireError> {
    let mut count = pat.node_count();
    io.usize(&mut count)?;
    let used = code_pattern_node(io, pat, 0)?;
    if used != count {
        return Err(WireError::Corrupt(format!(
            "pattern node count mismatch: header {count}, actual {used}"
        )));
    }
    Ok(())
}

/// Codes one node and its subtree; returns the nodes coded.
fn code_pattern_node<I: Io>(
    io: &mut I,
    p: &mut TreePattern,
    depth: u32,
) -> Result<usize, WireError> {
    // Bounds stack use against hand-crafted deeply-nested inputs.
    if let Some(budget) = io.budget() {
        budget.check_pattern_depth(depth)?;
    }
    let mut node = (p.op, p.width, p.kids.len());
    code_node(io, &mut node)?;
    (p.op, p.width) = (node.0, node.1);
    p.has_literal = p.op.opcode.literal_kind() != LiteralKind::None;
    p.kids.resize_with(node.2, TreePattern::default);
    let mut used = 1usize;
    for k in &mut p.kids {
        used += code_pattern_node(io, k, depth + 1)?;
    }
    Ok(used)
}

/// A literal: a kind tag, then the value.
pub fn code_literal<I: Io>(io: &mut I, lit: &mut Literal) -> Result<(), WireError> {
    io.tag(
        lit,
        |l| {
            Ok(match l {
                Literal::Int(_) => 0,
                Literal::Offset(_) => 1,
                Literal::Label(_) => 2,
                Literal::Symbol(_) => 3,
            })
        },
        |tag| {
            Ok(match tag {
                0 => Literal::Int(0),
                1 => Literal::Offset(0),
                2 => Literal::Label(0),
                3 => Literal::Symbol(String::new()),
                other => {
                    return Err(WireError::Corrupt(format!("bad literal tag {other}")));
                }
            })
        },
    )?;
    match lit {
        Literal::Int(v) => io.ivarint(v)?,
        Literal::Offset(v) => io.i32(v)?,
        Literal::Label(v) => io.u32(v)?,
        Literal::Symbol(s) => io.string(s)?,
    }
    Ok(())
}

fn collect_literals_prefix(tree: &Tree, out: &mut Vec<Literal>) {
    if let Some(l) = tree.literal() {
        out.push(l.clone());
    }
    for k in tree.kids() {
        collect_literals_prefix(k, out);
    }
}

// ---- symbol streams ------------------------------------------------------------

/// A stream of occurrences over a first-occurrence-ordered table: the
/// table, coded entry by entry with `code_entry`, then the occurrences
/// (indices into it, in program order), MTF-coded when the options say
/// so, in the options' index coder.
///
/// # Errors
///
/// Writing: an entry `code_entry` cannot code. Reading: malformed,
/// truncated or over-budget input, or an occurrence past the table.
pub fn code_symbol_stream<I: Io, T: Default>(
    io: &mut I,
    options: WireOptions,
    table: &mut Vec<T>,
    occurrences: &mut Vec<u32>,
    code_entry: impl FnMut(&mut I, &mut T) -> Result<(), WireError>,
) -> Result<(), WireError> {
    // The `wire.decode.*` stages time reads only.
    let entries = io
        .budget()
        .map(|_| telemetry::stage!("wire.decode.entry_table"));
    io.seq(table, code_entry)?;
    drop(entries);
    let table_len = table.len();
    if options.mtf {
        // The paper's MTF variant: index 0 denotes a first occurrence.
        // Occurrence values are first-occurrence-ordered table indices,
        // so the MTF side table is the identity and is not transmitted.
        io.iso(
            occurrences,
            |occurrences| {
                let enc = mtf_encode(occurrences);
                debug_assert!(enc.table.iter().copied().eq(0..table_len as u32));
                Ok(enc.indices)
            },
            |indices| {
                let _mtf = telemetry::stage!("wire.decode.mtf");
                mtf_decode(&indices, table_len)
                    .ok_or_else(|| WireError::Corrupt("bad MTF index".into()))
            },
            |io, indices| code_indices(io, indices, table_len + 1, options.coder),
        )?;
    } else {
        code_indices(io, occurrences, table_len.max(1), options.coder)?;
    }
    if occurrences.iter().any(|&o| o as usize >= table_len) {
        return Err(WireError::Corrupt("occurrence beyond table".into()));
    }
    Ok(())
}

/// An index stream over `0..alphabet`: its count, then the indices in
/// the coder's form. The batched Huffman and arithmetic coders are the
/// two halves of an [`Io::iso`] each.
fn code_indices<I: Io>(
    io: &mut I,
    indices: &mut Vec<u32>,
    alphabet: usize,
    coder: Coder,
) -> Result<(), WireError> {
    let _indices = io
        .budget()
        .map(|_| telemetry::stage!("wire.decode.indices"));
    let mut count = indices.len();
    io.usize(&mut count)?;
    if count == 0 {
        return Ok(());
    }
    if let Some(budget) = io.budget() {
        // An attacker-supplied count above the stream-symbol ceiling is
        // rejected before any decode work happens; the adaptive
        // arithmetic coder can represent near-zero bits per symbol, so
        // without this cap a tiny payload could demand unbounded decode
        // effort.
        budget.check_stream_symbols(count as u64)?;
        budget.charge_fuel(count as u64)?;
    }
    match coder {
        Coder::Raw => {
            // Reading grows the stream as it goes, so a forged count
            // allocates no more than the bytes behind it.
            for k in 0..count {
                if k == indices.len() {
                    indices.push(0);
                }
                io.u32(&mut indices[k])?;
            }
        }
        Coder::Huffman => io.iso(
            indices,
            |indices| {
                let mut freqs = vec![0u64; alphabet];
                for &i in indices.iter() {
                    freqs[i as usize] += 1;
                }
                let enc = HuffmanEncoder::from_frequencies(&freqs, 15)?;
                let bits = enc.encode_symbols(indices.iter().map(|&i| i as usize))?;
                Ok((enc.lengths().to_vec(), bits))
            },
            |(lengths, bits)| -> Result<_, WireError> {
                let dec = {
                    let _build = telemetry::stage!("wire.decode.table_build");
                    HuffmanDecoder::from_lengths(&lengths)?
                };
                // Table-driven bulk decode: two-level lookup against a
                // 64-bit reservoir instead of a bit-walk per symbol.
                let out = dec.decode_exact(&bits, count)?;
                Ok(out.into_iter().map(|s| s as u32).collect())
            },
            |io, (lengths, bits)| {
                // A code length per symbol of the alphabet, then the bits.
                lengths.resize(alphabet, 0);
                for len in lengths.iter_mut() {
                    io.fixed(len, 1)?;
                }
                Ok(io.bytes(bits)?)
            },
        )?,
        Coder::Arithmetic => {
            // `from` runs only when reading, under the cursor's budget.
            let budget = io.budget().cloned().unwrap_or_default();
            io.iso(
                indices,
                |indices| {
                    let mut model = AdaptiveModel::new(alphabet);
                    let mut enc = ArithEncoder::new();
                    for &i in indices.iter() {
                        let (lo, hi) = model.bounds(i as usize)?;
                        enc.encode(lo, hi, model.total())?;
                        model.update(i as usize)?;
                    }
                    Ok(enc.finish())
                },
                |bytes| -> Result<_, WireError> {
                    let mut model = AdaptiveModel::with_budget(alphabet, &budget)?;
                    let mut dec = ArithDecoder::new(&bytes)?;
                    let mut out = Vec::with_capacity(count);
                    for _ in 0..count {
                        let point = dec.decode_point(model.total())?;
                        let (sym, lo, hi) = model.locate(point)?;
                        dec.consume(lo, hi, model.total())?;
                        model.update(sym)?;
                        out.push(sym as u32);
                    }
                    Ok(out)
                },
                |io, bytes| Ok(io.bytes(bytes)?),
            )?;
        }
    }
    Ok(())
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
        let uncompressed = codecomp_core::bytesio::encode_module(&m).unwrap().len();
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
    fn ret_whose_children_disagree_with_its_type_is_not_encoded() {
        // RETI with no child: the decoder would expect one.
        use codecomp_ir::op::{IrType, Op, Opcode};
        let mut f = Function::new("f", 0, 0);
        f.body
            .push(Tree::build(Op::new(Opcode::Ret, IrType::I), None, Vec::new()).unwrap());
        let module = Module {
            globals: Vec::new(),
            functions: vec![f],
        };
        assert!(compress(&module, WireOptions::default()).is_err());
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
