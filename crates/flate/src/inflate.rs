//! DEFLATE decoding (RFC 1951) — the table-driven fast path.
//!
//! This is the hottest decode path in the reproduction: the paper's
//! wire format finishes by gzipping its split streams, so every
//! compressed image funnels through [`inflate`]. Decoding is built on
//! two components:
//!
//! - a **64-bit bit reservoir** ([`BitSource`]) that refills from the
//!   input a byte-batch at a time instead of pulling single bits, and
//! - a **two-level Huffman lookup table** ([`Decoder`]): a root table
//!   indexed by the next [`ROOT_BITS`] bits resolves every short code
//!   in one probe; codes longer than the root width chain through a
//!   per-prefix overflow subtable (at most one extra probe, since
//!   DEFLATE codes are ≤ 15 bits).
//!
//! Correctness is pinned by `crate::reference` — a deliberately naive,
//! table-free RFC 1951 decoder with no shared code — via the
//! differential harness in `tests/differential.rs`. Both decoders
//! follow the same **truncation rule** so their error categories can be
//! compared: a symbol is resolved against the zero-padded tail of the
//! stream; if the matched code needs more bits than the stream holds
//! the error is `Truncated`, and if no code can match (possible only
//! under a degenerate distance table) the error is `Corrupt`.

use crate::deflate::{
    fixed_dist_lengths, fixed_litlen_lengths, CLC_ORDER, DIST_TABLE, LENGTH_TABLE,
};
use crate::FlateError;

/// Root table index width. 10 bits resolves every fixed-tree code (≤ 9
/// bits) and the vast majority of dynamic codes in one probe while
/// keeping the root table at 1 Ki entries.
const ROOT_BITS: u32 = 10;
/// Table-entry flag marking a link from the root into a subtable.
const LINK: u32 = 1 << 31;

/// A byte-batched LSB-first bit reader with a 64-bit reservoir.
///
/// The reservoir always holds the next `count` unconsumed bits in its
/// low-order positions; [`BitSource::refill`] tops it up to ≥ 56 bits
/// (or to end of input), so a refill covers a whole litlen + extra +
/// distance + extra sequence (15+5+15+13 = 48 bits worst case).
#[derive(Debug)]
struct BitSource<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load into the reservoir.
    next: usize,
    /// The next `count` stream bits, LSB first; upper bits are zero.
    bits: u64,
    count: u32,
}

impl<'a> BitSource<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            next: 0,
            bits: 0,
            count: 0,
        }
    }

    /// Tops the reservoir up to ≥ 56 bits or to end of input.
    ///
    /// The fast path loads 8 bytes in one unaligned read and advances
    /// by however many whole bytes fit, so bytes at the top of the
    /// load may be read again by the next refill — the OR is
    /// idempotent because they carry identical values. Within 8 bytes
    /// of the end it falls back to a byte loop, which keeps `count`
    /// exact and the bits above it zero (the zero padding the decode
    /// truncation rule relies on).
    #[inline]
    fn refill(&mut self) {
        if self.next + 8 <= self.data.len() {
            let chunk = u64::from_le_bytes(self.data[self.next..self.next + 8].try_into().unwrap());
            self.bits |= chunk << self.count;
            self.next += ((63 - self.count) >> 3) as usize;
            self.count |= 56;
        } else {
            while self.count <= 56 {
                match self.data.get(self.next) {
                    Some(&b) => {
                        self.bits |= u64::from(b) << self.count;
                        self.count += 8;
                        self.next += 1;
                    }
                    None => break,
                }
            }
        }
    }

    /// Drops `n` already-available bits (`n <= self.count`).
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.count);
        self.bits >>= n;
        self.count -= n;
    }

    /// Reads `n ≤ 32` bits LSB-first, failing with `Truncated` when the
    /// stream holds fewer.
    #[inline]
    fn read_bits(&mut self, n: u32) -> Result<u32, FlateError> {
        self.refill();
        self.take_bits(n)
    }

    /// As [`BitSource::read_bits`] but without refilling: the caller
    /// must have refilled and consumed at most 56 bits since. A
    /// shortfall is then a genuine end-of-stream.
    #[inline]
    fn take_bits(&mut self, n: u32) -> Result<u32, FlateError> {
        if self.count < n {
            return Err(FlateError::Truncated);
        }
        let v = (self.bits & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Skips forward to the next byte boundary of the underlying stream.
    fn align_to_byte(&mut self) {
        // The reservoir is filled in whole bytes, so the stream position
        // is misaligned by exactly `count % 8` bits.
        let drop = self.count % 8;
        self.consume(drop);
    }

    /// Reads `len` whole bytes after aligning to a byte boundary.
    fn read_aligned_bytes(&mut self, len: usize) -> Result<&'a [u8], FlateError> {
        self.align_to_byte();
        // Position of the first unconsumed byte in `data`.
        let pos = self.next - (self.count / 8) as usize;
        let end = pos.checked_add(len).ok_or(FlateError::Truncated)?;
        if end > self.data.len() {
            return Err(FlateError::Truncated);
        }
        self.next = end;
        self.bits = 0;
        self.count = 0;
        Ok(&self.data[pos..end])
    }
}

/// A two-level Huffman decoding table for LSB-first DEFLATE streams.
///
/// `table[0 .. 1<<root_bits]` is the root, indexed by the next
/// `root_bits` stream bits (which hold the code's leading bits, since
/// DEFLATE transmits codes MSB-first into LSB-first bit order). Root
/// entries are either direct hits, links into an overflow subtable
/// stored after the root, or invalid. Entry layout:
///
/// - `0`: invalid — no code matches this pattern (degenerate tables).
/// - direct: `(symbol << 5) | code_len`.
/// - link (root only): `LINK | (subtable_base << 5) | subtable_bits`.
#[derive(Debug)]
struct Decoder {
    table: Vec<u32>,
    root_bits: u32,
}

/// How strictly a code-length set must fill the code space.
///
/// RFC 1951 §3.2.7 requires complete codes, with one carve-out: a
/// distance table may consist of a single code (one length-1 entry,
/// leaving one unused pattern) or of no codes at all when the block
/// contains no matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completeness {
    /// The Kraft sum must be exactly 1: every bit pattern decodes.
    Exact,
    /// Complete, or degenerate: at most one code present.
    ExactOrDegenerate,
}

/// Reverses the low `len` bits of `code`.
#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

impl Decoder {
    #[allow(clippy::needless_range_loop)] // Kraft accumulation is index-keyed
    fn from_lengths(lengths: &[u8], completeness: Completeness) -> Result<Self, FlateError> {
        let mut count = [0u32; 16];
        let mut used = 0u32;
        let mut max_len = 0u32;
        for &l in lengths {
            if l > 15 {
                return Err(FlateError::Corrupt("code length > 15".into()));
            }
            if l > 0 {
                count[l as usize] += 1;
                used += 1;
                max_len = max_len.max(u32::from(l));
            }
        }
        let mut kraft: u64 = 0;
        for len in 1..16 {
            kraft += u64::from(count[len]) << (15 - len);
        }
        if kraft > 1 << 15 {
            return Err(FlateError::Corrupt("oversubscribed code lengths".into()));
        }
        let degenerate_ok = completeness == Completeness::ExactOrDegenerate && used <= 1;
        if kraft < 1 << 15 && !degenerate_ok {
            return Err(FlateError::Corrupt(
                "incomplete (undersubscribed) code lengths".into(),
            ));
        }

        // Canonical first-code per length (MSB-first code values).
        let mut first_code = [0u32; 16];
        let mut code = 0u32;
        for len in 1..16 {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
        }

        let root_bits = max_len.clamp(1, ROOT_BITS);
        let mut table = vec![0u32; 1 << root_bits];

        // Pass 1: direct entries for codes that fit in the root, and the
        // per-prefix maximum length of the codes that do not.
        let mut next_code = first_code;
        let mut sub_max: Vec<u32> = Vec::new();
        let mut assigned: Vec<(u16, u32, u32)> = Vec::new(); // (sym, len, rev)
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let len = u32::from(l);
            let rev = reverse_bits(next_code[l as usize], len);
            next_code[l as usize] += 1;
            assigned.push((sym as u16, len, rev));
            if len <= root_bits {
                let entry = ((sym as u32) << 5) | len;
                let mut idx = rev as usize;
                while idx < 1 << root_bits {
                    table[idx] = entry;
                    idx += 1 << len;
                }
            } else {
                if sub_max.is_empty() {
                    sub_max = vec![0u32; 1 << root_bits];
                }
                let prefix = (rev & ((1 << root_bits) - 1)) as usize;
                sub_max[prefix] = sub_max[prefix].max(len - root_bits);
            }
        }

        // Pass 2: allocate subtables and fill the long codes.
        if !sub_max.is_empty() {
            for prefix in 0..1usize << root_bits {
                let sub_bits = sub_max[prefix];
                if sub_bits == 0 {
                    continue;
                }
                let base = table.len() as u32;
                table.resize(table.len() + (1 << sub_bits), 0);
                table[prefix] = LINK | (base << 5) | sub_bits;
                for &(sym, len, rev) in &assigned {
                    if len <= root_bits || (rev & ((1 << root_bits) - 1)) as usize != prefix {
                        continue;
                    }
                    let entry = (u32::from(sym) << 5) | len;
                    let sub_rev = (rev >> root_bits) as usize;
                    let mut idx = sub_rev;
                    while idx < 1 << sub_bits {
                        table[base as usize + idx] = entry;
                        idx += 1 << (len - root_bits);
                    }
                }
            }
        }

        Ok(Self { table, root_bits })
    }

    /// Decodes one symbol against the zero-padded stream tail.
    ///
    /// `Truncated` when the matched code is longer than the remaining
    /// stream; `Corrupt` when no code matches (degenerate tables only —
    /// complete codes match every pattern).
    #[inline]
    fn decode(&self, src: &mut BitSource<'_>) -> Result<usize, FlateError> {
        src.refill();
        self.decode_prefilled(src)
    }

    /// As [`Decoder::decode`] but without refilling; the caller must
    /// guarantee a refill happened within the last 41 consumed bits
    /// (56-bit reservoir minus the 15-bit worst-case code).
    #[inline]
    fn decode_prefilled(&self, src: &mut BitSource<'_>) -> Result<usize, FlateError> {
        // At end of input the upper reservoir bits are zero, so short
        // tails peek as zero-padded.
        let mut e = self.table[(src.bits & ((1 << self.root_bits) - 1)) as usize];
        if e & LINK != 0 {
            let sub_bits = e & 0x1F;
            let base = (e & !LINK) >> 5;
            let sub_idx = (src.bits >> self.root_bits) & ((1 << sub_bits) - 1);
            e = self.table[(base + sub_idx as u32) as usize];
        }
        if e == 0 {
            return Err(FlateError::Corrupt("invalid Huffman code".into()));
        }
        let len = e & 0x1F;
        if len > src.count {
            return Err(FlateError::Truncated);
        }
        src.consume(len);
        Ok((e >> 5) as usize)
    }
}

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns [`FlateError::Truncated`] or [`FlateError::Corrupt`] on
/// malformed input.
///
/// # Examples
///
/// ```
/// use codecomp_flate::{deflate_compress, inflate, CompressionLevel};
///
/// let packed = deflate_compress(b"hello hello hello", CompressionLevel::Fast);
/// assert_eq!(inflate(&packed)?, b"hello hello hello");
/// # Ok::<(), codecomp_flate::FlateError>(())
/// ```
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, FlateError> {
    inflate_with_limit(data, MAX_OUTPUT)
}

/// Default output ceiling for [`inflate`]: far beyond any legitimate
/// payload in this system, small enough to stop a decompression bomb
/// from exhausting memory. Mirrors `DecodeLimits::default()` — the
/// per-call budget is the enforcement mechanism; this is only the
/// value the convenience entry point passes it.
pub const MAX_OUTPUT: usize = codecomp_core::limits::DEFAULT_MAX_OUTPUT_BYTES as usize;

/// Decompresses a raw DEFLATE stream, refusing to produce more than
/// `max_output` bytes.
///
/// # Errors
///
/// [`FlateError::LimitExceeded`] once the output would pass
/// `max_output`; otherwise as [`inflate`].
pub fn inflate_with_limit(data: &[u8], max_output: usize) -> Result<Vec<u8>, FlateError> {
    inflate_governed(data, max_output, None)
}

/// Budget-governed [`inflate`]: the output ceiling comes from the
/// budget's `max_output_bytes`, and decode fuel is charged per block —
/// one unit per block plus one per output byte it produced — so total
/// spend for a given payload is deterministic.
///
/// # Errors
///
/// [`FlateError::LimitExceeded`] when the output ceiling or the fuel
/// meter trips; otherwise as [`inflate`].
pub fn inflate_budgeted(
    data: &[u8],
    budget: &codecomp_core::Budget,
) -> Result<Vec<u8>, FlateError> {
    let max_output = usize::try_from(budget.limits().max_output_bytes).unwrap_or(usize::MAX);
    let out = inflate_governed(data, max_output, Some(budget))?;
    // Record the high-water mark (cannot trip: len ≤ max_output).
    budget.check_output_bytes(out.len() as u64)?;
    Ok(out)
}

/// Hot-loop-local decode statistics: plain integers bumped inside
/// [`inflate_block`] (no atomics, no name lookups) and flushed to the
/// telemetry registry once per [`inflate_governed`] call. The match-
/// length histogram is only populated when a collector is installed;
/// the two counters are cheap enough to maintain unconditionally.
#[derive(Default)]
struct InflateStats {
    enabled: bool,
    literals: u64,
    matches: u64,
    stored_bytes: u64,
    match_len: codecomp_core::telemetry::LocalHistogram,
}

impl InflateStats {
    fn flush(&self, output_bytes: u64) {
        if !self.enabled {
            return;
        }
        use codecomp_core::telemetry as t;
        t::counter_add("flate.inflate.calls", 1);
        t::counter_add("flate.inflate.literals", self.literals);
        t::counter_add("flate.inflate.matches", self.matches);
        t::counter_add("flate.inflate.stored_bytes", self.stored_bytes);
        t::counter_add("flate.inflate.output_bytes", output_bytes);
        t::histogram_merge("flate.inflate.match_len", &self.match_len);
    }
}

fn inflate_governed(
    data: &[u8],
    max_output: usize,
    budget: Option<&codecomp_core::Budget>,
) -> Result<Vec<u8>, FlateError> {
    let _stage = codecomp_core::telemetry::stage!("flate.inflate.blocks");
    let mut r = BitSource::new(data);
    let mut out = Vec::new();
    let mut stats = InflateStats {
        enabled: codecomp_core::telemetry::enabled(),
        ..InflateStats::default()
    };
    loop {
        let block_start = out.len();
        let bfinal = r.read_bits(1)? == 1;
        let btype = r.read_bits(2)?;
        match btype {
            0b00 => {
                inflate_stored(&mut r, &mut out, max_output)?;
                stats.stored_bytes += (out.len() - block_start) as u64;
            }
            0b01 => {
                let (lit, dist) = fixed_tables()?;
                inflate_block(&mut r, lit, dist, &mut out, max_output, &mut stats)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out, max_output, &mut stats)?;
            }
            _ => {
                return Err(FlateError::Corrupt("reserved block type 11".into()));
            }
        }
        if let Some(b) = budget {
            // Charged after the block so the hot loop stays free of
            // atomics; the batch total is exact and reproducible.
            b.charge_fuel(1 + (out.len() - block_start) as u64)?;
        }
        if bfinal {
            stats.flush(out.len() as u64);
            return Ok(out);
        }
    }
}

fn inflate_stored(
    r: &mut BitSource<'_>,
    out: &mut Vec<u8>,
    max_output: usize,
) -> Result<(), FlateError> {
    r.align_to_byte();
    let len = r.read_bits(16)? as u16;
    let nlen = r.read_bits(16)? as u16;
    if len != !nlen {
        return Err(FlateError::Corrupt("stored block LEN/NLEN mismatch".into()));
    }
    if usize::from(len) > max_output.saturating_sub(out.len()) {
        return Err(FlateError::LimitExceeded {
            limit: max_output as u64,
        });
    }
    let bytes = r.read_aligned_bytes(usize::from(len))?;
    out.extend_from_slice(bytes);
    Ok(())
}

/// The fixed-code tables of RFC 1951 §3.2.6, built once per process.
///
/// Every `btype=01` block uses the same two trees, so rebuilding them
/// per block was pure decode overhead.
fn fixed_tables() -> Result<&'static (Decoder, Decoder), FlateError> {
    static FIXED: std::sync::OnceLock<(Decoder, Decoder)> = std::sync::OnceLock::new();
    if let Some(t) = FIXED.get() {
        return Ok(t);
    }
    // The fixed lengths are spec constants, so these builds cannot fail
    // in a correct build; keeping the error path avoids a panic source.
    let lit = Decoder::from_lengths(&fixed_litlen_lengths(), Completeness::Exact)?;
    let dist = Decoder::from_lengths(&fixed_dist_lengths(), Completeness::Exact)?;
    Ok(FIXED.get_or_init(|| (lit, dist)))
}

/// Does nothing: inflate builds its tables per block and keeps no cache
/// to report on. Kept only because perfbench (`perfbench/src/lifecycle.rs`)
/// still calls it.
pub fn flush_table_cache_stats() {}

#[allow(clippy::same_item_push)] // RLE expansion genuinely repeats values
fn read_dynamic_tables(r: &mut BitSource<'_>) -> Result<(Decoder, Decoder), FlateError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    let mut clc_lengths = [0u8; 19];
    for &o in CLC_ORDER.iter().take(hclen) {
        clc_lengths[o] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::from_lengths(&clc_lengths, Completeness::Exact)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let Some(&last) = lengths.last() else {
                    return Err(FlateError::Corrupt("repeat with no previous length".into()));
                };
                let n = r.read_bits(2)? + 3;
                for _ in 0..n {
                    lengths.push(last);
                }
            }
            17 => {
                let n = r.read_bits(3)? + 3;
                for _ in 0..n {
                    lengths.push(0);
                }
            }
            18 => {
                let n = r.read_bits(7)? + 11;
                for _ in 0..n {
                    lengths.push(0);
                }
            }
            _ => {
                return Err(FlateError::Corrupt("invalid code-length symbol".into()));
            }
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(FlateError::Corrupt("code length overrun".into()));
    }
    let lit = Decoder::from_lengths(&lengths[..hlit], Completeness::Exact)?;
    // RFC 1951 §3.2.7: a block with no matches may carry one distance
    // code (or none); anything else must be complete.
    let dist = Decoder::from_lengths(&lengths[hlit..], Completeness::ExactOrDegenerate)?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitSource<'_>,
    lit: &Decoder,
    dist: &Decoder,
    out: &mut Vec<u8>,
    max_output: usize,
    stats: &mut InflateStats,
) -> Result<(), FlateError> {
    loop {
        // One refill covers the longest token: 15-bit litlen + 5 extra
        // + 15-bit distance + 13 extra = 48 ≤ 56 reservoir bits.
        r.refill();
        let sym = lit.decode_prefilled(r)?;
        match sym {
            0..=255 => {
                if out.len() >= max_output {
                    return Err(FlateError::LimitExceeded {
                        limit: max_output as u64,
                    });
                }
                out.push(sym as u8);
                stats.literals += 1;
            }
            256 => {
                return Ok(());
            }
            257..=285 => {
                let (base, extra) = LENGTH_TABLE[sym - 257];
                let len = usize::from(base) + r.take_bits(u32::from(extra))? as usize;
                stats.matches += 1;
                if stats.enabled {
                    stats.match_len.record(len as u64);
                }
                let dsym = dist.decode_prefilled(r)?;
                if dsym >= 30 {
                    return Err(FlateError::Corrupt("invalid distance code".into()));
                }
                let (dbase, dextra) = DIST_TABLE[dsym];
                let d = usize::from(dbase) + r.take_bits(u32::from(dextra))? as usize;
                if d == 0 || d > out.len() {
                    return Err(FlateError::Corrupt("distance beyond output start".into()));
                }
                if len > max_output.saturating_sub(out.len()) {
                    return Err(FlateError::LimitExceeded {
                        limit: max_output as u64,
                    });
                }
                let start = out.len() - d;
                if d >= len {
                    // Non-overlapping copy: one memmove.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping (d < len): bytes must appear one at a
                    // time, each copy reading what the previous wrote.
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
            _ => {
                return Err(FlateError::Corrupt("invalid literal/length symbol".into()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate_compress, deflate_compress_fixed, CompressionLevel};
    use codecomp_coding::huffman::canonical_codes;

    #[test]
    fn inflate_rejects_empty() {
        assert_eq!(inflate(&[]), Err(FlateError::Truncated));
    }

    #[test]
    fn from_lengths_rejects_oversubscribed() {
        // Three codes of length 1: Kraft sum 3/2 > 1 (RFC 1951 §3.2.7).
        for c in [Completeness::Exact, Completeness::ExactOrDegenerate] {
            assert!(Decoder::from_lengths(&[1, 1, 1], c).is_err());
        }
    }

    #[test]
    fn from_lengths_rejects_undersubscribed() {
        // Two codes of length 2: Kraft sum 1/2 < 1 leaves bit patterns
        // that decode to nothing.
        for c in [Completeness::Exact, Completeness::ExactOrDegenerate] {
            assert!(Decoder::from_lengths(&[2, 2], c).is_err());
        }
    }

    #[test]
    fn from_lengths_degenerate_single_code() {
        // One 1-bit code: incomplete, but legal for DEFLATE distance
        // tables — and only there.
        assert!(Decoder::from_lengths(&[1, 0], Completeness::Exact).is_err());
        assert!(Decoder::from_lengths(&[1, 0], Completeness::ExactOrDegenerate).is_ok());
        // The all-unused table is likewise degenerate-only.
        assert!(Decoder::from_lengths(&[0, 0], Completeness::Exact).is_err());
        assert!(Decoder::from_lengths(&[0, 0], Completeness::ExactOrDegenerate).is_ok());
    }

    #[test]
    fn from_lengths_accepts_complete_sets() {
        assert!(Decoder::from_lengths(&[1, 1], Completeness::Exact).is_ok());
        assert!(Decoder::from_lengths(&[1, 2, 2], Completeness::Exact).is_ok());
        assert!(Decoder::from_lengths(&[2, 2, 2, 2], Completeness::Exact).is_ok());
    }

    #[test]
    fn table_decodes_every_symbol_of_a_long_code() {
        // A complete code whose lengths span the root/subtable split
        // (root is 10 bits): lengths 1,2,…,14,15,15 have Kraft sum
        // exactly 1 and exercise both probe levels.
        let lengths: Vec<u8> = (1u8..=14).chain([15, 15]).collect();
        let dec = Decoder::from_lengths(&lengths, Completeness::Exact).unwrap();
        // Encode each symbol with the writer and decode it back.
        use codecomp_coding::bits::LsbBitWriter;
        let codes = canonical_codes(&lengths).unwrap();
        for (sym, (&code, &len)) in codes.iter().zip(&lengths).enumerate() {
            let mut w = LsbBitWriter::new();
            w.write_huffman_code(code, len);
            let bytes = w.finish();
            let mut src = BitSource::new(&bytes);
            assert_eq!(dec.decode(&mut src).unwrap(), sym, "symbol {sym}");
        }
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![0u8; 4096];
        let packed = deflate_compress(&data, CompressionLevel::Best);
        assert_eq!(inflate_with_limit(&packed, 4096).unwrap(), data);
        assert!(matches!(
            inflate_with_limit(&packed, 100),
            Err(FlateError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn inflate_rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        assert!(matches!(
            inflate(&[0b0000_0111]),
            Err(FlateError::Corrupt(_))
        ));
    }

    #[test]
    fn inflate_rejects_bad_stored_nlen() {
        // BFINAL=1, BTYPE=00, then LEN=1, NLEN=0 (mismatch).
        let bytes = [0b0000_0001, 0x01, 0x00, 0x00, 0x00, 0xAA];
        assert!(matches!(inflate(&bytes), Err(FlateError::Corrupt(_))));
    }

    #[test]
    fn stored_block_roundtrip_handmade() {
        // BFINAL=1 BTYPE=00, LEN=3, NLEN=!3, "abc".
        let bytes = [0x01, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(inflate(&bytes).unwrap(), b"abc");
    }

    #[test]
    fn fixed_block_roundtrip() {
        // Compress something small enough that fixed coding wins.
        let data = b"abc";
        let packed = deflate_compress(data, CompressionLevel::Best);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn forced_fixed_block_roundtrip() {
        let data = b"overlapping matches overlap overlappingly".repeat(20);
        let packed = deflate_compress_fixed(&data, CompressionLevel::Best);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn truncated_stream_detected() {
        let data = b"hello world hello world hello world".repeat(10);
        let packed = deflate_compress(&data, CompressionLevel::Best);
        for cut in [1, packed.len() / 2, packed.len() - 1] {
            let r = inflate(&packed[..cut]);
            assert!(r.is_err(), "truncation at {cut} not detected");
        }
    }

    #[test]
    fn distance_before_start_rejected() {
        // Fixed block: a match with distance 1 as the very first symbol.
        use codecomp_coding::bits::LsbBitWriter;
        let lit_lengths = fixed_litlen_lengths();
        let lit_codes = canonical_codes(&lit_lengths).unwrap();
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // length code 257 (len 3).
        w.write_huffman_code(lit_codes[257], lit_lengths[257]);
        // distance code 0 (dist 1), 5 bits.
        w.write_huffman_code(0, 5);
        let bytes = w.finish();
        assert!(matches!(inflate(&bytes), Err(FlateError::Corrupt(_))));
    }

    #[test]
    fn bit_source_aligned_reads() {
        let data = [0b101u8, 0xAA, 0xBB, 0xCC];
        let mut src = BitSource::new(&data);
        assert_eq!(src.read_bits(3).unwrap(), 0b101);
        assert_eq!(src.read_aligned_bytes(2).unwrap(), &[0xAA, 0xBB]);
        assert_eq!(src.read_bits(8).unwrap(), 0xCC);
        assert_eq!(src.read_bits(1), Err(FlateError::Truncated));
    }
}
