//! Canonical, length-limited Huffman coding.
//!
//! The wire format Huffman-codes move-to-front indices (paper §3 step 4),
//! and DEFLATE needs length-limited canonical codes for its literal,
//! distance, and code-length alphabets. Both uses are served here:
//! [`build_code_lengths`] computes optimal code lengths under a maximum
//! length (heap-based Huffman with Kraft-sum repair), canonical codes are
//! assigned in the standard (length, symbol-order) fashion, and
//! [`HuffmanDecoder`] decodes with a canonical first-code table rather
//! than a pointer tree.

use crate::bits::{BitReader, BitWriter};
use crate::CodingError;
use codecomp_core::cov_hit;
use std::collections::BinaryHeap;

/// Computes optimal code lengths for `freqs`, limited to `max_len` bits.
///
/// Symbols with zero frequency receive length 0 (no code). If exactly one
/// symbol has nonzero frequency it receives length 1, matching DEFLATE's
/// convention that a code always consumes at least one bit.
///
/// The construction is ordinary heap-based Huffman; if the resulting tree
/// exceeds `max_len`, lengths are clamped and the Kraft sum repaired by
/// the standard "demote the deepest leaves" adjustment, which preserves
/// prefix-freeness at a negligible cost in optimality.
///
/// # Errors
///
/// Returns [`CodingError::LimitTooSmall`] when `2^max_len` is smaller
/// than the number of used symbols.
#[allow(clippy::needless_range_loop)] // index walks two parallel arrays
pub fn build_code_lengths(freqs: &[u64], max_len: u8) -> Result<Vec<u8>, CodingError> {
    let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match used.len() {
        0 => return Ok(lengths),
        1 => {
            lengths[used[0]] = 1;
            return Ok(lengths);
        }
        n => {
            // A limit of 64+ bits can always host the alphabet.
            if (max_len as u32) < 64 && (1u64 << max_len) < n as u64 {
                return Err(CodingError::LimitTooSmall {
                    limit: max_len,
                    symbols: n,
                });
            }
        }
    }

    // Heap node: (weight, tie-break id, node index).
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: u32,
        index: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    // parent[i] for internal tree; leaves first, internals appended.
    let mut parent: Vec<usize> = vec![usize::MAX; used.len()];
    let mut heap = BinaryHeap::new();
    for (i, &sym) in used.iter().enumerate() {
        heap.push(Node {
            weight: freqs[sym],
            id: i as u32,
            index: i,
        });
    }
    let mut next_id = used.len() as u32;
    while heap.len() > 1 {
        let a = heap.pop().expect("heap has >1 element");
        let b = heap.pop().expect("heap has >1 element");
        let idx = parent.len();
        parent.push(usize::MAX);
        parent[a.index] = idx;
        parent[b.index] = idx;
        heap.push(Node {
            weight: a.weight.saturating_add(b.weight),
            id: next_id,
            index: idx,
        });
        next_id += 1;
    }

    // Depth of each leaf = chain length to the root.
    let mut depth = vec![0u8; used.len()];
    for i in 0..used.len() {
        let mut d = 0u16;
        let mut n = i;
        while parent[n] != usize::MAX {
            n = parent[n];
            d += 1;
        }
        depth[i] = d.min(255) as u8;
    }

    // Clamp to max_len and repair the Kraft sum.
    let mut counts = vec![0u64; max_len as usize + 1];
    for d in depth.iter_mut() {
        if *d > max_len {
            *d = max_len;
        }
        counts[*d as usize] += 1;
    }
    // Kraft sum measured in units of 2^-max_len.
    let unit = |len: u8| 1u64 << (max_len - len);
    let mut kraft: u64 = depth.iter().map(|&d| unit(d)).sum();
    let budget = 1u64 << max_len;
    // Over-subscribed: push some max-length leaves' siblings deeper by
    // shortening... the standard fix: repeatedly find a leaf at depth
    // < max_len with the greatest depth, and move one max-depth leaf to
    // depth+1 by pairing. Equivalent repair: while kraft > budget, take a
    // leaf with the smallest unit>1 contribution... Implement the classic
    // zlib-style repair on the counts histogram.
    if kraft > budget {
        // Demote: move nodes from max_len-1.. upward until it fits.
        while kraft > budget {
            // Find the deepest non-max level with at least one code and
            // demote one code from it to max (reduces kraft).
            let mut level = max_len - 1;
            while counts[level as usize] == 0 {
                level -= 1;
            }
            counts[level as usize] -= 1;
            counts[level as usize + 1] += 1;
            kraft -= unit(level) - unit(level + 1);
        }
        // Re-assign depths from the histogram: longest codes to the
        // rarest symbols. Sort used leaves by frequency descending.
        let mut order: Vec<usize> = (0..used.len()).collect();
        order.sort_by(|&a, &b| {
            freqs[used[b]]
                .cmp(&freqs[used[a]])
                .then(used[a].cmp(&used[b]))
        });
        let mut assign = Vec::with_capacity(used.len());
        for (len, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                assign.push(len as u8);
            }
        }
        assign.sort_unstable();
        for (leaf_rank, &leaf) in order.iter().enumerate() {
            depth[leaf] = assign[leaf_rank];
        }
    }

    // The demote loop can overshoot and leave the code incomplete when
    // the only demotable level sits well above max_len. Decoders reject
    // incomplete codes, so fall back to a flat complete code: with
    // L = ceil(log2 n), give 2^L - n symbols length L-1 and the rest
    // length L. Always complete, always within max_len.
    let kraft_now: u64 = depth.iter().map(|&d| unit(d)).sum();
    if kraft_now != budget {
        let n = used.len() as u64;
        let flat_len = (64 - (n - 1).leading_zeros()) as u8;
        let short = (1u64 << flat_len) - n;
        let mut order: Vec<usize> = (0..used.len()).collect();
        order.sort_by(|&a, &b| {
            freqs[used[b]]
                .cmp(&freqs[used[a]])
                .then(used[a].cmp(&used[b]))
        });
        for (rank, &leaf) in order.iter().enumerate() {
            depth[leaf] = if (rank as u64) < short {
                flat_len - 1
            } else {
                flat_len
            };
        }
    }

    for (i, &sym) in used.iter().enumerate() {
        lengths[sym] = depth[i];
    }
    Ok(lengths)
}

/// Assigns canonical codes for a code-length vector.
///
/// Returns `codes[sym]` valid when `lengths[sym] > 0`. Canonical order:
/// shorter codes first, and within a length, smaller symbols first.
///
/// # Errors
///
/// Returns [`CodingError::InvalidCodeTable`] if the lengths oversubscribe
/// the code space.
#[allow(clippy::needless_range_loop)] // Kraft accumulation is index-keyed
pub fn canonical_codes(lengths: &[u8]) -> Result<Vec<u32>, CodingError> {
    let max_len = lengths.iter().copied().max().unwrap_or(0);
    if max_len == 0 {
        return Ok(vec![0; lengths.len()]);
    }
    if max_len > 32 {
        return Err(CodingError::InvalidCodeTable(
            "code length exceeds 32".into(),
        ));
    }
    let mut count = vec![0u32; max_len as usize + 1];
    for &l in lengths {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut code = 0u64;
    let mut next = vec![0u64; max_len as usize + 1];
    for len in 1..=max_len as usize {
        code = (code + u64::from(count[len - 1])) << 1;
        next[len] = code;
    }
    // Kraft check: the last code of the longest length must fit.
    let mut kraft = 0u64;
    for len in 1..=max_len as usize {
        kraft += u64::from(count[len]) << (max_len as usize - len);
    }
    if kraft > 1u64 << max_len {
        return Err(CodingError::InvalidCodeTable(
            "oversubscribed lengths".into(),
        ));
    }
    let mut codes = vec![0u32; lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[sym] = next[l as usize] as u32;
            next[l as usize] += 1;
        }
    }
    Ok(codes)
}

/// A canonical Huffman encoder over symbols `0..alphabet`.
#[derive(Debug, Clone)]
pub struct HuffmanEncoder {
    lengths: Vec<u8>,
    codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Builds an encoder from symbol frequencies with codes at most
    /// `max_len` bits.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`build_code_lengths`].
    pub fn from_frequencies(freqs: &[u64], max_len: u8) -> Result<Self, CodingError> {
        let lengths = build_code_lengths(freqs, max_len)?;
        Self::from_lengths(&lengths)
    }

    /// Builds an encoder from explicit code lengths.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`canonical_codes`].
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodingError> {
        let codes = canonical_codes(lengths)?;
        Ok(Self {
            lengths: lengths.to_vec(),
            codes,
        })
    }

    /// The code length per symbol (0 = symbol has no code).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The canonical code per symbol.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Encoded length in bits of `symbol`, if it has a code.
    pub fn bit_len(&self, symbol: usize) -> Option<u8> {
        match self.lengths.get(symbol) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Appends the code for `symbol` to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SymbolOutOfRange`] if `symbol` has no code.
    pub fn encode_into(&self, symbol: usize, w: &mut BitWriter) -> Result<(), CodingError> {
        match self.bit_len(symbol) {
            Some(len) => {
                w.write_bits(u64::from(self.codes[symbol]), len);
                Ok(())
            }
            None => Err(CodingError::SymbolOutOfRange {
                symbol,
                alphabet: self.lengths.len(),
            }),
        }
    }

    /// Encodes a symbol sequence into a fresh MSB-first bit buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::SymbolOutOfRange`] for any symbol lacking a code.
    pub fn encode_symbols<I>(&self, symbols: I) -> Result<Vec<u8>, CodingError>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut w = BitWriter::new();
        let mut count: u64 = 0;
        for s in symbols {
            self.encode_into(s, &mut w)?;
            count += 1;
        }
        codecomp_core::telemetry::counter_add("coding.huffman.bits_emitted", w.bit_len());
        codecomp_core::telemetry::counter_add("coding.huffman.symbols", count);
        Ok(w.finish())
    }
}

/// Bits of the root lookup in a [`DecodeTable`]: codes up to this long
/// resolve in a single probe.
const ROOT_BITS: u32 = 10;
/// Table-entry flag marking a link to an overflow subtable.
const LINK: u32 = 1 << 31;
/// Symbols must fit the 26 bits an entry leaves after the link flag and
/// the 5-bit length field; larger alphabets fall back to the bit-walk.
const MAX_TABLE_SYMBOL: usize = 1 << 26;

/// Two-level lookup table over MSB-first canonical Huffman codes — the
/// same root-table + link-subtable technique as `flate::inflate`'s
/// DEFLATE decoder, transposed to the wire format's bit order (codes
/// are left-aligned in the peek window, so a root probe reads the top
/// [`ROOT_BITS`] of the reservoir and each code `c` of length `l` fills
/// the contiguous index range `c·2^(root-l) .. (c+1)·2^(root-l)`).
///
/// Entry layout (`u32`): `0` = no code reaches this slot;
/// direct = `symbol << 5 | len`; link = [`LINK`]` | base << 5 | sub_bits`
/// where `base` indexes the subtable and the next `sub_bits` bits after
/// the root index select within it.
#[derive(Debug, Clone)]
struct DecodeTable {
    entries: Vec<u32>,
    root_bits: u32,
}

/// A canonical Huffman decoder driven by first-code/first-index tables.
#[derive(Debug, Clone)]
pub struct HuffmanDecoder {
    max_len: u8,
    /// `first_code[len]`: canonical code value of the first code of `len` bits.
    first_code: Vec<u64>,
    /// `first_index[len]`: index into `sorted_symbols` of that first code.
    first_index: Vec<u32>,
    count: Vec<u32>,
    sorted_symbols: Vec<u32>,
    /// Fast path for [`Self::decode_exact`]; `None` when the code shape
    /// is outside the table's envelope (see [`DecodeTable::build`]).
    table: Option<DecodeTable>,
}

impl DecodeTable {
    /// Builds the table from the decoder's canonical description, or
    /// `None` when the code is outside the table envelope: empty codes
    /// and codes longer than 15 bits (the bit-walk handles those; 15
    /// covers every code this system emits) or absurdly large symbol
    /// values that would not fit an entry.
    fn build(
        max_len: u8,
        count: &[u32],
        first_code: &[u64],
        first_index: &[u32],
        sorted_symbols: &[u32],
    ) -> Option<Self> {
        if max_len == 0 || max_len > 15 {
            return None;
        }
        if sorted_symbols.iter().any(|&s| s as usize >= MAX_TABLE_SYMBOL) {
            return None;
        }
        let max_len = u32::from(max_len);
        let root_bits = ROOT_BITS.min(max_len);
        let mut entries = vec![0u32; 1 << root_bits];

        // Pass 1: direct entries, and the deepest code length under
        // each overflowing root prefix (which sets its subtable width).
        // BTreeMap keeps subtable layout deterministic across builds.
        let mut sub_max: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let for_each_code = |f: &mut dyn FnMut(u32, u32, u32)| {
            for len in 1..=max_len {
                let n = count[len as usize];
                for k in 0..n {
                    let code = first_code[len as usize] as u32 + k;
                    let sym = sorted_symbols[(first_index[len as usize] + k) as usize];
                    f(code, len, sym);
                }
            }
        };
        for_each_code(&mut |code, len, sym| {
            if len <= root_bits {
                let lo = (code as usize) << (root_bits - len);
                let hi = lo + (1usize << (root_bits - len));
                for e in &mut entries[lo..hi] {
                    *e = (sym << 5) | len;
                }
            } else {
                let prefix = code >> (len - root_bits);
                let deep = sub_max.entry(prefix).or_insert(0);
                *deep = (*deep).max(len - root_bits);
            }
        });

        // Pass 2: allocate subtables and point their root slots at them.
        for (&prefix, &sub_bits) in &sub_max {
            let base = entries.len() as u32;
            entries[prefix as usize] = LINK | (base << 5) | sub_bits;
            entries.extend(std::iter::repeat_n(0u32, 1 << sub_bits));
        }
        for_each_code(&mut |code, len, sym| {
            if len > root_bits {
                let prefix = code >> (len - root_bits);
                let link = entries[prefix as usize];
                let sub_bits = link & 0x1F;
                let base = ((link & !LINK) >> 5) as usize;
                let low = code & ((1 << (len - root_bits)) - 1);
                let pad = sub_bits - (len - root_bits);
                let lo = base + ((low as usize) << pad);
                let hi = lo + (1usize << pad);
                for e in &mut entries[lo..hi] {
                    *e = (sym << 5) | len;
                }
            }
        });
        Some(Self { entries, root_bits })
    }
}

/// A 64-bit MSB-first bit reservoir over a byte slice: the next unread
/// bit of the stream sits in bit 63 of `bits`. Bits past the end of the
/// stream read as zero, which [`HuffmanDecoder::decode_exact`] relies
/// on to keep truncation errors identical to the bit-walk's.
struct MsbReservoir<'a> {
    data: &'a [u8],
    /// Next byte not yet (fully) loaded into `bits`.
    next: usize,
    /// Left-aligned reservoir; top `count` bits are valid.
    bits: u64,
    count: u32,
}

impl<'a> MsbReservoir<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            next: 0,
            bits: 0,
            count: 0,
        }
    }

    /// Tops the reservoir up to ≥ 56 valid bits (all remaining bits
    /// near the end of the stream). The word-wide path may leave up to
    /// 7 loaded-but-uncounted lookahead bits after the counted region;
    /// re-ORing them later is idempotent because they re-load from the
    /// same bytes.
    #[inline]
    fn refill(&mut self) {
        if self.next + 8 <= self.data.len() {
            let chunk = u64::from_be_bytes(
                self.data[self.next..self.next + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            self.bits |= chunk >> self.count;
            self.next += ((63 - self.count) >> 3) as usize;
            self.count |= 56;
        } else {
            while self.count <= 56 && self.next < self.data.len() {
                self.bits |= u64::from(self.data[self.next]) << (56 - self.count);
                self.next += 1;
                self.count += 8;
            }
        }
    }

    /// Bits of real stream left (valid reservoir + unloaded bytes).
    #[inline]
    fn remaining_bits(&self) -> u64 {
        u64::from(self.count) + 8 * (self.data.len() - self.next) as u64
    }

    #[inline]
    fn consume(&mut self, n: u32) {
        self.bits <<= n;
        self.count -= n;
    }
}

impl HuffmanDecoder {
    /// Builds a decoder from the same code lengths used by the encoder.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidCodeTable`] for oversubscribed lengths.
    #[allow(clippy::needless_range_loop)] // Kraft accumulation is index-keyed
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CodingError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > 32 {
            cov_hit!("huffman.tables.len_over_32");
            return Err(CodingError::InvalidCodeTable(
                "code length exceeds 32".into(),
            ));
        }
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut kraft = 0u64;
        for len in 1..=max_len as usize {
            kraft += u64::from(count[len]) << (max_len as usize - len);
        }
        if max_len > 0 && kraft > 1u64 << max_len {
            cov_hit!("huffman.tables.oversubscribed");
            return Err(CodingError::InvalidCodeTable(
                "oversubscribed lengths".into(),
            ));
        }
        // Undersubscribed sets leave bit patterns that decode to nothing;
        // reject them so decode failures surface at table-build time. The
        // one legitimate incomplete shape is a degenerate single-code
        // table (one symbol, one bit), which semi-static coding of a
        // single-symbol stream produces.
        let used: u32 = count.iter().skip(1).sum();
        if max_len > 0 && kraft < 1u64 << max_len && used > 1 {
            cov_hit!("huffman.tables.undersubscribed");
            return Err(CodingError::InvalidCodeTable(
                "undersubscribed (incomplete) lengths".into(),
            ));
        }
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0u32; max_len as usize + 2];
        let mut code = 0u64;
        let mut index = 0u32;
        for len in 1..=max_len as usize {
            code = (code + u64::from(count[len - 1])) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        // Symbols sorted by (length, symbol).
        let mut sorted_symbols = Vec::with_capacity(index as usize);
        for len in 1..=max_len {
            for (sym, &l) in lengths.iter().enumerate() {
                if l == len {
                    sorted_symbols.push(sym as u32);
                }
            }
        }
        let table = DecodeTable::build(max_len, &count, &first_code, &first_index, &sorted_symbols);
        Ok(Self {
            max_len,
            first_code,
            first_index,
            count,
            sorted_symbols,
            table,
        })
    }

    /// Decodes one symbol from `r`.
    ///
    /// # Errors
    ///
    /// [`CodingError::UnexpectedEof`] if the stream ends mid-code;
    /// [`CodingError::InvalidCode`] if no symbol matches.
    pub fn decode_one(&self, r: &mut BitReader<'_>) -> Result<usize, CodingError> {
        let mut code = 0u64;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | u64::from(r.read_bit()?);
            let c = u64::from(self.count[len]);
            if c > 0 && code >= self.first_code[len] && code < self.first_code[len] + c {
                let idx = self.first_index[len] as u64 + (code - self.first_code[len]);
                return Ok(self.sorted_symbols[idx as usize] as usize);
            }
        }
        Err(CodingError::InvalidCode)
    }

    /// Decodes exactly `n` symbols from a byte buffer.
    ///
    /// Uses the two-level [`DecodeTable`] when the code fits its
    /// envelope (one or two probes per symbol against a 64-bit
    /// reservoir), falling back to the bit-walk otherwise. Both paths
    /// report identical errors on identical inputs.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::decode_one`] errors.
    pub fn decode_exact(&self, bytes: &[u8], n: usize) -> Result<Vec<usize>, CodingError> {
        let Some(table) = &self.table else {
            cov_hit!("huffman.decode.bit_walk");
            let mut r = BitReader::new(bytes);
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(self.decode_one(&mut r)?);
            }
            return Ok(out);
        };
        let mut src = MsbReservoir::new(bytes);
        let mut out = Vec::with_capacity(n);
        let max_len = u64::from(self.max_len);
        for _ in 0..n {
            src.refill();
            let idx = (src.bits >> (64 - table.root_bits)) as usize;
            let mut entry = table.entries[idx];
            if entry & LINK != 0 {
                let sub_bits = entry & 0x1F;
                let base = ((entry & !LINK) >> 5) as usize;
                let low = ((src.bits << table.root_bits) >> (64 - sub_bits)) as usize;
                entry = table.entries[base + low];
            }
            if entry == 0 {
                // No code matches any extension of the peeked bits. The
                // bit-walk would keep reading: it hits end-of-stream
                // first unless a full max_len bits remain.
                return Err(if src.remaining_bits() >= max_len {
                    cov_hit!("huffman.decode.invalid_code");
                    CodingError::InvalidCode
                } else {
                    cov_hit!("huffman.decode.eof_in_code");
                    CodingError::UnexpectedEof
                });
            }
            let len = entry & 0x1F;
            if len > src.count {
                // Matched only thanks to zero padding past the end.
                cov_hit!("huffman.decode.padded_match");
                return Err(CodingError::UnexpectedEof);
            }
            src.consume(len);
            out.push((entry >> 5) as usize);
        }
        Ok(out)
    }
}

/// Does nothing: decoders are built per stream and no cache is left to
/// report on. Kept only because perfbench (`perfbench/src/lifecycle.rs`)
/// still calls it.
pub fn flush_decoder_cache_stats() {}

/// Total encoded size in bits of `freqs` under an optimal `max_len`-limited code.
///
/// Convenience for compressors estimating stream sizes without encoding.
///
/// # Errors
///
/// Propagates errors from [`build_code_lengths`].
pub fn encoded_size_bits(freqs: &[u64], max_len: u8) -> Result<u64, CodingError> {
    let lengths = build_code_lengths(freqs, max_len)?;
    Ok(freqs
        .iter()
        .zip(&lengths)
        .map(|(&f, &l)| f * u64::from(l))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[usize], alphabet: usize) {
        let mut freqs = vec![0u64; alphabet];
        for &s in data {
            freqs[s] += 1;
        }
        let enc = HuffmanEncoder::from_frequencies(&freqs, 15).unwrap();
        let bits = enc.encode_symbols(data.iter().copied()).unwrap();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        assert_eq!(dec.decode_exact(&bits, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[0, 1, 2, 0, 0, 1, 3, 0, 0, 0], 4);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[5; 100], 8);
    }

    #[test]
    fn roundtrip_uniform() {
        let data: Vec<usize> = (0..256).cycle().take(4096).collect();
        roundtrip(&data, 256);
    }

    #[test]
    fn empty_frequencies_yield_empty_code() {
        let lengths = build_code_lengths(&[0, 0, 0], 15).unwrap();
        assert_eq!(lengths, vec![0, 0, 0]);
    }

    #[test]
    fn skewed_distribution_gives_short_code_to_common_symbol() {
        let mut freqs = vec![1u64; 8];
        freqs[3] = 10_000;
        let lengths = build_code_lengths(&freqs, 15).unwrap();
        assert_eq!(
            *lengths.iter().filter(|&&l| l > 0).min().unwrap(),
            lengths[3]
        );
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let freqs: Vec<u64> = {
            let mut v = vec![1u64, 1];
            for i in 2..30 {
                let next = v[i - 1] + v[i - 2];
                v.push(next);
            }
            v
        };
        let lengths = build_code_lengths(&freqs, 10).unwrap();
        assert!(lengths.iter().all(|&l| l <= 10));
        // Still decodable.
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let data: Vec<usize> = (0..freqs.len()).collect();
        let bits = enc.encode_symbols(data.iter().copied()).unwrap();
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        assert_eq!(dec.decode_exact(&bits, data.len()).unwrap(), data);
    }

    #[test]
    fn limit_too_small_is_error() {
        let freqs = vec![1u64; 9];
        assert_eq!(
            build_code_lengths(&freqs, 3),
            Err(CodingError::LimitTooSmall {
                limit: 3,
                symbols: 9
            })
        );
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three codes of length 1 is impossible.
        assert!(matches!(
            HuffmanDecoder::from_lengths(&[1, 1, 1]),
            Err(CodingError::InvalidCodeTable(_))
        ));
        assert!(matches!(
            canonical_codes(&[1, 1, 1]),
            Err(CodingError::InvalidCodeTable(_))
        ));
    }

    #[test]
    fn canonical_codes_are_prefix_free_and_ordered() {
        let lengths = [2u8, 1, 3, 3];
        let codes = canonical_codes(&lengths).unwrap();
        // length-1 symbol gets 0; length-2 gets 10; length-3 get 110, 111.
        assert_eq!(codes[1], 0b0);
        assert_eq!(codes[0], 0b10);
        assert_eq!(codes[2], 0b110);
        assert_eq!(codes[3], 0b111);
    }

    #[test]
    fn encode_unknown_symbol_is_error() {
        let enc = HuffmanEncoder::from_frequencies(&[5, 5, 0], 15).unwrap();
        assert!(matches!(
            enc.encode_symbols([2usize]),
            Err(CodingError::SymbolOutOfRange { symbol: 2, .. })
        ));
    }

    #[test]
    fn encoded_size_matches_actual_encoding() {
        let data: Vec<usize> = b"the quick brown fox jumps over the lazy dog"
            .iter()
            .map(|&b| b as usize)
            .collect();
        let mut freqs = vec![0u64; 256];
        for &s in &data {
            freqs[s] += 1;
        }
        let bits = encoded_size_bits(&freqs, 15).unwrap();
        let enc = HuffmanEncoder::from_frequencies(&freqs, 15).unwrap();
        let buf = enc.encode_symbols(data.iter().copied()).unwrap();
        assert_eq!(buf.len() as u64, bits.div_ceil(8));
    }

    /// The pre-table decode path: one [`HuffmanDecoder::decode_one`]
    /// bit-walk per symbol. The oracle the table path must match.
    fn decode_walk(dec: &HuffmanDecoder, bytes: &[u8], n: usize) -> Result<Vec<usize>, CodingError> {
        let mut r = BitReader::new(bytes);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(dec.decode_one(&mut r)?);
        }
        Ok(out)
    }

    /// Deep, skewed lengths (up to the 15-bit limit) so the table needs
    /// link subtables. `1,2,…,14,15,15` is complete (Kraft sum exactly
    /// 1) and pushes five codes past the 10-bit root.
    fn deep_code_lengths() -> Vec<u8> {
        let mut lengths: Vec<u8> = (1..=15).collect();
        lengths.push(15);
        assert!(
            lengths.iter().any(|&l| l > ROOT_BITS as u8),
            "test premise: some codes must overflow the root table"
        );
        lengths
    }

    #[test]
    fn table_decode_matches_bit_walk_on_valid_streams() {
        let lengths = deep_code_lengths();
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        assert!(dec.table.is_some(), "15-bit code must take the table path");
        let mut state = 0xDEADBEEFu64;
        let symbols: Vec<usize> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                loop {
                    let s = (state >> 33) as usize % lengths.len();
                    if lengths[s] > 0 {
                        break s;
                    }
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            })
            .collect();
        let bits = enc.encode_symbols(symbols.iter().copied()).unwrap();
        assert_eq!(dec.decode_exact(&bits, symbols.len()).unwrap(), symbols);
        assert_eq!(
            dec.decode_exact(&bits, symbols.len()).unwrap(),
            decode_walk(&dec, &bits, symbols.len()).unwrap()
        );
    }

    #[test]
    fn table_decode_errors_match_bit_walk() {
        // Identical accept/reject behaviour on every truncation and on
        // corrupted bytes: same Ok values, same error variant.
        let lengths = deep_code_lengths();
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        let symbols: Vec<usize> = (0..200)
            .map(|i| {
                let used: Vec<usize> =
                    (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
                used[i % used.len()]
            })
            .collect();
        let bits = enc.encode_symbols(symbols.iter().copied()).unwrap();
        for cut in 0..bits.len() {
            assert_eq!(
                dec.decode_exact(&bits[..cut], symbols.len()),
                decode_walk(&dec, &bits[..cut], symbols.len()),
                "truncation at byte {cut} diverged"
            );
        }
        let mut corrupt = bits.clone();
        for i in 0..corrupt.len() {
            corrupt[i] ^= 0xA5;
            assert_eq!(
                dec.decode_exact(&corrupt, symbols.len()),
                decode_walk(&dec, &corrupt, symbols.len()),
                "corruption at byte {i} diverged"
            );
            corrupt[i] ^= 0xA5;
        }
    }

    #[test]
    fn degenerate_single_code_table_errors_match() {
        // One symbol, one bit: the only legal incomplete code. A set
        // bit matches nothing at full length -> InvalidCode, same as
        // the walk; an empty stream mid-symbol is UnexpectedEof.
        let mut lengths = vec![0u8; 8];
        lengths[5] = 1;
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        assert!(dec.table.is_some());
        assert_eq!(dec.decode_exact(&[0x00], 8).unwrap(), vec![5; 8]);
        assert_eq!(dec.decode_exact(&[0x80], 1), decode_walk(&dec, &[0x80], 1));
        assert!(matches!(
            dec.decode_exact(&[0x80], 1),
            Err(CodingError::InvalidCode)
        ));
        assert_eq!(dec.decode_exact(&[], 1), decode_walk(&dec, &[], 1));
        assert!(matches!(
            dec.decode_exact(&[], 1),
            Err(CodingError::UnexpectedEof)
        ));
        // 9th symbol from a 1-byte stream runs off the end.
        assert_eq!(dec.decode_exact(&[0x00], 9), decode_walk(&dec, &[0x00], 9));
    }

    #[test]
    fn oversized_code_lengths_fall_back_to_bit_walk() {
        // A 20-bit code is legal for the decoder but outside the table
        // envelope; decode_exact must still work via decode_one.
        let mut lengths: Vec<u8> = (1..=20).collect();
        lengths.push(20);
        let enc = HuffmanEncoder::from_lengths(&lengths).unwrap();
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        assert!(dec.table.is_none());
        let symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
        let bits = enc.encode_symbols(symbols.iter().copied()).unwrap();
        assert_eq!(dec.decode_exact(&bits, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn huffman_beats_fixed_width_on_skewed_input() {
        let mut freqs = vec![1u64; 16];
        freqs[0] = 1000;
        let bits = encoded_size_bits(&freqs, 15).unwrap();
        let total: u64 = freqs.iter().sum();
        assert!(bits < total * 4, "huffman {bits} >= fixed {}", total * 4);
    }
}
