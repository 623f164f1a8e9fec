//! Move-to-front coding.
//!
//! The wire format (paper §3 step 3) MTF-codes each literal stream in
//! isolation, with the convention that **index 0 denotes a symbol not
//! seen previously**; the first occurrence of a symbol is therefore
//! emitted as `0` followed by the symbol itself in a side table, and
//! subsequent occurrences are emitted as their 1-based position in the
//! recency list. This is the paper's exact example: the `ADDRLP8` stream
//! `[72 72 68 72 68 68 68 68]` codes to `[0 1 0 2 2 1 1 1]`.
//!
//! [`mtf_encode`] and [`mtf_decode`] are that variant's two halves. The
//! decoder returns each symbol as its index into the side table, which
//! is what the wire format stores: its streams are already indices into
//! a first-occurrence table, so the side table is the identity and is
//! not transmitted.

/// Output of [`mtf_encode`]: recency indices plus the first-occurrence table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtfEncoded<T> {
    /// One index per input symbol; `0` means "new symbol", `k > 0` means
    /// "the symbol at 1-based recency position `k`".
    pub indices: Vec<u32>,
    /// Symbols in order of first occurrence (consumed by the decoder each
    /// time it reads a `0` index).
    pub table: Vec<T>,
}

/// MTF-encodes a stream with the paper's "0 = unseen" convention.
///
/// # Examples
///
/// ```
/// use codecomp_coding::mtf::mtf_encode;
///
/// // The paper's ADDRLP8 example.
/// let stream = [72u32, 72, 68, 72, 68, 68, 68, 68];
/// let enc = mtf_encode(&stream);
/// assert_eq!(enc.indices, vec![0, 1, 0, 2, 2, 1, 1, 1]);
/// assert_eq!(enc.table, vec![72, 68]);
/// ```
pub fn mtf_encode<T: Clone + PartialEq>(stream: &[T]) -> MtfEncoded<T> {
    let mut recency: Vec<T> = Vec::new();
    let mut indices = Vec::with_capacity(stream.len());
    let mut table = Vec::new();
    for sym in stream {
        match recency.iter().position(|s| s == sym) {
            Some(pos) => {
                indices.push(pos as u32 + 1);
                let s = recency.remove(pos);
                recency.insert(0, s);
            }
            None => {
                indices.push(0);
                table.push(sym.clone());
                recency.insert(0, sym.clone());
            }
        }
    }
    if codecomp_core::telemetry::enabled() {
        // Index 0 is a first occurrence (dictionary miss); k > 0 is a
        // hit at recency distance k — the paper's locality argument in
        // histogram form.
        let misses = table.len() as u64;
        codecomp_core::telemetry::counter_add("coding.mtf.misses", misses);
        codecomp_core::telemetry::counter_add("coding.mtf.hits", indices.len() as u64 - misses);
        let mut distances = codecomp_core::telemetry::LocalHistogram::default();
        for &idx in indices.iter().filter(|&&idx| idx > 0) {
            distances.record(u64::from(idx));
        }
        codecomp_core::telemetry::histogram_merge("coding.mtf.hit_distance", &distances);
    }
    MtfEncoded { indices, table }
}

/// Inverts [`mtf_encode`], returning each symbol as its index into
/// the side table of `table_len` first occurrences.
///
/// One array pass: a new symbol is the next table index, a repeat is a
/// single bounded `copy_within` front-move.
///
/// Returns `None` when an index references a recency position that
/// does not exist or more than `table_len` first occurrences appear.
///
/// # Examples
///
/// ```
/// use codecomp_coding::mtf::{mtf_decode, mtf_encode};
///
/// let stream = [72u32, 72, 68, 72, 68, 68, 68, 68];
/// let enc = mtf_encode(&stream);
/// let back = mtf_decode(&enc.indices, enc.table.len()).unwrap();
/// assert_eq!(back, vec![0, 0, 1, 0, 1, 1, 1, 1]);
/// assert!(back.iter().map(|&i| enc.table[i as usize]).eq(stream));
/// ```
pub fn mtf_decode(indices: &[u32], table_len: usize) -> Option<Vec<u32>> {
    let mut recency: Vec<u32> = Vec::with_capacity(table_len);
    let mut next_new: u32 = 0;
    let mut out = Vec::with_capacity(indices.len());
    for &idx in indices {
        if idx == 0 {
            if next_new as usize >= table_len {
                return None;
            }
            recency.insert(0, next_new);
            out.push(next_new);
            next_new += 1;
        } else {
            let pos = idx as usize - 1;
            if pos >= recency.len() {
                return None;
            }
            let sym = recency[pos];
            recency.copy_within(0..pos, 1);
            recency[0] = sym;
            out.push(sym);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook inverse over an explicit side table: recency
    /// membership scans, `remove` + `insert` front-moves, a clone per
    /// symbol. [`mtf_decode`] must agree with it.
    fn reference_decode<T: Clone + PartialEq>(encoded: &MtfEncoded<T>) -> Option<Vec<T>> {
        let mut recency: Vec<T> = Vec::new();
        let mut table_iter = encoded.table.iter();
        let mut out = Vec::with_capacity(encoded.indices.len());
        for &idx in &encoded.indices {
            if idx == 0 {
                let sym = table_iter.next()?.clone();
                // A "new" symbol already in the recency list means the
                // encoding is corrupt.
                if recency.contains(&sym) {
                    return None;
                }
                recency.insert(0, sym.clone());
                out.push(sym);
            } else {
                let pos = idx as usize - 1;
                if pos >= recency.len() {
                    return None;
                }
                let sym = recency.remove(pos);
                recency.insert(0, sym.clone());
                out.push(sym);
            }
        }
        Some(out)
    }

    /// Decodes and maps each index back through the side table.
    fn roundtrip<T: Clone>(enc: &MtfEncoded<T>) -> Option<Vec<T>> {
        let back = mtf_decode(&enc.indices, enc.table.len())?;
        Some(
            back.iter()
                .map(|&i| enc.table[i as usize].clone())
                .collect(),
        )
    }

    #[test]
    fn paper_addrlp8_example() {
        let stream = [72u32, 72, 68, 72, 68, 68, 68, 68];
        let enc = mtf_encode(&stream);
        assert_eq!(enc.indices, vec![0, 1, 0, 2, 2, 1, 1, 1]);
        assert_eq!(enc.table, vec![72, 68]);
        assert_eq!(roundtrip(&enc).unwrap(), stream);
    }

    #[test]
    fn empty_stream() {
        let enc = mtf_encode::<u32>(&[]);
        assert!(enc.indices.is_empty());
        assert!(enc.table.is_empty());
        assert_eq!(roundtrip(&enc).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn all_distinct_symbols_code_to_zeroes() {
        let stream = [1u32, 2, 3, 4, 5];
        let enc = mtf_encode(&stream);
        assert_eq!(enc.indices, vec![0; 5]);
        assert_eq!(enc.table, stream.to_vec());
    }

    #[test]
    fn repeated_symbol_codes_to_ones() {
        let stream = [9u32; 6];
        let enc = mtf_encode(&stream);
        assert_eq!(enc.indices, vec![0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn works_with_string_symbols() {
        let stream: Vec<String> = ["a", "b", "a", "c", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let enc = mtf_encode(&stream);
        assert_eq!(roundtrip(&enc).unwrap(), stream);
    }

    #[test]
    fn decode_rejects_truncated_table() {
        let stream = [1u32, 2, 3];
        let mut enc = mtf_encode(&stream);
        enc.table.pop();
        assert!(mtf_decode(&enc.indices, enc.table.len()).is_none());
    }

    #[test]
    fn decode_matches_the_reference() {
        // Every encodable stream shape over a small alphabet plus the
        // paper's example, checked against the reference decoder.
        let streams: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![0, 0, 0],
            vec![0, 1, 0, 2, 2, 1, 1, 1],
            (0..40).map(|i| i % 5).collect(),
            vec![3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 0, 2],
        ];
        for stream in streams {
            let enc = mtf_encode(&stream);
            assert_eq!(roundtrip(&enc), reference_decode(&enc), "{stream:?}");
            assert_eq!(roundtrip(&enc).unwrap(), stream);
        }
    }

    #[test]
    fn decode_rejects_bad_input() {
        // More zeros than the declared table.
        assert!(mtf_decode(&[0, 0], 1).is_none());
        // Recency positions that do not exist yet.
        assert!(mtf_decode(&[1], 4).is_none());
        assert!(mtf_decode(&[0, 3], 4).is_none());
        assert!(mtf_decode(&[0, 5], 1).is_none());
        // Valid boundary: position exactly at the list edge.
        assert_eq!(mtf_decode(&[0, 0, 2], 2), Some(vec![0, 1, 0]));
        // The reference rejects the same shapes, and a repeated first
        // occurrence, which the identity table cannot express.
        let bad = MtfEncoded {
            indices: vec![0, 5],
            table: vec![7u32],
        };
        assert!(reference_decode(&bad).is_none());
        let bad = MtfEncoded {
            indices: vec![0, 0],
            table: vec![7u32, 7],
        };
        assert!(reference_decode(&bad).is_none());
    }
}
