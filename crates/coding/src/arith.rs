//! Arithmetic coding (Witten–Neal–Cleary style).
//!
//! The paper's design space (§2) contrasts byte codes with arithmetic
//! codes, "which can compress better by coding for sequences longer than
//! individual symbols, but complicate direct interpretation" and "must be
//! expanded before interpretation". This module supplies that end of the
//! spectrum for the ablation experiments: a 32-bit integer arithmetic
//! coder usable with either semi-static [`FrequencyTable`]s or the
//! adaptive [`AdaptiveModel`].
//!
//! # Examples
//!
//! ```
//! use codecomp_coding::arith::{ArithEncoder, ArithDecoder};
//! use codecomp_coding::model::AdaptiveModel;
//!
//! # fn main() -> Result<(), codecomp_coding::CodingError> {
//! let data = [0usize, 1, 0, 0, 2, 0, 0, 1];
//! let mut model = AdaptiveModel::new(3);
//! let mut enc = ArithEncoder::new();
//! for &s in &data {
//!     let (lo, hi) = model.bounds(s)?;
//!     enc.encode(lo, hi, model.total())?;
//!     model.update(s)?;
//! }
//! let bytes = enc.finish();
//!
//! let mut model = AdaptiveModel::new(3);
//! let mut dec = ArithDecoder::new(&bytes)?;
//! for &expect in &data {
//!     let point = dec.decode_point(model.total())?;
//!     let (sym, lo, hi) = model.locate(point)?;
//!     dec.consume(lo, hi, model.total())?;
//!     model.update(sym)?;
//!     assert_eq!(sym, expect);
//! }
//! # Ok(())
//! # }
//! ```

use crate::bits::{BitReader, BitWriter};
use crate::model::{AdaptiveModel, FrequencyTable};
use crate::CodingError;

const PRECISION: u32 = 32;
const TOP: u64 = 1 << PRECISION;
const HALF: u64 = TOP / 2;
const QUARTER: u64 = TOP / 4;
const THREE_QUARTERS: u64 = 3 * QUARTER;
/// Frequency totals must stay below this so intervals never collapse.
pub const MAX_TOTAL: u32 = 1 << 16;

/// The encoding half of the arithmetic coder.
#[derive(Debug, Clone)]
pub struct ArithEncoder {
    low: u64,
    high: u64,
    pending: u64,
    out: BitWriter,
}

impl Default for ArithEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ArithEncoder {
    /// Creates an encoder with the full `[0, 1)` interval.
    pub fn new() -> Self {
        Self {
            low: 0,
            high: TOP - 1,
            pending: 0,
            out: BitWriter::new(),
        }
    }

    /// Narrows the interval to the symbol spanning cumulative
    /// `[cum_low, cum_high)` out of `total`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidModel`] if the bounds are empty,
    /// exceed `total`, or `total` is zero or above [`MAX_TOTAL`].
    pub fn encode(&mut self, cum_low: u32, cum_high: u32, total: u32) -> Result<(), CodingError> {
        if total == 0 || total > MAX_TOTAL || cum_low >= cum_high || cum_high > total {
            return Err(CodingError::InvalidModel(format!(
                "bad interval [{cum_low},{cum_high})/{total}"
            )));
        }
        let range = self.high - self.low + 1;
        self.high = self.low + range * u64::from(cum_high) / u64::from(total) - 1;
        self.low += range * u64::from(cum_low) / u64::from(total);
        loop {
            if self.high < HALF {
                self.emit(false);
            } else if self.low >= HALF {
                self.emit(true);
                self.low -= HALF;
                self.high -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                self.pending += 1;
                self.low -= QUARTER;
                self.high -= QUARTER;
            } else {
                break;
            }
            self.low *= 2;
            self.high = self.high * 2 + 1;
        }
        Ok(())
    }

    /// Encodes `symbol` against a semi-static table.
    ///
    /// # Errors
    ///
    /// As for [`ArithEncoder::encode`]; also
    /// [`CodingError::SymbolOutOfRange`] for a symbol outside the table.
    pub fn encode_with_table(
        &mut self,
        symbol: usize,
        table: &FrequencyTable,
    ) -> Result<(), CodingError> {
        if symbol >= table.len() {
            return Err(CodingError::SymbolOutOfRange {
                symbol,
                alphabet: table.len(),
            });
        }
        let (lo, hi) = table.bounds(symbol)?;
        self.encode(lo, hi, table.total())
    }

    fn emit(&mut self, bit: bool) {
        self.out.write_bit(bit);
        while self.pending > 0 {
            self.out.write_bit(!bit);
            self.pending -= 1;
        }
    }

    /// Flushes the final interval and returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        // Two disambiguation bits select a quarter inside [low, high).
        self.pending += 1;
        if self.low < QUARTER {
            self.emit(false);
        } else {
            self.emit(true);
        }
        self.out.finish()
    }
}

/// The decoding half of the arithmetic coder.
#[derive(Debug, Clone)]
pub struct ArithDecoder<'a> {
    low: u64,
    high: u64,
    value: u64,
    input: BitReader<'a>,
}

impl<'a> ArithDecoder<'a> {
    /// Creates a decoder over encoder output.
    ///
    /// # Errors
    ///
    /// Never fails in practice: missing bits past the end of the stream
    /// are read as zeros, matching the encoder's implicit zero tail.
    pub fn new(bytes: &'a [u8]) -> Result<Self, CodingError> {
        let mut input = BitReader::new(bytes);
        let mut value = 0u64;
        for _ in 0..PRECISION {
            value = (value << 1) | u64::from(input.read_bit().unwrap_or(false));
        }
        Ok(Self {
            low: 0,
            high: TOP - 1,
            value,
            input,
        })
    }

    /// Returns the cumulative-frequency point of the next symbol under a
    /// model with the given `total`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidModel`] for a zero or oversized total.
    pub fn decode_point(&self, total: u32) -> Result<u32, CodingError> {
        if total == 0 || total > MAX_TOTAL {
            return Err(CodingError::InvalidModel(format!("bad total {total}")));
        }
        let range = self.high - self.low + 1;
        let offset = self.value - self.low;
        let point = ((offset + 1) * u64::from(total) - 1) / range;
        Ok(point.min(u64::from(total) - 1) as u32)
    }

    /// Consumes the symbol spanning `[cum_low, cum_high)` out of `total`,
    /// mirroring the encoder's interval narrowing.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidModel`] for inconsistent bounds.
    pub fn consume(&mut self, cum_low: u32, cum_high: u32, total: u32) -> Result<(), CodingError> {
        if total == 0 || total > MAX_TOTAL || cum_low >= cum_high || cum_high > total {
            return Err(CodingError::InvalidModel(format!(
                "bad interval [{cum_low},{cum_high})/{total}"
            )));
        }
        let range = self.high - self.low + 1;
        self.high = self.low + range * u64::from(cum_high) / u64::from(total) - 1;
        self.low += range * u64::from(cum_low) / u64::from(total);
        loop {
            if self.high < HALF {
                // nothing
            } else if self.low >= HALF {
                self.low -= HALF;
                self.high -= HALF;
                self.value -= HALF;
            } else if self.low >= QUARTER && self.high < THREE_QUARTERS {
                self.low -= QUARTER;
                self.high -= QUARTER;
                self.value -= QUARTER;
            } else {
                break;
            }
            self.low *= 2;
            self.high = self.high * 2 + 1;
            self.value = (self.value << 1) | u64::from(self.input.read_bit().unwrap_or(false));
        }
        Ok(())
    }

    /// Decodes one symbol against a semi-static table.
    ///
    /// # Errors
    ///
    /// As for [`ArithDecoder::decode_point`] / [`ArithDecoder::consume`].
    pub fn decode_with_table(&mut self, table: &FrequencyTable) -> Result<usize, CodingError> {
        let point = self.decode_point(table.total())?;
        let sym = table.symbol_for(point)?;
        let (lo, hi) = table.bounds(sym)?;
        self.consume(lo, hi, table.total())?;
        Ok(sym)
    }
}

/// Compresses a byte slice with an order-0 adaptive model — a convenience
/// wrapper used by ablation experiments and tests.
pub fn compress_bytes_adaptive(data: &[u8]) -> Vec<u8> {
    let mut model = AdaptiveModel::new(256);
    let mut enc = ArithEncoder::new();
    for &b in data {
        let (lo, hi) = model
            .bounds(b as usize)
            .expect("byte symbols fit the 256-symbol model");
        enc.encode(lo, hi, model.total())
            .expect("adaptive model always yields valid intervals");
        model
            .update(b as usize)
            .expect("byte symbols fit the 256-symbol model");
    }
    enc.finish()
}

/// Inverts [`compress_bytes_adaptive`] given the original length.
///
/// # Errors
///
/// Returns an error if the stream is corrupt.
pub fn decompress_bytes_adaptive(bytes: &[u8], len: usize) -> Result<Vec<u8>, CodingError> {
    let mut model = AdaptiveModel::new(256);
    let mut dec = ArithDecoder::new(bytes)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let point = dec.decode_point(model.total())?;
        let (sym, lo, hi) = model.locate(point)?;
        dec.consume(lo, hi, model.total())?;
        model.update(sym)?;
        out.push(sym as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FrequencyTable;

    #[test]
    fn adaptive_bytes_roundtrip() {
        let data = b"compression programs compress compressible code".to_vec();
        let packed = compress_bytes_adaptive(&data);
        assert_eq!(
            decompress_bytes_adaptive(&packed, data.len()).unwrap(),
            data
        );
    }

    #[test]
    fn adaptive_beats_raw_on_redundant_input() {
        let data = vec![b'a'; 10_000];
        let packed = compress_bytes_adaptive(&data);
        assert!(packed.len() < data.len() / 10, "got {} bytes", packed.len());
    }

    #[test]
    fn empty_input_roundtrip() {
        let packed = compress_bytes_adaptive(&[]);
        assert_eq!(
            decompress_bytes_adaptive(&packed, 0).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn semi_static_table_roundtrip() {
        let data = [0usize, 2, 2, 1, 0, 2, 2, 2, 1, 0];
        let mut counts = [0u64; 3];
        for &s in &data {
            counts[s] += 1;
        }
        let table = FrequencyTable::with_smoothing(&counts);
        let mut enc = ArithEncoder::new();
        for &s in &data {
            enc.encode_with_table(s, &table).unwrap();
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes).unwrap();
        for &expect in &data {
            assert_eq!(dec.decode_with_table(&table).unwrap(), expect);
        }
    }

    #[test]
    fn encode_rejects_bad_intervals() {
        let mut enc = ArithEncoder::new();
        assert!(enc.encode(5, 5, 10).is_err());
        assert!(enc.encode(0, 11, 10).is_err());
        assert!(enc.encode(0, 1, 0).is_err());
        assert!(enc.encode(0, 1, MAX_TOTAL + 1).is_err());
    }

    #[test]
    fn decode_rejects_bad_total() {
        let dec = ArithDecoder::new(&[0u8; 8]).unwrap();
        assert!(dec.decode_point(0).is_err());
        assert!(dec.decode_point(MAX_TOTAL + 1).is_err());
    }

    #[test]
    fn single_symbol_alphabet() {
        // One symbol with the whole range still round-trips.
        let table = FrequencyTable::with_smoothing(&[7]);
        let mut enc = ArithEncoder::new();
        for _ in 0..50 {
            enc.encode_with_table(0, &table).unwrap();
        }
        let bytes = enc.finish();
        let mut dec = ArithDecoder::new(&bytes).unwrap();
        for _ in 0..50 {
            assert_eq!(dec.decode_with_table(&table).unwrap(), 0);
        }
    }

    #[test]
    fn close_to_entropy_on_skewed_source() {
        // P(0)=15/16, P(1)=1/16: entropy ~0.337 bits/symbol.
        let data: Vec<usize> = (0..16_000).map(|i| usize::from(i % 16 == 0)).collect();
        let table = FrequencyTable::with_smoothing(&[15_000, 1_000]);
        let mut enc = ArithEncoder::new();
        for &s in &data {
            enc.encode_with_table(s, &table).unwrap();
        }
        let bytes = enc.finish();
        let bits_per_symbol = bytes.len() as f64 * 8.0 / data.len() as f64;
        assert!(bits_per_symbol < 0.4, "got {bits_per_symbol} bits/symbol");
        // And it still decodes.
        let mut dec = ArithDecoder::new(&bytes).unwrap();
        for &expect in &data {
            assert_eq!(dec.decode_with_table(&table).unwrap(), expect);
        }
    }
}
