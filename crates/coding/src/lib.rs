//! Entropy-coding substrate for the PLDI '97 *Code Compression* reproduction.
//!
//! This crate collects the low-level coding machinery shared by the wire
//! format and BRISC compressors:
//!
//! - [`bits`]: MSB-first bit-stream reader and writer, LSB-first writer.
//! - [`huffman`]: canonical, length-limited Huffman coding.
//! - [`mtf`]: move-to-front transform, including the paper's
//!   "zero denotes a symbol not seen previously" variant.
//! - [`arith`]: a binary-free range coder with adaptive and semi-static
//!   models (the "arithmetic coding" end of the paper's design space).
//! - [`model`]: frequency tables and order-N finite-context (Markov)
//!   models used to predict the next operator or operand.
//!
//! # Examples
//!
//! Round-tripping a byte stream through canonical Huffman coding:
//!
//! ```
//! use codecomp_coding::huffman::{HuffmanEncoder, HuffmanDecoder};
//!
//! # fn main() -> Result<(), codecomp_coding::CodingError> {
//! let data = b"abracadabra abracadabra";
//! let mut freqs = [0u64; 256];
//! for &b in data {
//!     freqs[b as usize] += 1;
//! }
//! let encoder = HuffmanEncoder::from_frequencies(&freqs, 15)?;
//! let bits = encoder.encode_symbols(data.iter().map(|&b| b as usize))?;
//! let decoder = HuffmanDecoder::from_lengths(encoder.lengths())?;
//! let decoded: Vec<u8> = decoder
//!     .decode_exact(&bits, data.len())?
//!     .into_iter()
//!     .map(|s| s as u8)
//!     .collect();
//! assert_eq!(decoded, data);
//! # Ok(())
//! # }
//! ```

pub mod arith;
pub mod bits;
pub mod huffman;
pub mod model;
pub mod mtf;

use std::error::Error;
use std::fmt;

/// Errors produced by the coders in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodingError {
    /// The bit stream ended before a complete symbol was decoded.
    UnexpectedEof,
    /// A symbol outside the alphabet was presented for encoding.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: usize,
        /// The alphabet size of the coder.
        alphabet: usize,
    },
    /// A code table could not be constructed (e.g. over-subscribed or
    /// empty Kraft sum where codes were required).
    InvalidCodeTable(String),
    /// A decoded bit pattern did not correspond to any symbol.
    InvalidCode,
    /// The caller asked for a code length limit that cannot represent the
    /// alphabet (e.g. `2^limit < symbols`).
    LimitTooSmall {
        /// The requested maximum code length.
        limit: u8,
        /// Number of symbols with nonzero frequency.
        symbols: usize,
    },
    /// Arithmetic-coder model misuse, such as a zero-total model.
    InvalidModel(String),
    /// A decode budget tripped ([`codecomp_core::limits::DecodeLimits`]).
    LimitExceeded {
        /// Which limit tripped.
        what: String,
        /// The configured ceiling.
        limit: u64,
    },
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodingError::UnexpectedEof => write!(f, "unexpected end of bit stream"),
            CodingError::SymbolOutOfRange { symbol, alphabet } => {
                write!(f, "symbol {symbol} out of range for alphabet of {alphabet}")
            }
            CodingError::InvalidCodeTable(msg) => write!(f, "invalid code table: {msg}"),
            CodingError::InvalidCode => write!(f, "bit pattern does not decode to any symbol"),
            CodingError::LimitTooSmall { limit, symbols } => {
                write!(f, "length limit {limit} too small for {symbols} symbols")
            }
            CodingError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            CodingError::LimitExceeded { what, limit } => {
                write!(f, "limit exceeded: {what} (limit {limit})")
            }
        }
    }
}

impl Error for CodingError {}

impl From<CodingError> for codecomp_core::DecodeError {
    fn from(e: CodingError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            CodingError::UnexpectedEof => DecodeError::Truncated,
            CodingError::LimitExceeded { what, limit } => DecodeError::LimitExceeded { what, limit },
            other => DecodeError::malformed(other.to_string()),
        }
    }
}

impl From<codecomp_core::DecodeError> for CodingError {
    fn from(e: codecomp_core::DecodeError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            DecodeError::Truncated => CodingError::UnexpectedEof,
            DecodeError::LimitExceeded { what, limit } => CodingError::LimitExceeded { what, limit },
            other => CodingError::InvalidModel(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errs: Vec<CodingError> = vec![
            CodingError::UnexpectedEof,
            CodingError::SymbolOutOfRange {
                symbol: 9,
                alphabet: 4,
            },
            CodingError::InvalidCodeTable("x".into()),
            CodingError::InvalidCode,
            CodingError::LimitTooSmall {
                limit: 1,
                symbols: 5,
            },
            CodingError::InvalidModel("y".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodingError>();
    }
}
