//! The wire format (paper §3).
//!
//! "Compile the input program into trees, patternize out all literals,
//! form one stream for all patterns and one containing the literal
//! operands associated with each opcode or class of related opcodes,
//! MTF-code each stream, Huffman-code all MTF indices but no MTF tables,
//! and gzip the resulting streams in isolation."
//!
//! [`compress`] runs that exact pipeline over an IR [`codecomp_ir::Module`];
//! [`decompress`] inverts it bit-exactly. [`WireOptions`] exposes each
//! stage as a knob for the §2 design-space ablations: stream splitting
//! on/off, MTF on/off, Huffman vs adaptive-arithmetic vs raw index
//! coding, and the final DEFLATE stage on/off — every combination
//! round-trips.
//!
//! # Examples
//!
//! ```
//! use codecomp_front::compile;
//! use codecomp_wire::{compress, decompress, WireOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile("int main() { int i; int s = 0; for (i = 0; i < 9; i++) s += i; return s; }")?;
//! let packed = compress(&module, WireOptions::default())?;
//! let back = decompress(&packed.bytes)?;
//! assert_eq!(back, module);
//! # Ok(())
//! # }
//! ```

pub mod demand;
pub mod format;

pub use demand::{DemandError, DemandImage, DemandLoader, DemandReport, SalvageReport};
pub use format::{compress, decompress, decompress_budgeted, Coder, WireOptions, WireReport};

use std::error::Error;
use std::fmt;

/// Errors from wire-format compression or decompression.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The image ends before the structure it declares.
    Truncated,
    /// The compressed image is malformed.
    Corrupt(String),
    /// A lower layer failed.
    Layer(String),
    /// A decode budget tripped ([`codecomp_core::limits::DecodeLimits`]).
    Limit {
        /// Which limit tripped.
        what: String,
        /// The configured ceiling.
        limit: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire image ended prematurely"),
            WireError::Corrupt(m) => write!(f, "corrupt wire image: {m}"),
            WireError::Layer(m) => write!(f, "{m}"),
            WireError::Limit { what, limit } => {
                write!(f, "limit exceeded: {what} (limit {limit})")
            }
        }
    }
}

impl Error for WireError {}

impl From<WireError> for codecomp_core::DecodeError {
    fn from(e: WireError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            WireError::Truncated => DecodeError::Truncated,
            WireError::Corrupt(m) | WireError::Layer(m) => DecodeError::malformed(m),
            WireError::Limit { what, limit } => DecodeError::LimitExceeded { what, limit },
        }
    }
}

impl From<codecomp_core::DecodeError> for WireError {
    fn from(e: codecomp_core::DecodeError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::LimitExceeded { what, limit } => WireError::Limit { what, limit },
            other => WireError::Corrupt(other.to_string()),
        }
    }
}

impl From<codecomp_flate::FlateError> for WireError {
    fn from(e: codecomp_flate::FlateError) -> Self {
        match e {
            codecomp_flate::FlateError::Truncated => WireError::Truncated,
            // A budget trip in the DEFLATE stage stays a limit error:
            // the boundary tests rely on shrunk limits never being
            // misreported as structural corruption.
            codecomp_flate::FlateError::LimitExceeded { limit } => WireError::Limit {
                what: "deflate stage output/fuel".into(),
                limit,
            },
            other => WireError::Layer(format!("deflate: {other}")),
        }
    }
}

impl From<codecomp_coding::CodingError> for WireError {
    fn from(e: codecomp_coding::CodingError) -> Self {
        match e {
            codecomp_coding::CodingError::UnexpectedEof => WireError::Truncated,
            codecomp_coding::CodingError::LimitExceeded { what, limit } => {
                WireError::Limit { what, limit }
            }
            other => WireError::Layer(format!("coding: {other}")),
        }
    }
}

impl From<codecomp_core::CoreError> for WireError {
    fn from(e: codecomp_core::CoreError) -> Self {
        WireError::Layer(format!("streams: {e}"))
    }
}

impl From<codecomp_ir::IrError> for WireError {
    fn from(e: codecomp_ir::IrError) -> Self {
        WireError::Layer(format!("ir: {e}"))
    }
}
