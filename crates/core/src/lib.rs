//! Shared code-compression machinery.
//!
//! Both of the paper's compressors "gather information about the common
//! patterns that appear in the code, and both divide the stream of code
//! into several smaller streams, one holding the operators and one
//! holding the literal operands for each operator (or class of related
//! operators)". This crate holds that common core:
//!
//! - [`treepat`]: patternization of IR trees — replacing every literal
//!   operand with a wildcard, as in
//!   `ASGNI(ADDRLP8[*],SUBI(INDIRI(ADDRLP8[*]),CNSTC[*]))`.
//! - [`streams`]: stream separation — one operator-pattern stream plus
//!   one literal stream per operator class — and its inverse.
//! - [`dict`]: the greedy benefit-driven dictionary construction the
//!   BRISC compressor uses (`B = P − W`, heap of candidates, top-`K` per
//!   pass, stop when a pass yields fewer than `K` positive candidates).
//! - [`fxhash`]: a fast non-cryptographic hasher for in-process tables
//!   keyed by small values (the BRISC compressor's candidate keys).
//! - [`bytesio`]: the reversible byte codec ([`bytesio::Io`]) each wire,
//!   demand and BRISC container format is written once in — varints,
//!   strings, and budget-charged count-prefixed sequences.
//! - [`error`]: the shared [`DecodeError`] taxonomy every decoder in the
//!   workspace folds into at its public boundary.
//! - [`limits`]: per-call decode resource governance — [`DecodeLimits`]
//!   knobs plus the shared [`Budget`] handle threaded through every
//!   decode entry point in the workspace.
//! - [`fault`]: seeded fault injection (xorshift PRNG + byte mutators)
//!   backing the workspace fault-injection harness.
//! - [`telemetry`]: zero-dependency observability — the metrics
//!   [`telemetry::Registry`], structured [`telemetry::TraceSink`], and
//!   the [`stage!`] marker whose guard times a stage for all of them
//!   (counters, collapsed-stack self times, trace spans) when a
//!   collector is installed.

pub mod bytesio;
pub mod dict;
pub mod error;
pub mod fault;
pub mod fxhash;
pub mod limits;
pub mod streams;
pub mod telemetry;
pub mod treepat;

pub use error::DecodeError;
pub use limits::{Budget, DecodeLimits, DecodeUsage};
pub use streams::{SplitStreams, StreamKey};
pub use treepat::TreePattern;

use std::error::Error;
use std::fmt;

/// Errors from the shared machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Stream reconstruction ran out of literals or patterns.
    StreamUnderflow(String),
    /// A pattern and a literal stream disagreed structurally.
    Mismatch(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::StreamUnderflow(m) => write!(f, "stream underflow: {m}"),
            CoreError::Mismatch(m) => write!(f, "stream mismatch: {m}"),
        }
    }
}

impl Error for CoreError {}
