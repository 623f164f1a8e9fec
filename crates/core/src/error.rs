//! The shared decode-error taxonomy.
//!
//! Every decoder in the workspace — `flate::inflate`, gzip,
//! `wire::decompress`, the BRISC image loader, the interpreters — is
//! *total*: for any input byte sequence it either reproduces the encoded
//! value exactly or returns one of these four errors. No input may
//! panic, abort on allocation, or loop without a resource bound. Crate
//! errors (`CodingError`, `FlateError`, `WireError`, `BriscError`)
//! carry the local detail and fold into [`DecodeError`] at the
//! boundary via `From` impls in their own crates.

use std::error::Error;
use std::fmt;

/// A structured decoder failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input ended before the encoded value was complete.
    Truncated,
    /// The input is complete enough to read but violates the format.
    Malformed {
        /// What was wrong, for diagnostics.
        what: String,
    },
    /// The input asked for more resources than the decoder allows.
    LimitExceeded {
        /// Which limit tripped.
        what: String,
        /// The configured ceiling.
        limit: u64,
    },
    /// An internal invariant failed; indicates a bug, not bad input.
    Internal(String),
}

impl DecodeError {
    /// Shorthand for a [`DecodeError::Malformed`] with a description.
    pub fn malformed(what: impl Into<String>) -> Self {
        DecodeError::Malformed { what: what.into() }
    }

    /// Shorthand for a [`DecodeError::LimitExceeded`].
    pub fn limit(what: impl Into<String>, limit: u64) -> Self {
        DecodeError::LimitExceeded {
            what: what.into(),
            limit,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::Malformed { what } => write!(f, "malformed input: {what}"),
            DecodeError::LimitExceeded { what, limit } => {
                write!(f, "limit exceeded: {what} (limit {limit})")
            }
            DecodeError::Internal(m) => write!(f, "internal decoder error: {m}"),
        }
    }
}

impl Error for DecodeError {}

impl From<crate::CoreError> for DecodeError {
    fn from(e: crate::CoreError) -> Self {
        DecodeError::malformed(e.to_string())
    }
}

impl From<codecomp_ir::IrError> for DecodeError {
    fn from(e: codecomp_ir::IrError) -> Self {
        DecodeError::malformed(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(DecodeError::Truncated.to_string(), "input truncated");
        assert_eq!(
            DecodeError::malformed("bad magic").to_string(),
            "malformed input: bad magic"
        );
        assert_eq!(
            DecodeError::limit("output bytes", 16).to_string(),
            "limit exceeded: output bytes (limit 16)"
        );
        assert_eq!(
            DecodeError::Internal("oops".into()).to_string(),
            "internal decoder error: oops"
        );
    }
}
