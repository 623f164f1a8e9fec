//! BRISC — Byte-coded RISC (paper §4).
//!
//! "Operand specialization and opcode combination … yield a dense,
//! randomly addressable program representation called BRISC", which can
//! be interpreted directly in compressed form or translated ("JIT") to
//! native code at high rates.
//!
//! The pipeline:
//!
//! 1. [`compress::compress`] takes a [`codecomp_vm::VmProgram`], replaces
//!    conventional epilogues with the `epi` macro-instruction, then runs
//!    the paper's greedy passes: candidates from one-field operand
//!    specialization, `-x4` immediate narrowing, and opcode combination
//!    over augmented operand-specialized sets of adjacent pairs; each
//!    candidate is scored `B = P − W` where `W` averages the native
//!    expansion size over a variable-width (x86-64) and a fixed-width
//!    (PowerPC-like) target; the top `K = 20` per pass are adopted; the
//!    hunt stops when a pass yields fewer than `K` positive candidates.
//! 2. An order-1 semi-static Markov model assigns byte opcodes per
//!    predecessor context so any number of dictionary entries fits 8-bit
//!    opcodes; basic-block leaders use a dedicated block-start context so
//!    the code stays randomly addressable at branch targets.
//! 3. [`image`] serializes dictionary, Markov tables, globals, function
//!    table, and per-function byte streams; branch targets become local
//!    byte offsets.
//! 4. [`interp::BriscMachine`] executes the compressed image *in place*,
//!    decoding each instruction as it is reached; no decompressed copy
//!    of the code exists.
//! 5. [`translate`] is the fast tier: one linear decode pass
//!    reconstructs a [`codecomp_vm::VmProgram`] (and can emit x86-64
//!    bytes, whose production rate is the paper's "MB/sec of produced
//!    code" metric).
//!
//! # Examples
//!
//! ```
//! use codecomp_front::compile;
//! use codecomp_vm::codegen::compile_module;
//! use codecomp_vm::isa::IsaConfig;
//! use codecomp_brisc::{compress::{compress, BriscOptions}, interp::BriscMachine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ir = compile("int main() { int i; int s = 0; for (i = 0; i < 10; i++) s += i; return s; }")?;
//! let vm = compile_module(&ir, IsaConfig::full())?;
//! let brisc = compress(&vm, BriscOptions::default())?;
//! let outcome = BriscMachine::new(&brisc.image, 1 << 20, 1 << 24)?.run("main", &[])?;
//! assert_eq!(outcome.value, 45);
//! # Ok(())
//! # }
//! ```

pub mod compress;
pub mod entry;
pub mod image;
pub mod interp;
pub mod markov;
pub mod translate;

pub use compress::{compress, BriscOptions, BriscReport};
pub use image::BriscImage;

use std::error::Error;
use std::fmt;

/// Errors across the BRISC crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BriscError {
    /// Compression failed.
    Compress(String),
    /// The serialized image ends before the structure it declares.
    Truncated,
    /// The serialized image is malformed.
    Corrupt(String),
    /// Execution failed.
    Exec(String),
    /// A decode budget tripped ([`codecomp_core::limits::DecodeLimits`]).
    Limit {
        /// Which limit tripped.
        what: String,
        /// The configured ceiling.
        limit: u64,
    },
    /// Execution reached a function quarantined by a decode failure.
    Quarantined {
        /// The quarantined function.
        name: String,
        /// Why its code failed to validate.
        cause: codecomp_core::DecodeError,
    },
}

impl fmt::Display for BriscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BriscError::Compress(m) => write!(f, "brisc compression error: {m}"),
            BriscError::Truncated => write!(f, "brisc image ended prematurely"),
            BriscError::Corrupt(m) => write!(f, "corrupt brisc image: {m}"),
            BriscError::Exec(m) => write!(f, "brisc execution error: {m}"),
            BriscError::Limit { what, limit } => {
                write!(f, "limit exceeded: {what} (limit {limit})")
            }
            BriscError::Quarantined { name, cause } => {
                write!(f, "function {name} is quarantined: {cause}")
            }
        }
    }
}

impl Error for BriscError {}

impl From<BriscError> for codecomp_core::DecodeError {
    fn from(e: BriscError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            BriscError::Truncated => DecodeError::Truncated,
            BriscError::Corrupt(m) | BriscError::Exec(m) => DecodeError::malformed(m),
            BriscError::Compress(m) => DecodeError::Internal(m),
            BriscError::Limit { what, limit } => DecodeError::LimitExceeded { what, limit },
            // The quarantine already wraps the original decode failure.
            BriscError::Quarantined { cause, .. } => cause,
        }
    }
}

impl From<codecomp_core::DecodeError> for BriscError {
    fn from(e: codecomp_core::DecodeError) -> Self {
        use codecomp_core::DecodeError;
        match e {
            DecodeError::Truncated => BriscError::Truncated,
            DecodeError::LimitExceeded { what, limit } => BriscError::Limit { what, limit },
            other => BriscError::Corrupt(other.to_string()),
        }
    }
}

impl From<codecomp_vm::VmError> for BriscError {
    fn from(e: codecomp_vm::VmError) -> Self {
        match e {
            codecomp_vm::VmError::Exec(m) => BriscError::Exec(m),
            other => BriscError::Compress(other.to_string()),
        }
    }
}
