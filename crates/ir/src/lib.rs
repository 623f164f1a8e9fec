//! An lcc-style tree intermediate representation.
//!
//! The paper's wire format compresses "trees of VM code" produced by the
//! lcc C compiler (§3): stack-oriented operator trees such as
//!
//! ```text
//! ASGNI(ADDRLP8[72], SUBI(INDIRI(ADDRLP8[72]), CNSTC[1]))
//! ```
//!
//! where square brackets enclose literal operands and the `8`/`16`
//! suffixes flag literals that fit in eight or sixteen bits. This crate
//! provides that IR from scratch:
//!
//! - [`op`]: the operator vocabulary with arities and literal kinds.
//! - [`tree`]: trees, functions, and modules, with validation.
//! - [`print`](mod@print) / [`parse`]: the human-readable lcc-like text form.
//! - [`binary`]: the operator-byte table of the plain prefix-order byte
//!   encoding (the "uncompressed" code-size baseline the paper's wire
//!   table starts from).
//! - [`eval`]: a reference evaluator used for differential testing
//!   against the VM and BRISC interpreters.
//!
//! # Examples
//!
//! Building and printing the paper's decrement statement:
//!
//! ```
//! use codecomp_ir::tree::Tree;
//! use codecomp_ir::op::{Opcode, IrType};
//!
//! let dec = Tree::asgn(
//!     IrType::I,
//!     Tree::addr_local(72),
//!     Tree::sub(
//!         IrType::I,
//!         Tree::indir(IrType::I, Tree::addr_local(72)),
//!         Tree::cnst(IrType::C, 1),
//!     ),
//! );
//! assert_eq!(
//!     dec.to_string(),
//!     "ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))"
//! );
//! assert_eq!(dec.op().opcode, Opcode::Asgn);
//! ```

pub mod binary;
pub mod eval;
pub mod op;
pub mod parse;
pub mod print;
pub mod tree;

pub use op::{IrType, Literal, Op, Opcode, Width};
pub use tree::{Function, Global, Module, Tree};

use std::error::Error;
use std::fmt;

/// Errors for IR construction, parsing, and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IrError {
    /// A tree violates an arity or literal-kind rule.
    Malformed(String),
    /// Text-form parsing failed.
    Parse {
        /// Byte offset of the failure in the input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Evaluation failed (bad address, missing function, …).
    Eval(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Malformed(m) => write!(f, "malformed IR: {m}"),
            IrError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            IrError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl Error for IrError {}
