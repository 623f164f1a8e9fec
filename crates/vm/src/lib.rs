//! An OmniVM-style register virtual machine.
//!
//! The BRISC compressor (paper §4) operates on "fully linked executable
//! programs containing OmniVM RISC instructions": a RISC instruction set
//! with 16 integer registers (`sp` and `ra` are two of them, so every
//! register field fits in four bits) "augmented with macro-instructions
//! for common operations". This crate builds that machine:
//!
//! - [`isa`]: the instruction set, including the de-tuning knobs of the
//!   paper's §5 experiment (immediate instructions and
//!   register-displacement addressing can be disabled).
//! - [`asm`]: the assembly text form used throughout the paper
//!   (`ld.iw n0,4(sp)`, `spill.i ra,20(sp)`, `ble.i n4,0,$L56`, …),
//!   both printing and parsing.
//! - [`program`]: programs — functions whose branch targets are
//!   function-relative instruction indices, and a flat code space.
//! - [`encode`]: the quantized byte encoding whose size is the "VM code"
//!   input measure for BRISC.
//! - [`codegen`]: the IR → VM compiler with callee-saved register
//!   promotion, producing the prologue/spill/reload/epilogue idioms the
//!   paper's example shows.
//! - [`interp`]: the one execution core (registers, memory, globals,
//!   argument staging and the step over every instruction) that both
//!   this crate's interpreter and the in-place BRISC interpreter drive,
//!   plus the interpreter over linked flat code, with instruction
//!   counters and per-instruction execution counts for working-set
//!   experiments.
//! - [`native`]: native code-size models — a variable-width x86-64
//!   encoder and a fixed-width RISC ("SPARC-like") encoder — used as the
//!   paper's native-code baselines.
//!
//! # Examples
//!
//! ```
//! use codecomp_front::compile;
//! use codecomp_vm::codegen::compile_module;
//! use codecomp_vm::interp::Machine;
//! use codecomp_vm::isa::IsaConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ir = compile("int main() { int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s; }")?;
//! let program = compile_module(&ir, IsaConfig::full())?;
//! let outcome = Machine::new(&program, 1 << 20, 1 << 24)?.run("main", &[])?;
//! assert_eq!(outcome.value, 55);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod codegen;
pub mod encode;
pub mod interp;
pub mod isa;
pub mod native;
pub mod program;
pub mod reg;

pub use interp::{Machine, RunOutcome};
pub use isa::{Inst, IsaConfig};
pub use program::{VmFunction, VmProgram};
pub use reg::Reg;

use std::error::Error;
use std::fmt;

/// Errors across the VM crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VmError {
    /// Code generation failed.
    Codegen(String),
    /// Assembly parsing failed.
    Asm {
        /// 1-based line number in the assembly text.
        line: u32,
        /// Problem description.
        message: String,
    },
    /// Binary encode/decode failed.
    Encode(String),
    /// Execution failed.
    Exec(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Codegen(m) => write!(f, "code generation error: {m}"),
            VmError::Asm { line, message } => write!(f, "assembly error at line {line}: {message}"),
            VmError::Encode(m) => write!(f, "encoding error: {m}"),
            VmError::Exec(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl Error for VmError {}

impl From<codecomp_core::DecodeError> for VmError {
    fn from(e: codecomp_core::DecodeError) -> Self {
        VmError::Encode(e.to_string())
    }
}
