//! # Code Compression
//!
//! A from-scratch Rust reproduction of *Code Compression* (Ernst, Evans,
//! Fraser, Lucco, Proebsting; PLDI 1997): two compressed executable
//! representations and every substrate they depend on.
//!
//! - The **wire format** ([`wire`]): patternized tree code split into an
//!   operator stream and per-operator literal streams, each MTF-coded,
//!   Huffman-coded, and DEFLATEd in isolation. Dense, but linear to
//!   decompress.
//! - **BRISC** ([`brisc`]): a byte-coded RISC built by greedy operand
//!   specialization and opcode combination over an OmniVM-style register
//!   machine, with an order-1 Markov opcode assignment. Slightly larger
//!   than the wire format, but randomly addressable: it can be
//!   interpreted *in place* or translated to native code in one linear
//!   pass.
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`coding`] | `codecomp-coding` | bit I/O, Huffman, MTF, arithmetic coding, context models |
//! | [`flate`] | `codecomp-flate` | DEFLATE + gzip, from scratch |
//! | [`ir`] | `codecomp-ir` | lcc-style tree IR, text/binary forms, reference evaluator |
//! | [`front`] | `codecomp-front` | mini-C compiler producing the IR |
//! | [`vm`] | `codecomp-vm` | OmniVM-style register RISC: codegen, interpreter, native-size encoders |
//! | [`core`] | `codecomp-core` | patternization, stream separation, greedy dictionary selection |
//! | [`wire`] | `codecomp-wire` | the wire-format compressor/decompressor |
//! | [`brisc`] | `codecomp-brisc` | the BRISC compressor, in-place interpreter, fast translator |
//! | [`memsim`] | `codecomp-memsim` | delivery-time and paging cost models |
//! | [`corpus`] | `codecomp-corpus` | benchmark programs and a synthetic program generator |
//!
//! ## Quickstart
//!
//! ```
//! use code_compression::front::compile;
//! use code_compression::vm::codegen::compile_module;
//! use code_compression::vm::isa::IsaConfig;
//! use code_compression::brisc::{compress, BriscOptions};
//! use code_compression::brisc::interp::BriscMachine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ir = compile("int main() { int s = 0; int i; for (i = 1; i <= 4; i++) s += i; return s; }")?;
//! let vm = compile_module(&ir, IsaConfig::full())?;
//! let brisc = compress(&vm, BriscOptions::default())?;
//! let mut machine = BriscMachine::new(&brisc.image, 1 << 20, 1 << 24)?;
//! assert_eq!(machine.run("main", &[])?.value, 10);
//! # Ok(())
//! # }
//! ```

pub use codecomp_brisc as brisc;
pub use codecomp_coding as coding;
pub use codecomp_core as core;
pub use codecomp_corpus as corpus;
pub use codecomp_flate as flate;
pub use codecomp_front as front;
pub use codecomp_ir as ir;
pub use codecomp_memsim as memsim;
pub use codecomp_vm as vm;
pub use codecomp_wire as wire;
