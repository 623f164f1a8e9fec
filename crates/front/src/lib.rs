//! A mini-C front end producing [`codecomp_ir`] trees.
//!
//! The paper compresses code compiled by lcc from C sources (§3 shows
//! the `salt`/`pepper` example compiled to IR trees). This crate plays
//! lcc's role: it compiles a C subset — `int`/`char`/`short`/`unsigned`
//! scalars, pointers, one-dimensional arrays, strings, the usual
//! statement forms and operators, and function definitions — into the
//! tree IR that both compressors consume.
//!
//! # Examples
//!
//! ```
//! use codecomp_front::compile;
//!
//! let module = compile(r#"
//!     int salt(int j, int i) {
//!         if (j > 0) {
//!             pepper(i, j);
//!             j--;
//!         }
//!         return j;
//!     }
//!     int pepper(int a, int b) { return a + b; }
//! "#)?;
//! assert_eq!(module.functions.len(), 2);
//! # Ok::<(), codecomp_front::FrontError>(())
//! ```

pub mod ast;
pub mod gen;
pub mod lexer;
pub mod parser;
pub mod sema;

use codecomp_ir::Module;
use std::error::Error;
use std::fmt;

/// Compiles mini-C source text into an IR module.
///
/// # Errors
///
/// [`FrontError`] describing the first lexical, syntactic, or semantic
/// problem, with a line number.
pub fn compile(source: &str) -> Result<Module, FrontError> {
    let _stage = codecomp_core::telemetry::stage!("front.compile");
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    sema::check(&program)?;
    let module = gen::generate(&program)?;
    if codecomp_core::telemetry::enabled() {
        use codecomp_core::telemetry as t;
        t::counter_add("front.tokens", tokens.len() as u64);
        t::counter_add(
            "front.decls",
            (module.functions.len() + module.globals.len()) as u64,
        );
        t::counter_add("front.modules", 1);
    }
    Ok(module)
}

/// A front-end diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontError {
    /// 1-based source line of the problem.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl FrontError {
    /// Creates a diagnostic.
    pub fn new(line: u32, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for FrontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for FrontError {}
