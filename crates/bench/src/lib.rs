//! Shared harness for the table-regenerating experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for
//! the paper-vs-measured record):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table_wire` | §3 wire-format size table |
//! | `table_brisc` | §4 BRISC results table |
//! | `table_workingset` | §4 working-set / interpretation claims |
//! | `table_detune` | §5 RISC de-tuning table |
//! | `table_scenarios` | §1 delivery-time scenarios |
//! | `table_ablation` | §2 design-space ablations |
//!
//! The `bench` binary is the perf tracker: stage rates measured by
//! [`perf`], the one measurement core, into `results/bench.json`.

pub mod perf;

use codecomp_brisc::{compress as brisc_compress, BriscOptions, BriscReport};
use codecomp_corpus::{benchmarks, synthetic, SynthConfig};
use codecomp_flate::{gzip_compress, CompressionLevel};
use codecomp_front::compile;
use codecomp_ir::Module;
use codecomp_vm::codegen::compile_module;
use codecomp_vm::isa::IsaConfig;
use codecomp_vm::native::fixed_width_size;
use codecomp_vm::VmProgram;

/// One program under measurement.
pub struct Subject {
    /// Display name.
    pub name: String,
    /// The IR module.
    pub ir: Module,
    /// Its full-ISA VM compilation.
    pub vm: VmProgram,
}

/// How much synthetic material to include beside the bundled corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Bundled corpus only (fast; used by tests).
    CorpusOnly,
    /// Corpus plus medium and large synthetic programs (the paper's
    /// wcp/lcc/gcc size spread).
    WithSynthetic,
}

/// Builds the measurement subjects.
///
/// # Panics
///
/// Panics if a bundled program fails to compile — the corpus crate's
/// tests guarantee they do not.
pub fn subjects(scale: Scale) -> Vec<Subject> {
    let mut out = Vec::new();
    for b in benchmarks() {
        let ir = b.compile().expect("bundled benchmarks compile");
        let vm = compile_module(&ir, IsaConfig::full()).expect("bundled benchmarks codegen");
        out.push(Subject {
            name: b.name.to_string(),
            ir,
            vm,
        });
    }
    if scale == Scale::WithSynthetic {
        for (name, functions) in [("synth-wcp", 60), ("synth-lcc", 300), ("synth-gcc", 1200)] {
            let src = synthetic(
                0xC0DE,
                SynthConfig {
                    functions,
                    statements_per_function: 10,
                    globals: 12,
                },
            );
            let ir = compile(&src).expect("synthetic programs compile");
            let vm = compile_module(&ir, IsaConfig::full()).expect("synthetic codegen");
            out.push(Subject {
                name: name.to_string(),
                ir,
                vm,
            });
        }
    }
    out
}

/// Size measurements shared by several tables.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// SPARC-like fixed-width native size (the §3 baseline).
    pub fixed_native: usize,
    /// x86-64 variable-width native size (the §4 baseline).
    pub x86_native: usize,
    /// gzip of the x86 native image.
    pub gzip_x86: usize,
    /// gzip of the fixed-width native image is approximated by gzipping
    /// the base VM encoding scaled to fixed width — instead we gzip the
    /// actual fixed-size stream produced per function.
    pub base_vm: usize,
}

/// Measures the native and baseline sizes of a subject.
pub fn sizes(vm: &VmProgram) -> Sizes {
    let mut enc = codecomp_vm::native::X86Encoder::new();
    enc.emit_program(vm);
    let x86 = enc.into_bytes();
    Sizes {
        fixed_native: fixed_width_size(vm),
        x86_native: x86.len(),
        gzip_x86: gzip_compress(&x86, CompressionLevel::Best).len(),
        base_vm: codecomp_vm::encode::code_segment_size(vm),
    }
}

/// BRISC-compresses a subject with default (paper) options.
///
/// # Panics
///
/// Panics on compression failure (subjects are within the envelope).
pub fn brisc(vm: &VmProgram) -> BriscReport {
    brisc_compress(vm, BriscOptions::default()).expect("brisc compression succeeds")
}

/// A simple fixed-width text table writer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction to two decimals.
pub fn frac(compressed: usize, original: usize) -> String {
    format!("{:.2}", compressed as f64 / original as f64)
}

/// Formats a multiplication factor to one decimal.
pub fn factor(original: usize, compressed: usize) -> String {
    format!("{:.1}x", original as f64 / compressed as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subjects_build() {
        let subs = subjects(Scale::CorpusOnly);
        assert_eq!(subs.len(), 10);
        for s in &subs {
            assert!(s.vm.inst_count() > 20, "{} too small", s.name);
        }
    }

    #[test]
    fn sizes_are_consistent() {
        let subs = subjects(Scale::CorpusOnly);
        for s in &subs {
            let sz = sizes(&s.vm);
            assert!(sz.x86_native > 0);
            assert!(
                sz.fixed_native >= sz.x86_native,
                "{}: fixed should be larger",
                s.name
            );
            assert!(
                sz.gzip_x86 < sz.x86_native,
                "{}: gzip should compress",
                s.name
            );
            assert!(sz.base_vm > 0);
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "1234".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn brisc_runs_on_a_subject() {
        let subs = subjects(Scale::CorpusOnly);
        let report = brisc(&subs[0].vm);
        assert!(report.image.code_size() > 0);
    }
}
