//! The inverse property every byte codec satisfies: writing a value and
//! reading the bytes back returns the value and consumes every byte.
//! Each codec is one `Io`-generic function, so the property checks that
//! its two instantiations agree on real values: the corpus and
//! synthetic multi-module programs, under all 24 `WireOptions`
//! combinations for the wire containers and symbol streams, under the
//! default and order-0 BRISC options for the BRISC image, and as the
//! `.ccir` module and the VM instructions compiled from it.

use std::fmt::Debug;

use code_compression::brisc::compress::{compress as brisc_compress, BriscOptions};
use code_compression::brisc::image::{
    code_container as brisc_container, code_entry, code_function, code_header, code_markov,
};
use code_compression::brisc::BriscImage;
use code_compression::core::bytesio::{code_module, Cursor, SymbolTable};
use code_compression::core::Budget;
use code_compression::corpus::{benchmarks, synthetic_modules, MultiModuleConfig};
use code_compression::flate::inflate;
use code_compression::front::compile;
use code_compression::ir::tree::Module;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::encode::code_inst;
use code_compression::vm::isa::{FuncRef, Inst, IsaConfig};
use code_compression::wire::demand::code_image;
use code_compression::wire::format::{
    code_container, code_literal, code_meta, code_pattern, code_symbol_stream,
};
use code_compression::wire::{compress, Coder, DemandImage, WireOptions};

/// Writes `value` with `write`, reads the bytes back with `read` (the
/// same codec, instantiated for the reading side; a closure, since that
/// instance is generic over the cursor's lifetime), and checks that
/// writing left the value unchanged, reading reproduced it, and no
/// byte was left over.
fn check_inverse<T, E>(
    what: &str,
    value: &T,
    write: impl FnOnce(&mut Vec<u8>, &mut T) -> Result<(), E>,
    read: impl FnOnce(&mut Cursor<'_>, &mut T) -> Result<(), E>,
) where
    T: Clone + Default + PartialEq + Debug,
    E: Debug,
{
    let mut bytes = Vec::new();
    let mut written = value.clone();
    write(&mut bytes, &mut written).unwrap_or_else(|e| panic!("{what}: write failed: {e:?}"));
    assert_eq!(&written, value, "{what}: writing changed the value");
    let budget = Budget::unlimited();
    let mut c = Cursor::new(&bytes, &budget);
    let mut back = T::default();
    read(&mut c, &mut back).unwrap_or_else(|e| panic!("{what}: read failed: {e:?}"));
    assert_eq!(&back, value, "{what}: read back a different value");
    assert_eq!(c.remaining(), 0, "{what}: bytes left unread");
}

fn modules() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.compile().unwrap()))
        .collect();
    let config = MultiModuleConfig {
        modules: 2,
        shared_functions: 10,
        functions_per_module: 6,
        statements_per_function: 8,
        globals: 5,
        max_expr_depth: 4,
    };
    for (i, src) in synthetic_modules(7, config).iter().enumerate() {
        out.push((format!("module-{i}"), compile(src).unwrap()));
    }
    out
}

fn option_matrix() -> Vec<WireOptions> {
    let mut out = Vec::new();
    for split_streams in [true, false] {
        for mtf in [true, false] {
            for coder in [Coder::Raw, Coder::Huffman, Coder::Arithmetic] {
                for deflate in [true, false] {
                    out.push(WireOptions {
                        split_streams,
                        mtf,
                        coder,
                        deflate,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn wire_codecs_invert_on_corpus_and_synthetic_modules() {
    let budget = Budget::unlimited();
    for (name, module) in modules() {
        for options in option_matrix() {
            let what = format!("{name}/{options:?}");
            // The container as `compress` framed it.
            let bytes = compress(&module, options).unwrap().bytes;
            let mut framed = (WireOptions::default(), Vec::new());
            code_container(
                &mut Cursor::new(&bytes, &budget),
                &mut framed.0,
                &mut framed.1,
            )
            .unwrap();
            check_inverse(
                &format!("{what}/container"),
                &framed,
                |o, (opts, s)| code_container(o, opts, s),
                |c, (opts, s)| code_container(c, opts, s),
            );
            // Each section as the image carries it: `$meta`, then the
            // pattern and literal streams, each a table and the
            // occurrences over it.
            for (i, (key, payload)) in framed.1.iter().enumerate() {
                let raw = if options.deflate {
                    inflate(payload).unwrap()
                } else {
                    payload.clone()
                };
                let mut c = Cursor::new(&raw, &budget);
                let what = format!("{what}/{key}");
                if i == 0 {
                    let mut meta = (Vec::new(), Vec::new());
                    code_meta(&mut c, &mut meta.0, &mut meta.1).unwrap();
                    check_inverse(
                        &what,
                        &meta,
                        |o, (g, f)| code_meta(o, g, f),
                        |c, (g, f)| code_meta(c, g, f),
                    );
                } else if i == 1 {
                    let mut stream = (Vec::new(), Vec::new());
                    code_symbol_stream(&mut c, options, &mut stream.0, &mut stream.1, code_pattern)
                        .unwrap();
                    check_inverse(
                        &what,
                        &stream,
                        |o, (t, s)| code_symbol_stream(o, options, t, s, code_pattern),
                        |c, (t, s)| code_symbol_stream(c, options, t, s, code_pattern),
                    );
                } else {
                    let mut stream = (Vec::new(), Vec::new());
                    code_symbol_stream(&mut c, options, &mut stream.0, &mut stream.1, code_literal)
                        .unwrap();
                    check_inverse(
                        &what,
                        &stream,
                        |o, (t, s)| code_symbol_stream(o, options, t, s, code_literal),
                        |c, (t, s)| code_symbol_stream(c, options, t, s, code_literal),
                    );
                }
            }
            check_inverse(
                &format!("{what}/demand"),
                &DemandImage::build(&module, options).unwrap(),
                code_image,
                |c, d| code_image(c, d),
            );
        }
    }
}

#[test]
fn brisc_codecs_invert_on_corpus_and_synthetic_modules() {
    let d = BriscOptions::default();
    for (name, module) in modules() {
        let vm = compile_module(&module, IsaConfig::full()).unwrap();
        for options in [d, BriscOptions { order0: true, ..d }] {
            let image = brisc_compress(&vm, options).unwrap().image;
            let what = format!("{name}/order0={}", options.order0);
            for (i, entry) in image.dictionary.iter().enumerate() {
                check_inverse(&format!("{what}/entry {i}"), entry, code_entry, |c, e| {
                    code_entry(c, e)
                });
            }
            check_inverse(
                &format!("{what}/markov"),
                &image.markov,
                code_markov,
                |c, m| code_markov(c, m),
            );
            for f in &image.functions {
                check_inverse(
                    &format!("{what}/function {}", f.name),
                    f,
                    code_function,
                    |c, f| code_function(c, f),
                );
            }
            // The header codes everything but the order-0 flag and the
            // code blob, which the container carries.
            let header = BriscImage {
                order0: false,
                code: Vec::new(),
                ..image.clone()
            };
            check_inverse(&format!("{what}/header"), &header, code_header, |c, h| {
                code_header(c, h)
            });
            // The container as `to_bytes` framed it.
            let bytes = image.to_bytes();
            let budget = Budget::unlimited();
            let mut container = (BriscImage::default(), Vec::new());
            brisc_container(
                &mut Cursor::new(&bytes, &budget),
                &mut container.0,
                &mut container.1,
            )
            .unwrap();
            check_inverse(
                &format!("{what}/container"),
                &container,
                |o, (img, packed)| brisc_container(o, img, packed),
                |c, (img, packed)| brisc_container(c, img, packed),
            );
        }
    }
}

#[test]
fn module_and_instruction_codecs_invert_on_corpus_and_synthetic_modules() {
    for (name, module) in modules() {
        check_inverse(&format!("{name}/ccir"), &module, code_module, |c, m| {
            code_module(c, m)
        });
        // The code as compiled: branch targets are function-relative
        // instruction indices.
        let vm = compile_module(&module, IsaConfig::full()).unwrap();
        let code = vm.functions.iter().flat_map(|f| &f.code);
        let mut symbols = SymbolTable::default();
        for i in code.clone() {
            if let Inst::Call {
                target: FuncRef::Symbol(callee),
            } = i
            {
                symbols.intern(callee);
            }
        }
        for (k, inst) in code.enumerate() {
            check_inverse(
                &format!("{name}/inst {k} {inst}"),
                inst,
                |o, i| code_inst(o, i, &symbols),
                |c, i| code_inst(c, i, &symbols),
            );
        }
    }
}
