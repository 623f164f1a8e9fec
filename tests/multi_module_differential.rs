//! Differential round trips for the wire encoder and decoder.
//!
//! The inputs are the bundled corpus plus multi-module synthetic
//! programs: translation units that share a byte-identical prelude on
//! top of module-private functions with deep expression spines. Every
//! module must round-trip byte-exactly through the wire encoder →
//! decoder, and through a demand image (whole-module and per-function
//! loads), at every option combination. The decoders hold no state
//! between calls, so each image is decoded once.

use code_compression::core::bytesio::encode_module;
use code_compression::corpus::{benchmarks, synthetic_modules, MultiModuleConfig};
use code_compression::front::compile;
use code_compression::ir::Module;
use code_compression::wire::{compress, decompress, Coder, DemandImage, WireOptions};

/// Every pipeline-stage combination the container can express.
fn option_matrix() -> Vec<(&'static str, WireOptions)> {
    vec![
        ("default", WireOptions::default()),
        (
            "raw-coder",
            WireOptions {
                coder: Coder::Raw,
                ..WireOptions::default()
            },
        ),
        (
            "arith-coder",
            WireOptions {
                coder: Coder::Arithmetic,
                ..WireOptions::default()
            },
        ),
        (
            "no-mtf",
            WireOptions {
                mtf: false,
                ..WireOptions::default()
            },
        ),
        (
            "no-deflate",
            WireOptions {
                deflate: false,
                ..WireOptions::default()
            },
        ),
        (
            "mixed-stream",
            WireOptions {
                split_streams: false,
                ..WireOptions::default()
            },
        ),
    ]
}

fn synthetic_program(seed: u64) -> Vec<Module> {
    let sources = synthetic_modules(
        seed,
        MultiModuleConfig {
            modules: 3,
            shared_functions: 6,
            functions_per_module: 10,
            statements_per_function: 5,
            globals: 3,
            max_expr_depth: 5,
        },
    );
    sources
        .iter()
        .map(|src| compile(src).expect("synthetic module compiles"))
        .collect()
}

/// The synthetic program's modules followed by the bundled corpus,
/// each with a name for failure messages.
fn inputs() -> Vec<(String, Module)> {
    let synth = synthetic_program(0x00DD_BA11)
        .into_iter()
        .enumerate()
        .map(|(i, m)| (format!("module{i}"), m));
    let corpus = benchmarks().into_iter().map(|b| {
        (
            b.name.to_string(),
            b.compile().expect("corpus programs compile"),
        )
    });
    synth.chain(corpus).collect()
}

/// Asserts `decoded` is byte-exactly the module that was encoded: the
/// IR trees compare equal *and* their binary serializations match.
fn assert_byte_exact(context: &str, original: &Module, decoded: &Module) {
    assert_eq!(decoded, original, "{context}: decoded module differs");
    assert_eq!(
        encode_module(decoded).expect("re-encode decoded"),
        encode_module(original).expect("re-encode original"),
        "{context}: binary serialization differs"
    );
}

#[test]
fn multi_module_round_trips_at_every_option_combination() {
    let inputs = inputs();
    for (oname, options) in option_matrix() {
        for (name, module) in &inputs {
            let image = compress(module, options).expect("compress").bytes;
            let back = decompress(&image).expect("decode");
            assert_byte_exact(&format!("{oname}/{name}"), module, &back);
        }
    }
}

#[test]
fn demand_images_invert_at_every_option_combination() {
    let inputs = inputs();
    for (oname, options) in option_matrix() {
        for (name, module) in &inputs {
            let built = DemandImage::build(module, options).expect("demand build");
            let image = DemandImage::from_bytes(&built.to_bytes()).expect("demand image reloads");
            let all = image.load_all().expect("load_all");
            assert_byte_exact(&format!("demand/{oname}/{name}"), module, &all);
            for f in &module.functions {
                let got = image.load_function(&f.name).expect("unit decode");
                assert_eq!(&got, f, "demand/{oname}/{name}/{}: unit differs", f.name);
            }
        }
    }
}

#[test]
fn multi_module_round_trip_is_seed_stable() {
    // A second seed, default options only: guards against the synth
    // generator drifting into programs the wire pipeline mishandles.
    for seed in [1u64, 0xFEED_5EED] {
        let modules = synthetic_program(seed);
        for (i, module) in modules.iter().enumerate() {
            let image = compress(module, WireOptions::default())
                .expect("compress")
                .bytes;
            let back = decompress(&image).expect("decode");
            assert_byte_exact(&format!("seed{seed:#x}/module{i}"), module, &back);
        }
    }
}
