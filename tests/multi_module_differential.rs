//! Differential round-trip for multi-module synthetic programs.
//!
//! The corpus synthesizer emits translation units that share a
//! byte-identical prelude (the repetition that makes cross-module
//! decode-table interning observable) on top of module-private
//! functions with deep expression spines. Every unit must round-trip
//! byte-exactly through the wire encoder → decoder at every option
//! combination, whether the decode-structure caches are cold, warm
//! from the same module, or warm with the *other* modules' tables —
//! caching must be unobservable in decoder output.

use code_compression::coding::huffman::clear_decoder_cache;
use code_compression::corpus::{synthetic_modules, MultiModuleConfig};
use code_compression::flate::inflate::clear_table_cache;
use code_compression::front::compile;
use code_compression::ir::binary::encode_module;
use code_compression::ir::Module;
use code_compression::wire::{compress, decompress, Coder, WireOptions};

fn clear_all_decode_caches() {
    clear_decoder_cache();
    clear_table_cache();
}

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
    let modules = synthetic_program(0x00DD_BA11);
    for (oname, options) in option_matrix() {
        let images: Vec<Vec<u8>> = modules
            .iter()
            .map(|m| compress(m, options).expect("compress").bytes)
            .collect();
        for (i, (module, image)) in modules.iter().zip(&images).enumerate() {
            // Cold: every decode structure is a per-section rebuild.
            clear_all_decode_caches();
            let cold = decompress(image).expect("cold decode");
            assert_byte_exact(&format!("{oname}/module{i}/cold"), module, &cold);
            // Warm from the same module.
            let warm = decompress(image).expect("warm decode");
            assert_byte_exact(&format!("{oname}/module{i}/warm"), module, &warm);
        }
        // Cross-module warm: decode every unit with the caches full of
        // the *other* units' tables — the shared prelude means most
        // lookups hit entries another module interned, and they must
        // be indistinguishable from fresh rebuilds.
        clear_all_decode_caches();
        for round in 0..2 {
            for (i, (module, image)) in modules.iter().zip(&images).enumerate() {
                let got = decompress(image).expect("cross-module decode");
                assert_byte_exact(&format!("{oname}/module{i}/cross-round{round}"), module, &got);
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
        clear_all_decode_caches();
        for (i, module) in modules.iter().enumerate() {
            let image = compress(module, WireOptions::default())
                .expect("compress")
                .bytes;
            let back = decompress(&image).expect("decode");
            assert_byte_exact(&format!("seed{seed:#x}/module{i}"), module, &back);
        }
    }
}
