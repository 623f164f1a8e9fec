//! Differential decode across cache states: caching must be
//! *unobservable* in decoder output.
//!
//! The wire decoder interns two kinds of decode structures behind
//! process-wide caches — canonical Huffman tables (coding) and DEFLATE
//! dynamic tables (flate). A
//! cached table is only sound if it is indistinguishable from a fresh
//! per-section rebuild, so every corpus module is decoded three ways —
//! cold caches, warm caches, and interleaved with other modules so the
//! caches fill with foreign entries — and all paths must reproduce the
//! original module exactly, under every option combination.
//!
//! The second half attacks cache *poisoning*: seeded mutations of a
//! valid image are decoded with warm caches, and after every hostile
//! attempt the unmutated image must still decode correctly. Failed
//! builds are never cached, so no mutation may leave residue that
//! corrupts a later decode.

use code_compression::coding::huffman::clear_decoder_cache;
use code_compression::core::fault::sweep_decoder;
use code_compression::corpus::benchmarks;
use code_compression::flate::inflate::clear_table_cache;
use code_compression::ir::Module;
use code_compression::wire::{compress, decompress, Coder, DemandImage, WireOptions};

/// Empties every decode-structure cache the wire pipeline consults.
fn clear_all_decode_caches() {
    clear_decoder_cache();
    clear_table_cache();
}

/// Every pipeline-stage combination the container can express, so the
/// cached paths are compared against the rebuild paths on all of them.
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

fn corpus_modules() -> Vec<(&'static str, Module)> {
    benchmarks()
        .iter()
        .map(|b| (b.name, b.compile().expect("corpus programs compile")))
        .collect()
}

#[test]
fn cold_warm_and_cross_module_decodes_agree() {
    let modules = corpus_modules();
    for (oname, options) in option_matrix() {
        let images: Vec<(&str, &Module, Vec<u8>)> = modules
            .iter()
            .map(|(name, m)| (*name, m, compress(m, options).expect("compress").bytes))
            .collect();
        for (name, module, image) in &images {
            // Cold: every table is a per-section rebuild.
            clear_all_decode_caches();
            let cold = decompress(image).expect("cold decode");
            assert_eq!(&cold, *module, "{oname}/{name}: cold decode differs");
            // Warm: every table the image describes is already interned.
            let warm = decompress(image).expect("warm decode");
            assert_eq!(cold, warm, "{oname}/{name}: warm decode differs from cold");
        }
        // Interleaved: caches hold every module's tables at once, so
        // lookups must key on content, not on decode order.
        for _ in 0..2 {
            for (name, module, image) in &images {
                let got = decompress(image).expect("interleaved decode");
                assert_eq!(&got, *module, "{oname}/{name}: interleaved decode differs");
            }
        }
    }
}

#[test]
fn demand_units_decode_identically_cold_and_warm() {
    for (name, module) in corpus_modules().iter().take(4) {
        let image = DemandImage::build(module, WireOptions::default()).expect("demand build");
        for f in &module.functions {
            clear_all_decode_caches();
            let cold = image.load_function(&f.name).expect("cold unit decode");
            let warm = image.load_function(&f.name).expect("warm unit decode");
            assert_eq!(&cold, f, "demand/{name}/{}: cold unit differs", f.name);
            assert_eq!(cold, warm, "demand/{name}/{}: warm unit differs", f.name);
        }
        clear_all_decode_caches();
        assert_eq!(
            &image.load_all().expect("cold load_all"),
            module,
            "demand/{name}: cold load_all differs"
        );
        assert_eq!(
            &image.load_all().expect("warm load_all"),
            module,
            "demand/{name}: warm load_all differs"
        );
    }
}

/// Seeded mutations per attacked image; three images keeps the suite
/// past 1,000 hostile decodes.
const MUTATIONS_PER_PAYLOAD: usize = 350;

#[test]
fn hostile_inputs_cannot_poison_warm_caches() {
    let mut suite = benchmarks();
    suite.sort_by_key(|b| b.source.len());
    for (i, b) in suite.iter().take(3).enumerate() {
        let module = b.compile().expect("corpus compiles");
        let image = compress(&module, WireOptions::default())
            .expect("compress")
            .bytes;
        // Warm every cache with the valid image's tables.
        clear_all_decode_caches();
        assert_eq!(decompress(&image).expect("valid decode"), module);
        sweep_decoder(
            &format!("wire/{}", b.name),
            &image,
            0xCAFE_0000 + i as u64,
            MUTATIONS_PER_PAYLOAD,
            false,
            |bytes| {
                let _ = decompress(bytes);
            },
            |case| {
                // The hostile attempt must leave no residue: the valid
                // image still decodes to the same module afterwards.
                let back = decompress(&image).expect("valid image decodes after hostile attempt");
                assert_eq!(
                    back, module,
                    "wire/{}: decode differs after hostile {case}",
                    b.name
                );
            },
        );
    }
}
