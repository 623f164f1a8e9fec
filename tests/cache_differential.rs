//! Differential decode across decode order: the wire decoder keeps no
//! process-wide state, so the result of decoding an image must not
//! depend on what was decoded before it.
//!
//! Every corpus module is decoded three ways under every option
//! combination — first ("cold"), again right after itself ("warm"), and
//! interleaved with every other module's image — and all paths must
//! reproduce the original module exactly.

use code_compression::corpus::benchmarks;
use code_compression::ir::Module;
use code_compression::wire::{compress, decompress, Coder, WireOptions};

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
            let cold = decompress(image).expect("cold decode");
            assert_eq!(&cold, *module, "{oname}/{name}: cold decode differs");
            let warm = decompress(image).expect("warm decode");
            assert_eq!(cold, warm, "{oname}/{name}: warm decode differs from cold");
        }
        // Interleaved: each decode follows a different module's decode.
        for _ in 0..2 {
            for (name, module, image) in &images {
                let got = decompress(image).expect("interleaved decode");
                assert_eq!(&got, *module, "{oname}/{name}: interleaved decode differs");
            }
        }
    }
}
