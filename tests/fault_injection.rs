//! Fault-injection harness: every decoder must be *total*.
//!
//! For each corpus program we build the serialized artifacts the
//! toolchain ships — a wire-format image, a function-at-a-time demand
//! image, a gzip member, and a BRISC image (fed to both the lazy
//! interpreter and the eager translator) — then attack each decoder
//! two ways:
//!
//! 1. truncation at **every** prefix boundary of the payload, and
//! 2. ≥ 1,000 seeded mutations (truncations, single-bit flips, random
//!    byte splices) from [`mutation_schedule`].
//!
//! A decoder may reject a mutated input (any error is fine) or accept
//! it (a mutation can be semantically neutral), but it must never
//! panic. Unmutated payloads must round-trip bit-exactly. Each input
//! goes through the decoder's default entry point and through its
//! budgeted one under [`tight_limits`], so both the unmetered and the
//! metered paths, and their limit trips, are swept.
//!
//! Everything is deterministic: the mutation streams come from the
//! in-tree xorshift PRNG, so a failing seed reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};

use code_compression::brisc::compress::{compress as brisc_compress, BriscOptions};
use code_compression::brisc::entry::DictEntry;
use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::markov::{MarkovTables, SuccessorTable, BLOCK_START};
use code_compression::brisc::translate::translate;
use code_compression::brisc::BriscImage;
use code_compression::coding::mtf::mtf_decode;
use code_compression::core::fault::{assert_decoder_total, XorShift64};
use code_compression::core::{Budget, DecodeLimits};
use code_compression::corpus::benchmarks;
use code_compression::flate::{
    gzip_compress, gzip_decompress, gzip_decompress_budgeted, CompressionLevel,
};
use code_compression::ir::Module;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{
    compress as wire_compress, decompress as wire_decompress, decompress_budgeted, DemandImage,
    WireError, WireOptions,
};

/// Seeded mutations per payload. Three corpus programs per decoder
/// puts every decoder comfortably past the 1,000-mutation floor.
const MUTATIONS_PER_PAYLOAD: usize = 350;

/// Per-input budgets small enough that decode bombs are cut off fast;
/// `tests/regressions.rs` replays its reproducers under the same ones.
fn tight_limits() -> DecodeLimits {
    DecodeLimits {
        max_output_bytes: 1 << 22,
        decode_fuel: 1 << 24,
        max_resident_bytes: 1 << 22,
        ..DecodeLimits::default()
    }
}

/// Three small corpus programs (smallest sources compile and mutate
/// fastest; the decoders under attack are the same regardless).
fn test_modules() -> Vec<(&'static str, Module)> {
    let mut suite = benchmarks();
    suite.sort_by_key(|b| b.source.len());
    suite
        .iter()
        .take(3)
        .map(|b| (b.name, b.compile().expect("corpus programs compile")))
        .collect()
}

/// Runs `decode` over every prefix of `payload` and over the seeded
/// mutation schedule, asserting that no input panics. Thin wrapper
/// over the shared sweep loop in `core::fault`.
fn attack(what: &str, payload: &[u8], seed: u64, decode: impl FnMut(&[u8])) {
    assert_decoder_total(what, payload, seed, MUTATIONS_PER_PAYLOAD, decode);
}

#[test]
fn wire_decoder_is_total_under_mutation() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        let packed = wire_compress(module, WireOptions::default()).expect("wire compress");
        let back = wire_decompress(&packed.bytes).expect("valid image decodes");
        assert_eq!(&back, module, "{name}: wire round-trip not bit-exact");
        attack(
            &format!("wire/{name}"),
            &packed.bytes,
            0x57AB_0000 + i as u64,
            |bytes| {
                let _ = wire_decompress(bytes);
                let _ = decompress_budgeted(bytes, &Budget::new(tight_limits()));
            },
        );
    }
}

#[test]
fn gzip_decoder_is_total_under_mutation() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        // Gzip the wire image: a realistic, DEFLATE-rich payload.
        let inner = wire_compress(module, WireOptions::default())
            .expect("wire compress")
            .bytes;
        let payload = gzip_compress(&inner, CompressionLevel::Best);
        assert_eq!(
            gzip_decompress(&payload).expect("valid member decodes"),
            inner,
            "{name}: gzip round-trip not bit-exact"
        );
        attack(
            &format!("gzip/{name}"),
            &payload,
            0x6210_0000 + i as u64,
            |bytes| {
                let _ = gzip_decompress(bytes);
                let limits = tight_limits();
                if let Ok(out) = gzip_decompress_budgeted(bytes, &Budget::new(limits)) {
                    assert!(
                        out.len() as u64 <= limits.max_output_bytes,
                        "gzip output {} bytes exceeds the {}-byte ceiling",
                        out.len(),
                        limits.max_output_bytes
                    );
                }
            },
        );
    }
}

#[test]
fn demand_image_decoder_is_total_under_mutation() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        let image = DemandImage::build(module, WireOptions::default()).expect("demand build");
        let payload = image.to_bytes();
        assert_eq!(
            DemandImage::from_bytes(&payload)
                .expect("valid image parses")
                .load_all()
                .expect("valid image loads"),
            *module,
            "{name}: demand round-trip not bit-exact"
        );
        // Truncation must be *diagnosed as truncation*: every strict
        // prefix fails cleanly with `Truncated`, never an index panic
        // and never a mistaken structural error.
        for len in 0..payload.len() {
            assert_eq!(
                DemandImage::from_bytes(&payload[..len]).expect_err("prefix must not parse"),
                WireError::Truncated,
                "demand/{name}: {len}-byte prefix misclassified"
            );
        }
        attack(
            &format!("demand/{name}"),
            &payload,
            0xDE4A_0000 + i as u64,
            |bytes| {
                // A mutated image that still parses must also survive
                // full unit decompression.
                if let Ok(img) = DemandImage::from_bytes(bytes) {
                    let _ = img.load_all();
                    let _ = img.load_all_budgeted(&Budget::new(tight_limits()));
                }
            },
        );
    }
}

#[test]
fn brisc_translator_is_total_under_mutation() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        let vm = compile_module(module, IsaConfig::full()).expect("codegen");
        let image = brisc_compress(&vm, BriscOptions::default())
            .expect("brisc compress")
            .image;
        let payload = image.to_bytes();
        translate(&image).expect("valid image translates");
        attack(
            &format!("brisc-translate/{name}"),
            &payload,
            0xB415_1000 + i as u64,
            |bytes| {
                // The translator decodes the full code stream eagerly,
                // so it reaches bytes the lazy interpreter may never
                // touch; a loadable-but-mutated image must still fail
                // (or succeed) without panicking.
                if let Ok(img) = BriscImage::from_bytes(bytes) {
                    let _ = translate(&img);
                }
            },
        );
    }
}

/// One seeded structural mutation of an already-*decoded* image — the
/// second half of the totality contract: consumers must survive not
/// just hostile bytes but hostile decoded structures (dictionaries,
/// Markov tables, function metadata) handed to them directly.
fn mutate_decoded_image(img: &BriscImage, rng: &mut XorShift64) -> BriscImage {
    let mut m = img.clone();
    match rng.below(9) {
        0 => {
            if !m.dictionary.is_empty() {
                let i = rng.range_usize(0, m.dictionary.len() - 1);
                m.dictionary.remove(i);
            }
        }
        1 => {
            if m.dictionary.len() >= 2 {
                let i = rng.range_usize(0, m.dictionary.len() - 1);
                let j = rng.range_usize(0, m.dictionary.len() - 1);
                m.dictionary[i] = m.dictionary[j].clone();
            }
        }
        2 => {
            // An empty entry violates the serialized invariant; decoded
            // consumers must still reject it without panicking.
            if !m.dictionary.is_empty() {
                let i = rng.range_usize(0, m.dictionary.len() - 1);
                m.dictionary[i] = DictEntry {
                    patterns: Vec::new(),
                };
            }
        }
        3 => {
            // A Markov successor pointing past the dictionary.
            let mut lists: Vec<(u32, Vec<u32>)> = m
                .markov
                .iter_sorted()
                .iter()
                .map(|(c, s)| (*c, s.to_vec()))
                .collect();
            if !lists.is_empty() {
                let i = rng.range_usize(0, lists.len() - 1);
                lists[i].1.push(rng.below(1 << 16) as u32);
            }
            m.markov = MarkovTables::from_lists(lists);
        }
        4 => {
            // Drop a whole context list.
            let mut lists: Vec<(u32, Vec<u32>)> = m
                .markov
                .iter_sorted()
                .iter()
                .map(|(c, s)| (*c, s.to_vec()))
                .collect();
            if !lists.is_empty() {
                let i = rng.range_usize(0, lists.len() - 1);
                lists.remove(i);
            }
            m.markov = MarkovTables::from_lists(lists);
        }
        5 => {
            // Corrupt one function's code bounds.
            if !m.functions.is_empty() {
                let i = rng.range_usize(0, m.functions.len() - 1);
                m.functions[i].start = rng.below(2 * m.code.len() as u64 + 2) as u32;
                m.functions[i].len = rng.below(2 * m.code.len() as u64 + 2) as u32;
            }
        }
        6 => {
            // Bogus extra-leader offsets (wrong contexts at decode).
            if !m.functions.is_empty() {
                let i = rng.range_usize(0, m.functions.len() - 1);
                m.functions[i].extra_leaders = vec![rng.below(1 << 16) as u32];
            }
        }
        7 => {
            // Bit flips inside the code blob.
            if !m.code.is_empty() {
                for _ in 0..4 {
                    let i = rng.range_usize(0, m.code.len() - 1);
                    m.code[i] ^= 1 << rng.below(8);
                }
            }
        }
        _ => {
            let keep = rng.below(m.code.len() as u64 + 1) as usize;
            m.code.truncate(keep);
        }
    }
    m
}

#[test]
fn mutated_decoded_brisc_structures_do_not_panic() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        let vm = compile_module(module, IsaConfig::full()).expect("codegen");
        let image = brisc_compress(&vm, BriscOptions::default())
            .expect("brisc compress")
            .image;
        let mut rng = XorShift64::new(0xDEC0_0000 + i as u64);
        for step in 0..MUTATIONS_PER_PAYLOAD {
            let mutated = mutate_decoded_image(&image, &mut rng);
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _ = translate(&mutated);
                if let Ok(mut m) = BriscMachine::new(&mutated, 1 << 16, 2_048) {
                    let _ = m.run("main", &[]);
                }
                // The governed path (validation scan + quarantine) must
                // be just as total.
                let limits = DecodeLimits {
                    decode_fuel: 4_096,
                    ..DecodeLimits::default()
                };
                if let Ok(mut m) = BriscMachine::new_governed(&mutated, 1 << 16, 2_048, limits) {
                    let _ = m.run("main", &[]);
                }
            }));
            assert!(
                r.is_ok(),
                "brisc-decoded/{name}: panic on structural mutation {step}"
            );
        }
    }
}

#[test]
fn mutated_mtf_state_does_not_panic() {
    let mut rng = XorShift64::new(0x3A7F_0001);
    for _ in 0..2_000 {
        let n = rng.below(24) as usize;
        let indices: Vec<u32> = (0..n).map(|_| rng.below(40) as u32).collect();
        let table_len = rng.below(12) as usize;
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Some(out) = mtf_decode(&indices, table_len) {
                assert_eq!(out.len(), indices.len());
                assert!(out.iter().all(|&s| (s as usize) < table_len));
            }
        }));
        assert!(r.is_ok(), "mtf decoder panicked on fuzzed state");
    }
}

#[test]
fn mutated_markov_tables_do_not_panic() {
    let mut rng = XorShift64::new(0x3A7F_0002);
    for step in 0..1_500 {
        let nlists = rng.below(6) as usize;
        let lists: Vec<(u32, Vec<u32>)> = (0..nlists)
            .map(|_| {
                let ctx = if rng.chance(1, 4) {
                    BLOCK_START
                } else {
                    rng.below(300) as u32
                };
                let n = rng.below(10) as usize;
                (ctx, (0..n).map(|_| rng.below(300) as u32).collect())
            })
            .collect();
        // Any dictionary size, including one smaller than the context ids.
        let entries = rng.below(301) as usize;
        let tables = SuccessorTable::new(&MarkovTables::from_lists(lists), entries);
        let code: Vec<u8> = (0..rng.below(12)).map(|_| rng.next_u64() as u8).collect();
        // The cursor may start at or past the end of the code.
        let mut pos = rng.below(code.len() as u64 + 3) as usize;
        let ctx = if rng.chance(1, 2) {
            BLOCK_START
        } else {
            rng.below(300) as u32
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _ = tables.decode_opcode(ctx, &code, &mut pos);
        }));
        assert!(r.is_ok(), "markov decoder panicked on fuzzed tables ({step})");
    }
}

#[test]
fn brisc_loader_and_interpreter_are_total_under_mutation() {
    for (i, (name, module)) in test_modules().iter().enumerate() {
        let vm = compile_module(module, IsaConfig::full()).expect("codegen");
        let image = brisc_compress(&vm, BriscOptions::default())
            .expect("brisc compress")
            .image;
        let payload = image.to_bytes();
        assert_eq!(
            BriscImage::from_bytes(&payload).expect("valid image loads"),
            image,
            "{name}: brisc image round-trip not bit-exact"
        );
        attack(
            &format!("brisc/{name}"),
            &payload,
            0xB415_0000 + i as u64,
            |bytes| {
                // A mutated image that still loads must also be safe to
                // *run*: the in-place interpreter decodes lazily, so the
                // loader alone does not exercise the code stream.
                if let Ok(img) = BriscImage::from_bytes(bytes) {
                    if let Ok(mut m) = BriscMachine::new(&img, 1 << 16, 2_048) {
                        let _ = m.run("main", &[]);
                    }
                }
                // The budgeted loader, and the governed machine's
                // validation scan and quarantine, under tight limits.
                let limits = tight_limits();
                if let Ok(img) = BriscImage::from_bytes_budgeted(bytes, &Budget::new(limits)) {
                    if let Ok(mut m) = BriscMachine::new_governed(&img, 1 << 16, 1 << 14, limits) {
                        let _ = m.run("main", &[]);
                    }
                }
            },
        );
    }
}
