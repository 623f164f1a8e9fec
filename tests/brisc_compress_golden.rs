//! Pins the BRISC compressor's output: for every corpus program under
//! every option set, plus synthetic modules, the image bytes (FNV-1a
//! hash and length), pass count, candidates tested and dictionary size
//! must equal values recorded before the candidate scorer learned to
//! skip keys that cannot reach a positive `P`. The scorer is exact, so
//! any drift here is a behaviour change, not noise.
//!
//! The synth-lcc-scale (300-function) and synth-gcc-scale
//! (1200-function) cases are `#[ignore]`d (too slow for the debug
//! profile); `scripts/ci.sh` runs them with `--release
//! --include-ignored`.
//!
//! A mismatch prints every case's actual row in the table's syntax.

use code_compression::brisc::compress::{compress, BriscOptions, BriscReport};
use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::translate;
use code_compression::brisc::BriscImage;
use code_compression::core::dict::MemoryRegime;
use code_compression::corpus::{
    benchmarks, synthetic, synthetic_modules, MultiModuleConfig, SynthConfig,
};
use code_compression::front::compile;
use code_compression::ir::eval::Evaluator;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::vm::program::VmProgram;

/// One pinned compression: program, option set, image hash, image
/// length, passes, candidates tested, dictionary entries, base entries.
type Row = (
    &'static str,
    &'static str,
    u64,
    usize,
    usize,
    usize,
    usize,
    usize,
);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn variants() -> Vec<(&'static str, BriscOptions)> {
    let d = BriscOptions::default();
    vec![
        ("default", d),
        (
            "no-combination",
            BriscOptions {
                combination: false,
                ..d
            },
        ),
        (
            "no-specialization",
            BriscOptions {
                specialization: false,
                ..d
            },
        ),
        ("no-x4", BriscOptions { x4: false, ..d }),
        ("no-epi", BriscOptions { epi: false, ..d }),
        ("order0", BriscOptions { order0: true, ..d }),
        (
            "abundant",
            BriscOptions {
                regime: MemoryRegime::Abundant,
                ..d
            },
        ),
        (
            "table-charge-6",
            BriscOptions {
                table_charge: 6,
                ..d
            },
        ),
        ("k-5", BriscOptions { k: 5, ..d }),
    ]
}

fn vm_of(src: &str) -> VmProgram {
    compile_module(&compile(src).unwrap(), IsaConfig::full()).unwrap()
}

fn pin(program: &'static str, variant: &'static str, r: &BriscReport) -> Row {
    let bytes = r.image.to_bytes();
    (
        program,
        variant,
        fnv1a(&bytes),
        bytes.len(),
        r.passes,
        r.candidates_tested,
        r.dictionary_entries,
        r.base_entries,
    )
}

/// Compares actual rows to the expected table, reporting every
/// mismatch and the full actual table on failure.
fn check(actual: &[Row], expected: &[Row]) {
    let mut bad = Vec::new();
    for row in actual {
        match expected.iter().find(|e| e.0 == row.0 && e.1 == row.1) {
            Some(e) if e == row => {}
            Some(e) => bad.push(format!("{}/{}: expected {e:?}, got {row:?}", row.0, row.1)),
            None => bad.push(format!("{}/{}: no recorded row", row.0, row.1)),
        }
    }
    if !bad.is_empty() {
        let table: String = actual
            .iter()
            .map(|r| {
                format!(
                    "    ({:?}, {:?}, {:#018x}, {}, {}, {}, {}, {}),\n",
                    r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7
                )
            })
            .collect();
        panic!("{}\nactual rows:\n{table}", bad.join("\n"));
    }
}

#[rustfmt::skip]
const CORPUS: &[Row] = &[
    ("vmsim", "default", 0xb071881963b08ce7, 2240, 4, 3859, 84, 24),
    ("vmsim", "no-combination", 0xed8bc17559b829cc, 2101, 1, 173, 43, 24),
    ("vmsim", "no-specialization", 0x39c988f2758c06f1, 2136, 2, 199, 48, 24),
    ("vmsim", "no-x4", 0x88bc9448aa39a6d0, 2059, 4, 3931, 85, 24),
    ("vmsim", "no-epi", 0x7ae5ee69f2d74acd, 2385, 4, 4227, 88, 28),
    ("vmsim", "order0", 0x5a9fe6c3a05a5b04, 2163, 4, 3859, 84, 24),
    ("vmsim", "abundant", 0xcc169dfd1d295b85, 2240, 5, 5660, 106, 24),
    ("vmsim", "table-charge-6", 0xb071881963b08ce7, 2240, 4, 3859, 84, 24),
    ("vmsim", "k-5", 0x66a41eff013fefb8, 2152, 4, 4345, 39, 24),
    ("dsp", "default", 0xdcd89ccc913aa697, 1243, 2, 4257, 47, 27),
    ("dsp", "no-combination", 0x1b27f39fbe9f8da1, 1245, 1, 121, 35, 27),
    ("dsp", "no-specialization", 0xf27e8e5b81f9af80, 1244, 1, 122, 42, 27),
    ("dsp", "no-x4", 0x6baf8cecb2187e43, 1240, 2, 3856, 47, 27),
    ("dsp", "no-epi", 0x061d7963948a7a71, 1348, 2, 4537, 49, 29),
    ("dsp", "order0", 0x74db512376cce298, 1150, 2, 4257, 47, 27),
    ("dsp", "abundant", 0x8595e66b6b8ffef0, 1252, 2, 4201, 53, 27),
    ("dsp", "table-charge-6", 0xacbc71956830cb81, 1246, 1, 2366, 42, 27),
    ("dsp", "k-5", 0x57605c964a31e113, 1279, 2, 2696, 32, 27),
    ("pack", "default", 0x0d538ba475e288d7, 1125, 2, 3402, 47, 27),
    ("pack", "no-combination", 0x27880a83a2f5e64e, 1148, 1, 93, 32, 27),
    ("pack", "no-specialization", 0x134b0c947e2d245d, 1117, 1, 131, 37, 27),
    ("pack", "no-x4", 0xb9ebfaecae17c32f, 1134, 1, 1608, 42, 27),
    ("pack", "no-epi", 0x0f025b792ee3bc17, 1225, 2, 4001, 49, 29),
    ("pack", "order0", 0x78c6aef453432386, 1029, 2, 3402, 47, 27),
    ("pack", "abundant", 0xe7dc4ea3eb2e08d8, 1129, 2, 3393, 47, 27),
    ("pack", "table-charge-6", 0xc3e8af339a75a0b8, 1123, 1, 1904, 36, 27),
    ("pack", "k-5", 0x6979e9cb72ca47dd, 1159, 2, 2266, 32, 27),
    ("sortlib", "default", 0x08b6073314648c6d, 1742, 2, 4431, 63, 31),
    ("sortlib", "no-combination", 0xab316818e9023f86, 1696, 2, 107, 51, 31),
    ("sortlib", "no-specialization", 0x564021229d83cddd, 1687, 2, 240, 51, 31),
    ("sortlib", "no-x4", 0x78b0c91f30ce483c, 1717, 2, 3965, 51, 31),
    ("sortlib", "no-epi", 0xe8e58723a1b29ed1, 1884, 2, 4849, 65, 33),
    ("sortlib", "order0", 0x341e8324bdba52f8, 1640, 2, 4431, 63, 31),
    ("sortlib", "abundant", 0xe3c668c2fea098da, 1764, 3, 5106, 83, 31),
    ("sortlib", "table-charge-6", 0xdbfc4580e2bb642b, 1711, 2, 4431, 51, 31),
    ("sortlib", "k-5", 0x06558e630d493e74, 1696, 3, 4198, 42, 31),
    ("calc", "default", 0xb13d1fab8280ac24, 1424, 2, 3419, 61, 29),
    ("calc", "no-combination", 0x4fa349f4cbf4f4a5, 1413, 1, 142, 45, 29),
    ("calc", "no-specialization", 0x608d7fffdd16adc7, 1432, 1, 163, 44, 29),
    ("calc", "no-x4", 0xe3650a8142c66f89, 1405, 2, 3134, 57, 29),
    ("calc", "no-epi", 0x1af4383c20ef5379, 1564, 2, 3668, 51, 31),
    ("calc", "order0", 0xe6047fd574791e72, 1327, 2, 3419, 61, 29),
    ("calc", "abundant", 0x3e4cd9ec84e03945, 1483, 3, 3310, 83, 29),
    ("calc", "table-charge-6", 0x80d998b78222eeaa, 1400, 2, 3419, 49, 29),
    ("calc", "k-5", 0x19d38a2fb229fe2a, 1416, 2, 2951, 34, 29),
    ("life", "default", 0x8eb8c958abe85b82, 1535, 3, 2799, 63, 23),
    ("life", "no-combination", 0xa5fb90291711936a, 1430, 1, 109, 36, 23),
    ("life", "no-specialization", 0x2c256118122d17fb, 1455, 2, 172, 43, 23),
    ("life", "no-x4", 0x33c26760049e53d5, 1532, 2, 2132, 62, 23),
    ("life", "no-epi", 0xe38a2686a00788bc, 1650, 3, 3412, 65, 25),
    ("life", "order0", 0x7b700db828ace7ff, 1469, 3, 2799, 63, 23),
    ("life", "abundant", 0xcb35773c53bfaca1, 1518, 3, 2779, 74, 23),
    ("life", "table-charge-6", 0xeec1db48720859b4, 1532, 2, 2581, 62, 23),
    ("life", "k-5", 0xdf08863772038736, 1429, 4, 2584, 38, 23),
    ("hash", "default", 0x1fde1ebf14cb708f, 849, 1, 1529, 42, 27),
    ("hash", "no-combination", 0x4773924696dd692a, 833, 1, 88, 32, 27),
    ("hash", "no-specialization", 0x66f56f84ce8cd8b6, 869, 1, 111, 36, 27),
    ("hash", "no-x4", 0x407d0ed5e31534e2, 852, 1, 1309, 34, 27),
    ("hash", "no-epi", 0x14b357d2a7afc479, 929, 2, 2872, 49, 29),
    ("hash", "order0", 0xfc61042201ded30a, 770, 1, 1529, 42, 27),
    ("hash", "abundant", 0xce80f884c28ce295, 862, 2, 2645, 47, 27),
    ("hash", "table-charge-6", 0x3fd2457efc81bc7f, 859, 1, 1529, 35, 27),
    ("hash", "k-5", 0x969593f79b760bf1, 864, 2, 1778, 32, 27),
    ("regex", "default", 0x5937ef909ef8a96b, 1320, 2, 2496, 43, 22),
    ("regex", "no-combination", 0x0c61be17c06b865a, 1293, 1, 94, 31, 22),
    ("regex", "no-specialization", 0xde93ac8d1217104e, 1291, 1, 129, 34, 22),
    ("regex", "no-x4", 0xef7ee1aef45295cc, 1312, 2, 2525, 42, 22),
    ("regex", "no-epi", 0xa96d090088a85759, 1433, 2, 2947, 45, 24),
    ("regex", "order0", 0xf004cdf51c13456b, 1253, 2, 2496, 43, 22),
    ("regex", "abundant", 0xed1cacb6188aa47e, 1371, 3, 2810, 62, 22),
    ("regex", "table-charge-6", 0x268c27a0d0fedb16, 1337, 2, 2496, 42, 22),
    ("regex", "k-5", 0x7c9fbc8224ebf41a, 1339, 2, 2080, 27, 22),
    ("bignum", "default", 0x9c31615f87527687, 1385, 2, 2886, 45, 25),
    ("bignum", "no-combination", 0xa1364dae04231949, 1358, 1, 86, 43, 25),
    ("bignum", "no-specialization", 0xe6c27dfbc626a88a, 1370, 2, 202, 45, 25),
    ("bignum", "no-x4", 0x12a93114e24dc04a, 1414, 2, 2397, 45, 25),
    ("bignum", "no-epi", 0x9e654b83892fa34b, 1503, 2, 3102, 49, 27),
    ("bignum", "order0", 0xc240e84ab593e2ec, 1301, 2, 2886, 45, 25),
    ("bignum", "abundant", 0x7998bddaead2c427, 1398, 2, 2742, 56, 25),
    ("bignum", "table-charge-6", 0x9c31615f87527687, 1385, 2, 2886, 45, 25),
    ("bignum", "k-5", 0xc78aedcb25b3f279, 1413, 2, 2122, 30, 25),
    ("queens", "default", 0xf628b941ba2fdaa3, 704, 2, 1966, 39, 19),
    ("queens", "no-combination", 0x7f51db60647f8a86, 697, 1, 59, 32, 19),
    ("queens", "no-specialization", 0x3b2b436a3faa9fea, 703, 1, 91, 28, 19),
    ("queens", "no-x4", 0xc4c72144fa781723, 719, 2, 1524, 39, 19),
    ("queens", "no-epi", 0x25eb7e1ac45d2250, 755, 2, 2253, 41, 21),
    ("queens", "order0", 0x4c4784ae2582ad12, 651, 2, 1966, 39, 19),
    ("queens", "abundant", 0xfbaea974be378b6a, 717, 2, 1925, 39, 19),
    ("queens", "table-charge-6", 0x64cb0a9f3eddf2d0, 692, 1, 1076, 29, 19),
    ("queens", "k-5", 0xce0e46b6e7e8ea6d, 698, 2, 1570, 24, 19),
];

#[rustfmt::skip]
const MODULES: &[Row] = &[
    ("module-0", "default", 0xb18d3c855b956d2f, 5413, 3, 13766, 83, 33),
    ("module-1", "default", 0xe83a2c749bc70a93, 5435, 3, 14892, 79, 34),
];

#[rustfmt::skip]
const SYNTH_LCC: Row =
    ("synth-lcc", "default", 0x96de2eed4e2bccfa, 86859, 10, 113079, 226, 40);

#[rustfmt::skip]
const SYNTH_GCC: Row =
    ("synth-gcc", "default", 0x05d2452291be9997, 351752, 7, 140492, 160, 40);

#[test]
fn corpus_images_match_recorded_values_under_every_option_set() {
    let mut actual = Vec::new();
    for b in benchmarks() {
        let vm = vm_of(b.source);
        for (variant, options) in variants() {
            actual.push(pin(b.name, variant, &compress(&vm, options).unwrap()));
        }
    }
    check(&actual, CORPUS);
    assert_eq!(actual.len(), CORPUS.len(), "case count");
}

#[test]
fn synthetic_module_images_match_recorded_values() {
    let sources = synthetic_modules(
        7,
        MultiModuleConfig {
            modules: 2,
            shared_functions: 10,
            functions_per_module: 6,
            statements_per_function: 8,
            globals: 5,
            max_expr_depth: 4,
        },
    );
    let names = ["module-0", "module-1"];
    let actual: Vec<Row> = names
        .iter()
        .zip(&sources)
        .map(|(name, src)| {
            pin(
                name,
                "default",
                &compress(&vm_of(src), BriscOptions::default()).unwrap(),
            )
        })
        .collect();
    check(&actual, MODULES);
}

#[test]
#[ignore = "synth-lcc scale: run with --release --include-ignored"]
fn synth_lcc_scale_image_matches_recorded_value() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 300,
            statements_per_function: 10,
            globals: 12,
        },
    );
    let report = compress(&vm_of(&src), BriscOptions::default()).unwrap();
    check(&[pin("synth-lcc", "default", &report)], &[SYNTH_LCC]);
}

#[test]
#[ignore = "synth-gcc scale: run with --release --include-ignored"]
fn synth_gcc_scale_image_matches_recorded_value() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 1200,
            statements_per_function: 10,
            globals: 12,
        },
    );
    let report = compress(&vm_of(&src), BriscOptions::default()).unwrap();
    check(&[pin("synth-gcc", "default", &report)], &[SYNTH_GCC]);
}

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 28;

/// `main` repeating `g = g + a; a = a + b;` `reps` times: one long
/// straight-line block whose combinations keep growing pass after pass.
fn repeated_updates(reps: usize) -> String {
    let mut src = String::from("int g = 0;\nint main() {\n    int a = 1;\n    int b = 2;\n");
    for _ in 0..reps {
        src.push_str("    g = g + a; a = a + b;\n");
    }
    src.push_str("    return g + a;\n}\n");
    src
}

#[test]
fn long_straight_line_code_compresses_to_a_loadable_image() {
    for reps in [200, 600] {
        let src = repeated_updates(reps);
        let ir = compile(&src).unwrap();
        let reference = Evaluator::new(&ir, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let back = BriscImage::from_bytes(&report.image.to_bytes())
            .unwrap_or_else(|e| panic!("{reps} reps: image does not load: {e}"));
        assert_eq!(back, report.image, "{reps} reps: round trip");
        let interp = BriscMachine::new(&back, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(interp.value, reference.value, "{reps} reps: brisc_interp");
        let translated = translate(&back).unwrap();
        let jit = Machine::new(&translated, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(jit.value, reference.value, "{reps} reps: translate");
    }
}
