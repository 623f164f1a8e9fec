//! Pins the two plain byte formats the compressors are measured
//! against: for every corpus program, the FNV-1a hash and length of its
//! `.ccir` module (`code_module`) and of its linked VM code, each
//! instruction coded by `code_inst` in program order with call symbols
//! indexed in first-use order. Both encoders are deterministic, so any
//! drift here is a format change, not noise.

use code_compression::core::bytesio::{encode_module, SymbolTable};
use code_compression::corpus::benchmarks;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::encode::code_inst;
use code_compression::vm::isa::{FuncRef, Inst, IsaConfig};
use code_compression::vm::program::FlatProgram;

/// Program, `.ccir` hash and length, VM code hash and length.
type Row = (&'static str, u64, usize, u64, usize);

const EXPECTED: [Row; 10] = [
    ("vmsim", 0xc7293bfce90aa529, 1800, 0x6e946761b900a02b, 2262),
    ("dsp", 0xbff2347713227cc4, 1160, 0xfc5b2f4e320bbae3, 1096),
    ("pack", 0xb0ecbcbb194ae200, 971, 0xd0e9f681c4614b1d, 977),
    (
        "sortlib",
        0x7431c8433f6110a0,
        1537,
        0x7e419cb27e6f6eec,
        1602,
    ),
    ("calc", 0x133cf85bc838009a, 1195, 0x74783f7c376446ec, 1320),
    ("life", 0x0e220e9d1f808f7d, 1149, 0x01e85cb18249ec4c, 1380),
    ("hash", 0x8649157172b48cc6, 685, 0xfa5fd37d25c23049, 692),
    ("regex", 0x1e3128c1ca7641ae, 1323, 0x94344163399dfc97, 1066),
    ("bignum", 0xd58de0a13dfab9e0, 1213, 0x20baead9a6333449, 1262),
    ("queens", 0x29517ac3eac7ac8a, 597, 0xee9a4d2407a2985a, 577),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn corpus_module_and_vm_encodings_match_recorded_values() {
    let mut actual = Vec::new();
    for b in benchmarks() {
        let module = b.compile().unwrap();
        let ccir = encode_module(&module).unwrap();
        let mut code = FlatProgram::link(&compile_module(&module, IsaConfig::full()).unwrap())
            .unwrap()
            .code;
        let mut symbols = SymbolTable::default();
        for i in &code {
            if let Inst::Call {
                target: FuncRef::Symbol(callee),
            } = i
            {
                symbols.intern(callee);
            }
        }
        let mut vm = Vec::new();
        for i in &mut code {
            code_inst(&mut vm, i, &symbols).unwrap();
        }
        actual.push((b.name, fnv1a(&ccir), ccir.len(), fnv1a(&vm), vm.len()));
    }
    let table: String = actual
        .iter()
        .map(|(n, ch, cl, vh, vl)| format!("    (\"{n}\", {ch:#018x}, {cl}, {vh:#018x}, {vl}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "actual rows:\n{table}");
}
