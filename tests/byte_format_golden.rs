//! Pins the two plain byte formats the compressors are measured
//! against: for every corpus program, the FNV-1a hash and length of its
//! `.ccir` module (`code_module`) and of its VM code as `compile_module`
//! produces it, each instruction coded by `code_inst` in program order
//! with call symbols indexed in first-use order. Both encoders are
//! deterministic, so any drift here is a format change, not noise.
//! The VM code is also coded whole at synth-gcc scale, where it must
//! take exactly `code_segment_size` bytes.

use code_compression::core::bytesio::{encode_module, SymbolTable};
use code_compression::corpus::{benchmarks, synthetic, SynthConfig};
use code_compression::front::compile;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::encode::{code_inst, code_segment_size};
use code_compression::vm::isa::{FuncRef, Inst, IsaConfig};
use code_compression::vm::program::VmProgram;

/// Program, `.ccir` hash and length, VM code hash and length.
type Row = (&'static str, u64, usize, u64, usize);

const EXPECTED: [Row; 10] = [
    ("vmsim", 0xc7293bfce90aa529, 1800, 0x2f7d9dcfa911dff7, 2262),
    ("dsp", 0xbff2347713227cc4, 1160, 0xac533e741e813ca4, 1096),
    ("pack", 0xb0ecbcbb194ae200, 971, 0x42cca076b00a872c, 977),
    (
        "sortlib",
        0x7431c8433f6110a0,
        1537,
        0x6b4519ea579e8ce6,
        1602,
    ),
    ("calc", 0x133cf85bc838009a, 1195, 0xca573261605d4e88, 1320),
    ("life", 0x0e220e9d1f808f7d, 1149, 0x9ef1a8c8a3f9ba40, 1380),
    ("hash", 0x8649157172b48cc6, 685, 0x63b12438bb211c74, 692),
    ("regex", 0x1e3128c1ca7641ae, 1323, 0x9c5fed54734fe486, 1066),
    ("bignum", 0xd58de0a13dfab9e0, 1213, 0x966f3451285cc693, 1262),
    ("queens", 0x29517ac3eac7ac8a, 597, 0xd93b2228f2b501f8, 577),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every instruction of `program`, coded by `code_inst` in program
/// order.
fn coded(program: &VmProgram) -> Vec<u8> {
    let mut symbols = SymbolTable::default();
    for i in program.functions.iter().flat_map(|f| &f.code) {
        if let Inst::Call {
            target: FuncRef::Symbol(callee),
        } = i
        {
            symbols.intern(callee);
        }
    }
    let mut out = Vec::new();
    for f in &program.functions {
        for (k, i) in f.code.iter().enumerate() {
            code_inst(&mut out, &mut i.clone(), &symbols)
                .unwrap_or_else(|e| panic!("{} inst {k} {i}: {e}", f.name));
        }
    }
    out
}

#[test]
fn corpus_module_and_vm_encodings_match_recorded_values() {
    let mut actual = Vec::new();
    for b in benchmarks() {
        let module = b.compile().unwrap();
        let ccir = encode_module(&module).unwrap();
        let vm = coded(&compile_module(&module, IsaConfig::full()).unwrap());
        actual.push((b.name, fnv1a(&ccir), ccir.len(), fnv1a(&vm), vm.len()));
    }
    let table: String = actual
        .iter()
        .map(|(n, ch, cl, vh, vl)| format!("    (\"{n}\", {ch:#018x}, {cl}, {vh:#018x}, {vl}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "actual rows:\n{table}");
}

#[test]
fn synth_gcc_vm_code_is_written_in_exactly_its_segment_size() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 1200,
            statements_per_function: 10,
            globals: 12,
        },
    );
    let program = compile_module(&compile(&src).unwrap(), IsaConfig::full()).unwrap();
    assert!(program.functions.len() > 1200);
    assert_eq!(coded(&program).len(), code_segment_size(&program));
}
