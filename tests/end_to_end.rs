//! Integration tests spanning every crate: the full corpus runs through
//! every execution tier and both compressors round-trip.

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::{emit_x86, translate};
use code_compression::brisc::{compress as brisc_compress, BriscImage, BriscOptions};
use code_compression::corpus::{benchmarks, synthetic, SynthConfig};
use code_compression::front::compile;
use code_compression::ir::eval::Evaluator;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{compress as wire_compress, decompress, WireOptions};

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 28;

/// Runs one module through all four tiers and asserts exact agreement.
fn all_tiers_agree(name: &str, ir: &code_compression::ir::Module) {
    let reference = Evaluator::new(ir, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap_or_else(|e| panic!("{name}: reference eval failed: {e}"));

    let vm = compile_module(ir, IsaConfig::full()).unwrap();
    let vm_out = Machine::new(&vm, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap();
    assert_eq!(vm_out.value, reference.value, "{name}: vm value");
    assert_eq!(vm_out.output, reference.output, "{name}: vm output");

    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    let brisc_out = BriscMachine::new(&report.image, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap();
    assert_eq!(brisc_out.value, reference.value, "{name}: brisc value");
    assert_eq!(brisc_out.output, reference.output, "{name}: brisc output");

    let translated = translate(&report.image).unwrap();
    let fast_out = Machine::new(&translated, MEM, FUEL)
        .unwrap()
        .run("main", &[])
        .unwrap();
    assert_eq!(fast_out.value, reference.value, "{name}: translated value");
    assert_eq!(
        fast_out.output, reference.output,
        "{name}: translated output"
    );

    // The in-place interpreter executes exactly the instructions the
    // translated program does, and every tier makes the same calls.
    assert_eq!(
        brisc_out.instructions, fast_out.instructions,
        "{name}: brisc and translated instruction counts"
    );
    assert_eq!(brisc_out.calls, vm_out.calls, "{name}: brisc calls");
    assert_eq!(fast_out.calls, vm_out.calls, "{name}: translated calls");
}

#[test]
fn corpus_runs_identically_on_all_tiers() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        all_tiers_agree(b.name, &ir);
    }
}

#[test]
fn corpus_wire_roundtrips() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let packed = wire_compress(&ir, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), ir, "{}", b.name);
    }
}

#[test]
fn corpus_brisc_images_serialize() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
        let bytes = report.image.to_bytes();
        let back = BriscImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, report.image, "{}", b.name);
        // The reloaded image still runs.
        let out = BriscMachine::new(&back, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        let reference = Evaluator::new(&ir, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(out.value, reference.value, "{}", b.name);
    }
}

#[test]
fn corpus_compiles_under_all_isa_variants() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let reference = Evaluator::new(&ir, MEM, FUEL)
            .unwrap()
            .run("main", &[])
            .unwrap();
        for (vname, isa) in IsaConfig::variants() {
            let vm = compile_module(&ir, isa).unwrap();
            let out = Machine::new(&vm, MEM, FUEL)
                .unwrap()
                .run("main", &[])
                .unwrap();
            assert_eq!(out.value, reference.value, "{} under {vname}", b.name);
        }
    }
}

#[test]
fn synthetic_programs_survive_the_whole_pipeline() {
    for seed in [11u64, 222, 3333] {
        let src = synthetic(
            seed,
            SynthConfig {
                functions: 25,
                statements_per_function: 8,
                globals: 5,
            },
        );
        let ir = compile(&src).unwrap();
        all_tiers_agree(&format!("synthetic-{seed}"), &ir);
        let packed = wire_compress(&ir, WireOptions::default()).unwrap();
        assert_eq!(decompress(&packed.bytes).unwrap(), ir, "synthetic-{seed}");
    }
}

/// Tiers agree at the paper's lcc scale. Too slow for the debug profile;
/// `scripts/ci.sh` runs it with `--release --include-ignored`.
#[test]
#[ignore = "synth-lcc scale: run with --release --include-ignored"]
fn synth_lcc_scale_runs_identically_on_all_tiers() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 300,
            statements_per_function: 10,
            globals: 12,
        },
    );
    all_tiers_agree("synth-lcc", &compile(&src).unwrap());
}

#[test]
fn wire_and_brisc_both_compress_large_programs() {
    let src = synthetic(
        7,
        SynthConfig {
            functions: 120,
            statements_per_function: 10,
            globals: 8,
        },
    );
    let ir = compile(&src).unwrap();
    let raw = code_compression::core::bytesio::encode_module(&ir)
        .unwrap()
        .len();
    let wire = wire_compress(&ir, WireOptions::default()).unwrap().total();
    assert!(wire * 2 < raw, "wire {wire} should be well under raw {raw}");

    let vm = compile_module(&ir, IsaConfig::full()).unwrap();
    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    assert!(
        report.image.code_size() < report.input_bytes,
        "brisc code {} should be under the base encoding {}",
        report.image.code_size(),
        report.input_bytes
    );
    // The paper's ordering: wire (with its LZ stage) is denser than
    // BRISC, which must stay byte-aligned and randomly addressable.
    assert!(
        wire < report.image.total_bytes(),
        "wire {wire} should beat brisc {}",
        report.image.total_bytes()
    );
}

#[test]
fn translation_emits_native_code_for_the_corpus() {
    for b in benchmarks() {
        let ir = b.compile().unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
        let (program, bytes) = emit_x86(&report.image).unwrap();
        assert!(!bytes.is_empty(), "{}", b.name);
        assert!(program.validate().is_ok(), "{}", b.name);
    }
}

#[test]
fn interpretation_touches_fewer_bytes_than_the_whole_image() {
    // Partial execution only touches what it decodes.
    let src = "
        int used() { return 12; }
        int unused1(int x) { int i; int s = 0; for (i = 0; i < x; i++) s += i * i; return s; }
        int unused2(int x) { return unused1(x) + unused1(x + 1); }
        int main() { return used(); }
    ";
    let ir = compile(src).unwrap();
    let vm = compile_module(&ir, IsaConfig::full()).unwrap();
    let report = brisc_compress(&vm, BriscOptions::default()).unwrap();
    let mut m = BriscMachine::new(&report.image, MEM, FUEL).unwrap();
    m.run("main", &[]).unwrap();
    assert!(m.touched_code_bytes() < report.image.code_size() / 2);
}
