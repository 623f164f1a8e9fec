//! Quickstart: compile a C program, compress it both ways, run every
//! execution tier, and print the size/behaviour summary.
//!
//! Run with `cargo run --example quickstart`.

use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::translate::translate;
use code_compression::brisc::{compress as brisc_compress, BriscOptions};
use code_compression::front::compile;
use code_compression::ir::eval::Evaluator;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::wire::{compress as wire_compress, decompress, WireOptions};

const SOURCE: &str = r#"
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main() {
    int i;
    for (i = 5; i <= 10; i++) print_int(fib(i));
    return fib(15);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile mini-C to lcc-style IR trees.
    let ir = compile(SOURCE)?;
    println!(
        "compiled {} functions, {} IR nodes",
        ir.functions.len(),
        ir.node_count()
    );

    // 2. The wire format: maximum density, linear decompression.
    let packed = wire_compress(&ir, WireOptions::default())?;
    let raw = code_compression::core::bytesio::encode_module(&ir)?;
    println!(
        "wire format: {} bytes (uncompressed tree code: {} bytes, {:.1}x)",
        packed.total(),
        raw.len(),
        raw.len() as f64 / packed.total() as f64,
    );
    assert_eq!(decompress(&packed.bytes)?, ir, "wire round-trips exactly");

    // 3. Generate OmniVM-style register code and compress to BRISC.
    let vm = compile_module(&ir, IsaConfig::full())?;
    let report = brisc_compress(&vm, BriscOptions::default())?;
    println!(
        "brisc: {} code bytes from {} VM bytes; dictionary {} entries ({} base), {} passes",
        report.image.code_size(),
        report.input_bytes,
        report.dictionary_entries,
        report.base_entries,
        report.passes,
    );

    // 4. Run all four execution tiers and check they agree.
    let reference = Evaluator::new(&ir, 1 << 20, 1 << 26)?.run("main", &[])?;
    let mut vm_machine = Machine::new(&vm, 1 << 20, 1 << 26)?;
    let vm_out = vm_machine.run("main", &[])?;
    let mut brisc_machine = BriscMachine::new(&report.image, 1 << 20, 1 << 26)?;
    let brisc_out = brisc_machine.run("main", &[])?;
    let translated = translate(&report.image)?;
    let mut fast = Machine::new(&translated, 1 << 20, 1 << 26)?;
    let fast_out = fast.run("main", &[])?;

    assert_eq!(vm_out.value, reference.value);
    assert_eq!(brisc_out.value, reference.value);
    assert_eq!(fast_out.value, reference.value);
    assert_eq!(brisc_out.output, reference.output);
    println!(
        "all tiers agree: fib(15) = {} (interpreted the compressed form \
         in place: {} items decoded for {} instructions)",
        reference.value, brisc_out.items_decoded, brisc_out.instructions,
    );
    println!(
        "program output:\n{}",
        String::from_utf8_lossy(&reference.output)
    );
    Ok(())
}
