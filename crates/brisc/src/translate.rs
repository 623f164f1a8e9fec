//! The fast tier: translating BRISC back to executable form.
//!
//! "Alternately, we can compile BRISC at over 2.5 megabytes per second,
//! producing x86 machine code" (§1). [`translate`] performs the one
//! linear decode pass that reconstructs a [`VmProgram`] (byte-offset
//! branch targets become instruction indices); [`emit_x86`] additionally
//! produces the x86-64 machine-code bytes whose output rate is the
//! paper's "MB/sec of produced code" metric.

use crate::image::{BriscImage, DecodeTables, ItemBuf};
use crate::markov::BLOCK_START;
use crate::BriscError;
use codecomp_vm::isa::Inst;
use codecomp_vm::program::{VmFunction, VmProgram};

/// Decodes a compressed image back into a VM program.
///
/// Branch targets (local byte offsets of items in the image) become the
/// index of the item's first instruction.
///
/// # Errors
///
/// [`BriscError::Corrupt`] on undecodable images.
pub fn translate(image: &BriscImage) -> Result<VmProgram, BriscError> {
    translate_budgeted(image, &codecomp_core::Budget::default())
}

/// Budget-governed [`translate`]: one fuel step is charged per decoded
/// item, so a caller can bound the translation work an untrusted image
/// can demand.
///
/// # Errors
///
/// As [`translate`], plus [`BriscError::Limit`] when `budget` trips.
pub fn translate_budgeted(
    image: &BriscImage,
    budget: &codecomp_core::Budget,
) -> Result<VmProgram, BriscError> {
    let mut program = VmProgram::new();
    program.globals = image.globals.clone();
    let tables = DecodeTables::new(image);
    let mut item = ItemBuf::default();
    // Each item's local byte offset and its first instruction's index,
    // in increasing order of both, for the function being translated.
    let mut starts: Vec<(u32, u32)> = Vec::new();
    for (fi, f) in image.functions.iter().enumerate() {
        let mut vf = VmFunction::new(&f.name, f.param_count, f.frame_size);
        vf.saved_regs = f.saved_regs.clone();
        starts.clear();
        let mut pos = f.start as usize;
        let end = (f.start + f.len) as usize;
        let mut ctx = BLOCK_START;
        while pos < end {
            budget.charge_fuel(1)?;
            let local = (pos - f.start as usize) as u32;
            let effective = if image.is_extra_leader(fi, local) {
                BLOCK_START
            } else {
                ctx
            };
            image.decode_into(pos, effective, &tables, &mut item)?;
            starts.push((local, vf.code.len() as u32));
            let insts = item.insts().iter().zip(item.callees());
            vf.code.extend(insts.map(|(i, &c)| image.named(i, c)));
            let last_ends = item.insts().last().is_some_and(Inst::ends_block);
            ctx = if last_ends { BLOCK_START } else { item.entry };
            pos += item.size;
        }
        for target in vf.code.iter_mut().filter_map(Inst::target_mut) {
            let i = starts
                .binary_search_by_key(target, |&(local, _)| local)
                .map_err(|_| {
                    BriscError::Corrupt(format!(
                        "branch target {target} is not an item start in {}",
                        f.name
                    ))
                })?;
            *target = starts[i].1;
        }
        program.functions.push(vf);
    }
    program
        .validate()
        .map_err(|e| BriscError::Corrupt(e.to_string()))?;
    Ok(program)
}

/// Translates and emits x86-64 machine code; returns `(program, bytes)`.
///
/// # Errors
///
/// As [`translate`].
pub fn emit_x86(image: &BriscImage) -> Result<(VmProgram, Vec<u8>), BriscError> {
    let program = translate(image)?;
    let mut enc = codecomp_vm::native::X86Encoder::new();
    enc.emit_program(&program);
    Ok((program, enc.into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, BriscOptions};
    use codecomp_front::compile;
    use codecomp_vm::codegen::compile_module;
    use codecomp_vm::interp::Machine;
    use codecomp_vm::isa::IsaConfig;

    fn roundtrip_and_run(src: &str, args: &[i64]) {
        let ir = compile(src).unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let expect = Machine::new(&vm, 1 << 20, 1 << 26)
            .unwrap()
            .run("main", args)
            .unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let translated = translate(&report.image).unwrap();
        let got = Machine::new(&translated, 1 << 20, 1 << 26)
            .unwrap()
            .run("main", args)
            .unwrap();
        assert_eq!(got.value, expect.value);
        assert_eq!(got.output, expect.output);
    }

    #[test]
    fn translated_programs_run_identically() {
        roundtrip_and_run(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { print_int(fib(9)); return fib(10); }",
            &[],
        );
    }

    #[test]
    fn loops_and_arrays_translate() {
        roundtrip_and_run(
            "int a[10];
             int main() {
                 int i;
                 for (i = 0; i < 10; i++) a[i] = i * i;
                 int s = 0;
                 for (i = 0; i < 10; i++) s += a[i];
                 return s;
             }",
            &[],
        );
    }

    #[test]
    fn translation_expands_combined_items() {
        let ir = compile(
            "int f1(int a, int b) { return a + b; }
             int f2(int a, int b) { return f1(b, a) * 2; }
             int f3(int a, int b) { return f2(b, a) + f1(a, b); }
             int main() { return f3(1, 2); }",
        )
        .unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let translated = translate(&report.image).unwrap();
        assert!(
            report.image.dictionary.iter().any(|e| e.len() > 1),
            "some items combine instructions"
        );
        // Every combined item expands back to the instructions it
        // replaced: the translation is the (epi-folded) input.
        let mut expect = vm.clone();
        for f in &mut expect.functions {
            f.code = crate::compress::replace_epilogues(f);
        }
        assert_eq!(translated, expect);
    }

    #[test]
    fn x86_emission_produces_bytes() {
        let ir =
            compile("int main() { int s = 0; int i; for (i = 0; i < 30; i++) s += i; return s; }")
                .unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let (program, bytes) = emit_x86(&report.image).unwrap();
        assert!(!bytes.is_empty());
        assert_eq!(bytes.len(), codecomp_vm::native::x86_size(&program));
        // The produced native code is larger than the compressed form —
        // that is the whole point of the representation.
        assert!(bytes.len() > report.image.code_size());
    }

    #[test]
    fn translate_after_serialization() {
        let ir = compile("int main() { return 41 + 1; }").unwrap();
        let vm = compile_module(&ir, IsaConfig::full()).unwrap();
        let report = compress(&vm, BriscOptions::default()).unwrap();
        let image = crate::image::BriscImage::from_bytes(&report.image.to_bytes()).unwrap();
        let translated = translate(&image).unwrap();
        let got = Machine::new(&translated, 1 << 20, 1 << 24)
            .unwrap()
            .run("main", &[])
            .unwrap();
        assert_eq!(got.value, 42);
    }
}
