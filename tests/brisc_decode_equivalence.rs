//! The interpreter's buffer decoder and the named decoder must agree on
//! every item of every image: same entry, size and instructions, and
//! every call's resolved target must be the function or host function
//! its name denotes. One buffer is reused across a whole image, so state
//! left over from a previous item would show up as a mismatch.
//!
//! Expansion is exact: `translate(compress(vm, options))` is `vm` itself,
//! with its epilogues folded into `epi` when `options.epi` is on.
//!
//! The synth-gcc-scale (1200-function) case, both checks, is
//! `#[ignore]`d (too slow for the debug profile); `scripts/ci.sh` runs
//! it with `--release --include-ignored`.

use code_compression::brisc::compress::{compress, replace_epilogues, BriscOptions};
use code_compression::brisc::entry::{DictEntry, InstPattern};
use code_compression::brisc::image::{
    assemble, BriscImage, DecodeTables, FuncItems, Item, ItemBuf,
};
use code_compression::brisc::interp::BriscMachine;
use code_compression::brisc::markov::BLOCK_START;
use code_compression::brisc::translate::translate;
use code_compression::core::dict::MemoryRegime;
use code_compression::corpus::{
    benchmarks, synthetic, synthetic_modules, MultiModuleConfig, SynthConfig,
};
use code_compression::front::compile;
use code_compression::ir::eval::HOST_FUNCTIONS;
use code_compression::ir::Module;
use code_compression::vm::asm::parse_inst;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::encode::Field;
use code_compression::vm::isa::{FuncRef, Inst, IsaConfig};
use code_compression::vm::program::{Callee, VmProgram};
use code_compression::vm::reg::Reg;

fn option_matrix() -> Vec<(&'static str, BriscOptions)> {
    vec![
        ("default", BriscOptions::default()),
        (
            "no-combination",
            BriscOptions {
                combination: false,
                ..Default::default()
            },
        ),
        (
            "no-specialization",
            BriscOptions {
                specialization: false,
                ..Default::default()
            },
        ),
        (
            "no-epi",
            BriscOptions {
                epi: false,
                ..Default::default()
            },
        ),
        (
            "order0",
            BriscOptions {
                order0: true,
                ..Default::default()
            },
        ),
        (
            "abundant",
            BriscOptions {
                regime: MemoryRegime::Abundant,
                ..Default::default()
            },
        ),
    ]
}

/// Decodes every item of every function both ways and compares them.
/// Returns the number of items checked.
fn assert_decoders_agree(what: &str, image: &BriscImage) -> usize {
    let tables = DecodeTables::new(image);
    let mut buf = ItemBuf::default();
    let mut items = 0;
    for (fi, f) in image.functions.iter().enumerate() {
        let mut pos = f.start as usize;
        let end = pos + f.len as usize;
        let mut ctx = BLOCK_START;
        while pos < end {
            let local = (pos - f.start as usize) as u32;
            if image.is_extra_leader(fi, local) {
                ctx = BLOCK_START;
            }
            let named = image
                .decode_at(pos, ctx, &tables)
                .unwrap_or_else(|e| panic!("{what}: decode_at {pos}: {e}"));
            image
                .decode_into(pos, ctx, &tables, &mut buf)
                .unwrap_or_else(|e| panic!("{what}: decode_into {pos}: {e}"));
            assert_eq!(buf.entry, named.entry, "{what} @{pos}: entry");
            assert_eq!(buf.size, named.size, "{what} @{pos}: size");
            assert_eq!(
                buf.insts().len(),
                named.insts.len(),
                "{what} @{pos}: length"
            );
            assert_eq!(
                buf.callees().len(),
                buf.insts().len(),
                "{what} @{pos}: callees"
            );
            for ((inst, callee), named_inst) in
                buf.insts().iter().zip(buf.callees()).zip(&named.insts)
            {
                match named_inst {
                    Inst::Call {
                        target: FuncRef::Symbol(name),
                    } => {
                        assert_eq!(
                            inst,
                            &Inst::Call {
                                target: FuncRef::Symbol(String::new())
                            },
                            "{what} @{pos}: calls carry an empty symbol"
                        );
                        // The target a call by name reaches: the first
                        // function of that name, else the host function.
                        let expect = match image.function_index(name) {
                            Some(i) => Callee::Function(i as u32),
                            None => Callee::Host(
                                HOST_FUNCTIONS.iter().position(|h| h == name).unwrap() as u32,
                            ),
                        };
                        assert_eq!(*callee, expect, "{what} @{pos}: callee of {name}");
                    }
                    other => {
                        assert_eq!(inst, other, "{what} @{pos}: instruction");
                        assert_eq!(*callee, Callee::None, "{what} @{pos}: stray callee");
                    }
                }
            }
            let ends = buf.insts().last().is_some_and(Inst::ends_block);
            ctx = if ends { BLOCK_START } else { buf.entry };
            pos += buf.size;
            items += 1;
        }
        assert_eq!(pos, end, "{what}: {} decodes past its end", f.name);
    }
    items
}

/// Translating `image`, compressed from `vm` under `options`, gives
/// back `vm` exactly: every function's code, targets included, with its
/// epilogues folded into `epi` when `options.epi` is on.
fn assert_translation_gives_back(
    what: &str,
    vm: &VmProgram,
    options: BriscOptions,
    image: &BriscImage,
) {
    let translated = translate(image).unwrap_or_else(|e| panic!("{what}: translate: {e}"));
    assert_eq!(translated.globals, vm.globals, "{what}: globals");
    assert_eq!(translated.isa, vm.isa, "{what}: isa");
    assert_eq!(
        translated.functions.len(),
        vm.functions.len(),
        "{what}: functions"
    );
    for (got, f) in translated.functions.iter().zip(&vm.functions) {
        let mut expect = f.clone();
        if options.epi {
            expect.code = replace_epilogues(f);
        }
        assert_eq!(got, &expect, "{what}: function {}", f.name);
    }
}

fn check_module(what: &str, ir: &Module) -> usize {
    let vm = compile_module(ir, IsaConfig::full()).unwrap();
    let mut items = 0;
    for (opt, options) in option_matrix() {
        let what = format!("{what}/{opt}");
        let image = compress(&vm, options).unwrap().image;
        items += assert_decoders_agree(&what, &image);
        assert_translation_gives_back(&what, &vm, options, &image);
    }
    items
}

#[test]
fn corpus_decodes_agree_under_every_option_set() {
    let mut items = 0;
    for b in benchmarks() {
        items += check_module(b.name, &b.compile().unwrap());
    }
    assert!(items > 10_000, "only {items} items checked");
}

#[test]
fn synthetic_module_decodes_agree_under_every_option_set() {
    let config = MultiModuleConfig {
        modules: 3,
        shared_functions: 4,
        functions_per_module: 8,
        statements_per_function: 6,
        globals: 3,
        max_expr_depth: 4,
    };
    for (m, src) in synthetic_modules(41, config).iter().enumerate() {
        let ir = compile(src).unwrap();
        check_module(&format!("synthetic-{m}"), &ir);
    }
}

#[test]
#[ignore = "synth-gcc scale: run with --release --include-ignored"]
fn synth_gcc_scale_decodes_agree() {
    let src = synthetic(
        0xC0DE,
        SynthConfig {
            functions: 1200,
            statements_per_function: 10,
            globals: 12,
        },
    );
    let vm = compile_module(&compile(&src).unwrap(), IsaConfig::full()).unwrap();
    let image = compress(&vm, BriscOptions::default()).unwrap().image;
    let items = assert_decoders_agree("synth-gcc", &image);
    assert!(items > 100_000, "only {items} items checked");
    assert_translation_gives_back("synth-gcc", &vm, BriscOptions::default(), &image);
}

/// 302 distinct dictionary entries, each used once at a block leader,
/// so the block-start context has 302 successors and the last 47 are
/// coded with the escape byte.
fn wide_context_image() -> BriscImage {
    let dictionary: Vec<DictEntry> = (0..300)
        .map(|_| DictEntry::single(InstPattern::base_of(&parse_inst("li n0,1", 1).unwrap())))
        .chain([
            DictEntry::single(InstPattern::base_of(
                &parse_inst("call print_int", 1).unwrap(),
            )),
            DictEntry::single(InstPattern::base_of(&parse_inst("rjr ra", 1).unwrap())),
        ])
        .collect();
    let mut items: Vec<Item> = (0..300u32)
        .map(|e| Item {
            entry: e,
            values: vec![Field::Reg(Reg::new(0)), Field::Imm(e as i32 % 128)],
        })
        .collect();
    items.push(Item {
        entry: 300,
        values: vec![Field::Func("print_int".into())],
    });
    items.push(Item {
        entry: 301,
        values: vec![Field::Reg(Reg::RA)],
    });
    let n = items.len();
    let main = FuncItems {
        name: "main".into(),
        param_count: 0,
        frame_size: 0,
        saved_regs: vec![],
        leaders: vec![true; n],
        items,
    };
    assemble(dictionary, vec![main], vec![]).unwrap()
}

#[test]
fn escaped_opcodes_decode_identically() {
    let image = wide_context_image();
    assert!(image.markov.successors(BLOCK_START).len() >= 256);
    assert_eq!(assert_decoders_agree("wide", &image), 302);
    // The interpreter runs through every item, escaped or not, in place.
    let mut m = BriscMachine::new(&image, 1 << 16, 1 << 12).unwrap();
    let out = m.run("main", &[]).unwrap();
    assert_eq!(out.value, 0, "print_int returns 0 in n0");
    assert_eq!(out.output, b"43\n");
    assert_eq!(out.items_decoded, 302);
    assert_eq!(m.touched_code_bytes(), image.code_size());
}
