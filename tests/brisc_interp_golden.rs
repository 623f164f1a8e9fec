//! Pins the in-place BRISC interpreter's observable behaviour: for every
//! corpus program, the outcome (value, output, instruction, item and
//! call counts) and the touched-code map must equal values recorded
//! before the interpreter's decode path was rewritten. Any change to
//! how many items are decoded in place, or which bytes are touched,
//! shows up here as a count mismatch.
//!
//! The VM interpreter is pinned beside it, twice per program: on the
//! `compile_module` output and on the `translate` output. Its
//! instruction and call counts and a hash of its per-instruction
//! execution counts must equal values recorded before the two
//! interpreters came to share one execution core.

use code_compression::brisc::compress::{compress, BriscOptions};
use code_compression::brisc::entry::{DictEntry, InstPattern};
use code_compression::brisc::image::{assemble, FuncItems, Item};
use code_compression::brisc::interp::{BriscMachine, BriscOutcome};
use code_compression::brisc::translate::translate;
use code_compression::brisc::BriscError;
use code_compression::corpus::benchmarks;
use code_compression::front::compile;
use code_compression::vm::asm::parse_inst;
use code_compression::vm::codegen::compile_module;
use code_compression::vm::encode::Field;
use code_compression::vm::interp::Machine;
use code_compression::vm::isa::IsaConfig;
use code_compression::vm::program::VmProgram;
use code_compression::vm::reg::Reg;

const MEM: u32 = 1 << 22;
const FUEL: u64 = 1 << 28;

/// The observable result of one run: the outcome's counters, a hash of
/// its output, and the touched-code map summarised as run count, byte
/// total and a hash of the `(offset, len)` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pinned {
    value: i64,
    output_len: usize,
    output_hash: u64,
    instructions: u64,
    items_decoded: u64,
    calls: u64,
    touched_runs: usize,
    touched_bytes: u64,
    touched_hash: u64,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pin(out: &BriscOutcome, runs: &[(u32, u32)]) -> Pinned {
    Pinned {
        value: out.value,
        output_len: out.output.len(),
        output_hash: fnv1a(out.output.iter().copied()),
        instructions: out.instructions,
        items_decoded: out.items_decoded,
        calls: out.calls,
        touched_runs: runs.len(),
        touched_bytes: runs.iter().map(|&(_, l)| u64::from(l)).sum(),
        touched_hash: fnv1a(
            runs.iter()
                .flat_map(|&(o, l)| o.to_le_bytes().into_iter().chain(l.to_le_bytes())),
        ),
    }
}

/// The VM interpreter's counters for one run: instructions, calls, and
/// an FNV-1a hash of the per-instruction execution counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VmPinned {
    instructions: u64,
    calls: u64,
    exec_hash: u64,
}

/// Runs `main` of `vm` on the VM interpreter and pins its counters.
fn run_vm(vm: &VmProgram) -> (VmPinned, code_compression::vm::RunOutcome) {
    let mut m = Machine::new(vm, MEM, FUEL).unwrap();
    let out = m.run("main", &[]).unwrap();
    let pinned = VmPinned {
        instructions: out.instructions,
        calls: out.calls,
        exec_hash: fnv1a(m.exec_counts.iter().flat_map(|c| c.to_le_bytes())),
    };
    (pinned, out)
}

/// Everything pinned for one program: the in-place BRISC run, then the
/// VM runs of the compiled and of the translated program.
type Pins = (Pinned, VmPinned, VmPinned);

/// Compiles `src`, compresses it with default options, runs `main` in
/// place, on the VM and on the translated program, and checks value and
/// output against the VM tier.
fn run_pinned(name: &str, src_ir: &code_compression::ir::Module) -> Pins {
    let vm = compile_module(src_ir, IsaConfig::full()).unwrap();
    let (vm_pin, expect) = run_vm(&vm);
    let image = compress(&vm, BriscOptions::default()).unwrap().image;
    let mut m = BriscMachine::new(&image, MEM, FUEL).unwrap();
    let out = m.run("main", &[]).unwrap();
    assert_eq!(out.value, expect.value, "{name}: value differs from the VM");
    assert_eq!(
        out.output, expect.output,
        "{name}: output differs from the VM"
    );
    let (translated_pin, translated) = run_vm(&translate(&image).unwrap());
    assert_eq!(translated.value, expect.value, "{name}: translated value");
    assert_eq!(
        translated.output, expect.output,
        "{name}: translated output"
    );
    (pin(&out, &m.touched_runs()), vm_pin, translated_pin)
}

/// Values recorded with the interpreter as it was before its decode
/// path became allocation-free.
#[rustfmt::skip]
const CORPUS_GOLDEN: &[(&str, Pinned)] = &[
    ("vmsim", Pinned { value: 68, output_len: 3, output_hash: 4461486236421509195, instructions: 19336, items_decoded: 17820, calls: 562, touched_runs: 4, touched_bytes: 1687, touched_hash: 10647118521292204152 }),
    ("dsp", Pinned { value: -464934515, output_len: 11, output_hash: 10938342625607438811, instructions: 151976, items_decoded: 116071, calls: 264, touched_runs: 3, touched_bytes: 796, touched_hash: 10337839845552198532 }),
    ("pack", Pinned { value: -314079, output_len: 11, output_hash: 8268348827171863741, instructions: 41552, items_decoded: 30204, calls: 8, touched_runs: 5, touched_bytes: 684, touched_hash: 1550620246501321112 }),
    ("sortlib", Pinned { value: 1120050, output_len: 8, output_hash: 8034895799217814520, instructions: 403310, items_decoded: 296095, calls: 556, touched_runs: 4, touched_bytes: 1194, touched_hash: 7566489464001318414 }),
    ("calc", Pinned { value: 130635908, output_len: 10, output_hash: 4736858564230062688, instructions: 41876, items_decoded: 34257, calls: 1297, touched_runs: 2, touched_bytes: 922, touched_hash: 1461785044419243050 }),
    ("life", Pinned { value: -1972083680, output_len: 12, output_hash: 11041261833948579056, instructions: 11653406, items_decoded: 10063385, calls: 466655, touched_runs: 1, touched_bytes: 1097, touched_hash: 16668312976251634384 }),
    ("hash", Pinned { value: 397072184, output_len: 10, output_hash: 13212754269421018016, instructions: 448036, items_decoded: 387051, calls: 5182, touched_runs: 1, touched_bytes: 503, touched_hash: 15456397112803080909 }),
    ("regex", Pinned { value: 134588321, output_len: 10, output_hash: 5745666463506983516, instructions: 1865382, items_decoded: 1621146, calls: 42370, touched_runs: 2, touched_bytes: 809, touched_hash: 3606588795310770553 }),
    ("bignum", Pinned { value: 812425459, output_len: 10, output_hash: 13406814425647448297, instructions: 579023, items_decoded: 576201, calls: 862, touched_runs: 2, touched_bytes: 944, touched_hash: 11275995287283723631 }),
    ("queens", Pinned { value: 210044092, output_len: 10, output_hash: 15422750932697968567, instructions: 628188, items_decoded: 487465, calls: 2840, touched_runs: 1, touched_bytes: 400, touched_hash: 11753753469464881546 }),
];

/// VM counters per corpus program, for the `compile_module` output and
/// for the `translate` output, recorded before the VM and the in-place
/// interpreter came to share one execution core.
#[rustfmt::skip]
const CORPUS_VM_GOLDEN: &[(&str, VmPinned, VmPinned)] = &[
    ("vmsim", VmPinned { instructions: 20715, calls: 562, exec_hash: 264188468082200202 }, VmPinned { instructions: 19336, calls: 562, exec_hash: 5573426054994517941 }),
    ("dsp", VmPinned { instructions: 153802, calls: 264, exec_hash: 11042880248338352134 }, VmPinned { instructions: 151976, calls: 264, exec_hash: 17509911899852918825 }),
    ("pack", VmPinned { instructions: 41589, calls: 8, exec_hash: 13685132137624694269 }, VmPinned { instructions: 41552, calls: 8, exec_hash: 6486102739488354116 }),
    ("sortlib", VmPinned { instructions: 407189, calls: 556, exec_hash: 16621170949629553471 }, VmPinned { instructions: 403310, calls: 556, exec_hash: 15487283441152170373 }),
    ("calc", VmPinned { instructions: 48427, calls: 1297, exec_hash: 14457807661355602235 }, VmPinned { instructions: 41876, calls: 1297, exec_hash: 8576263563958908281 }),
    ("life", VmPinned { instructions: 13520221, calls: 466655, exec_hash: 11423909640866536267 }, VmPinned { instructions: 11653406, calls: 466655, exec_hash: 7987370479570602090 }),
    ("hash", VmPinned { instructions: 458564, calls: 5182, exec_hash: 5788379858595615419 }, VmPinned { instructions: 448036, calls: 5182, exec_hash: 5963749063481689467 }),
    ("regex", VmPinned { instructions: 2140176, calls: 42370, exec_hash: 15602097047391702545 }, VmPinned { instructions: 1865382, calls: 42370, exec_hash: 4025473652756230408 }),
    ("bignum", VmPinned { instructions: 582236, calls: 862, exec_hash: 6096845686710914781 }, VmPinned { instructions: 579023, calls: 862, exec_hash: 1956997589101106736 }),
    ("queens", VmPinned { instructions: 645205, calls: 2840, exec_hash: 15764148116930612057 }, VmPinned { instructions: 628188, calls: 2840, exec_hash: 288049248730210884 }),
];

#[test]
fn corpus_outcomes_and_touch_maps_match_recorded_values() {
    let mut got = Vec::new();
    for b in benchmarks() {
        got.push((b.name, run_pinned(b.name, &b.compile().unwrap())));
    }
    assert_eq!(got.len(), CORPUS_GOLDEN.len(), "corpus size changed");
    assert_eq!(got.len(), CORPUS_VM_GOLDEN.len(), "corpus size changed");
    for (((name, (p, vm, translated)), (gname, gp)), (vname, gvm, gtranslated)) in
        got.iter().zip(CORPUS_GOLDEN).zip(CORPUS_VM_GOLDEN)
    {
        assert_eq!(name, gname);
        assert_eq!(name, vname);
        assert_eq!(p, gp, "{name}: interpreter behaviour changed");
        assert_eq!(vm, gvm, "{name}: VM behaviour changed");
        assert_eq!(
            translated, gtranslated,
            "{name}: VM behaviour on the translated program changed"
        );
    }
}

/// A module of `n` functions in which each function calls the next one
/// in code order and then keeps working, so every return re-enters an
/// earlier function in the middle of its code. Some also call the last
/// function, and `main` (last in code) calls back into the first.
fn chain_module(n: usize) -> String {
    let mut src = String::from("int g[8];\n");
    for k in 0..n {
        src.push_str(&format!("int f{k}(int x);\n"));
    }
    for k in 0..n {
        if k + 1 == n {
            src.push_str(&format!(
                "int f{k}(int x) {{ g[{m}] = g[{m}] + x; return x * 3 + {k}; }}\n",
                m = k % 8
            ));
        } else {
            src.push_str(&format!(
                "int f{k}(int x) {{ int a = f{next}(x + {k}); int b = a % 1009 + g[{m}]; \
                 g[{m}] = b % 97; if (x % 3 == 0) b = b + f{last}(x / 3); return b; }}\n",
                next = k + 1,
                m = k % 8,
                last = n - 1,
            ));
        }
    }
    src.push_str(
        "int main() { int i; int s = 0; for (i = 0; i < 12; i++) s = (s * 7 + f0(i)) % 100003; \
         print_int(s); return s; }\n",
    );
    src
}

/// Recorded alongside [`CORPUS_GOLDEN`].
const CHAIN_GOLDEN: Pinned = Pinned {
    value: 64434,
    output_len: 6,
    output_hash: 1317494623034350284,
    instructions: 25477,
    items_decoded: 14296,
    calls: 766,
    touched_runs: 1,
    touched_bytes: 3450,
    touched_hash: 8812469009055820112,
};

/// Recorded alongside [`CORPUS_VM_GOLDEN`].
const CHAIN_VM_GOLDEN: VmPinned = VmPinned {
    instructions: 30030,
    calls: 766,
    exec_hash: 8308172538373739301,
};

/// Recorded alongside [`CORPUS_VM_GOLDEN`].
const CHAIN_TRANSLATED_GOLDEN: VmPinned = VmPinned {
    instructions: 25477,
    calls: 766,
    exec_hash: 2672735396949704704,
};

#[test]
fn returns_into_many_functions_resolve_the_current_function() {
    let ir = compile(&chain_module(48)).unwrap();
    assert!(ir.functions.len() > 40);
    let (p, vm, translated) = run_pinned("chain", &ir);
    assert_eq!(p, CHAIN_GOLDEN);
    assert_eq!(vm, CHAIN_VM_GOLDEN);
    assert_eq!(translated, CHAIN_TRANSLATED_GOLDEN);
}

fn base_entry(s: &str) -> DictEntry {
    DictEntry::single(InstPattern::base_of(&parse_inst(s, 1).unwrap()))
}

#[test]
fn falling_through_past_the_last_function_is_an_exec_error() {
    // `main` is two `li`s and no return: after the second item pc sits
    // at the function's end, which is also the end of the code.
    let items = vec![
        Item {
            entry: 0,
            values: vec![Field::Reg(Reg::new(0)), Field::Imm(5)],
        },
        Item {
            entry: 0,
            values: vec![Field::Reg(Reg::new(1)), Field::Imm(6)],
        },
    ];
    let f = FuncItems {
        name: "main".into(),
        param_count: 0,
        frame_size: 0,
        saved_regs: vec![],
        leaders: vec![true, false],
        items,
    };
    let image = assemble(vec![base_entry("li n0,1")], vec![f], vec![]).unwrap();
    let end = image.functions[0].start + image.functions[0].len;
    let mut m = BriscMachine::new(&image, 1 << 16, 1 << 10).unwrap();
    match m.run("main", &[]) {
        Err(BriscError::Exec(msg)) => {
            assert_eq!(msg, format!("pc {end} outside all functions"));
        }
        other => panic!("expected an exec error, got {other:?}"),
    }
    assert_eq!(m.touched_runs(), vec![(0, end)]);
}
