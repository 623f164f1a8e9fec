//! Edge-case integration tests for the VM: indirect calls, block macros,
//! deep call stacks, and encoding limits.

use codecomp_vm::asm::parse_program;
use codecomp_vm::interp::{Machine, FUNC_BASE};
use codecomp_vm::isa::IsaConfig;
use codecomp_vm::VmError;

fn run(text: &str, entry: &str, args: &[i64]) -> i64 {
    let p = parse_program(text).unwrap();
    Machine::new(&p, 1 << 20, 1 << 26)
        .unwrap()
        .run(entry, args)
        .unwrap()
        .value
}

#[test]
fn indirect_calls_through_function_addresses() {
    // Function pointers are FUNC_BASE + index; callr dispatches on them.
    let text = format!(
        "\
.func double params=1 frame=0
    add.i n0,n0,n0
    rjr ra
.end
.func triple params=1 frame=0
    mov.i n1,n0
    add.i n0,n0,n1
    add.i n0,n0,n1
    rjr ra
.end
.func main params=1 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    mov.i n4,n0
    li n5,{double_addr}
    li n6,{triple_addr}
    mov.i n0,n4
    callr n5
    mov.i n4,n0
    mov.i n0,n4
    callr n6
    reload.i ra,4(sp)
    exit sp,sp,8
    rjr ra
.end
",
        double_addr = FUNC_BASE,
        triple_addr = FUNC_BASE + 1,
    );
    assert_eq!(run(&text, "main", &[7]), 7 * 2 * 3);
}

#[test]
fn deep_call_chains_track_sp() {
    // 200-deep recursion through explicit frames.
    let text = "\
.func down params=1 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    ble.i n0,0,$L1
    sub.i n0,n0,1
    call down
    add.i n0,n0,1
$L1:
    reload.i ra,4(sp)
    exit sp,sp,8
    rjr ra
.end
";
    assert_eq!(run(text, "down", &[200]), 200);
}

#[test]
fn bcopy_and_bzero_roundtrip_memory() {
    let text = "\
.global src 16 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
.global dst 16
.func main params=0 frame=0
    li n0,36
    li n1,16
    li n2,16
    bcopy n0,n1,n2
    li n2,8
    bzero n0,n2
    li n3,0
    li n4,16
$L1:
    ld.ib n5,0(n0)
    add.i n3,n3,n5
    add.i n0,n0,1
    sub.i n4,n4,1
    bgt.i n4,0,$L1
    mov.i n0,n3
    rjr ra
.end
";
    // First 8 bytes zeroed; remaining copied 9..=16 sum to 100.
    assert_eq!(run(text, "main", &[]), (9..=16).sum::<i64>());
}

#[test]
fn spills_preserve_all_callee_saved_registers() {
    let text = "\
.func clobber params=0 frame=40 saves=n4+n5+n6+n7
    enter sp,sp,40
    spill.i n4,32(sp)
    spill.i n5,28(sp)
    spill.i n6,24(sp)
    spill.i n7,20(sp)
    spill.i ra,36(sp)
    li n4,0
    li n5,0
    li n6,0
    li n7,0
    epi
.end
.func main params=0 frame=24 saves=n4
    enter sp,sp,24
    spill.i n4,16(sp)
    spill.i ra,20(sp)
    li n4,11
    li n5,22
    li n6,33
    li n7,44
    call clobber
    add.i n0,n4,n5
    add.i n0,n0,n6
    add.i n0,n0,n7
    epi
.end
";
    assert_eq!(run(text, "main", &[]), 11 + 22 + 33 + 44);
}

#[test]
fn codegen_rejects_pathological_expression_depth() {
    // A single expression deeper than the scratch file must error, not
    // miscompile. Build (((…(1+1)+1)…)+x) with call-free depth via
    // nested parens on the RIGHT so SU-free allocation exhausts.
    let mut expr = String::from("x");
    for _ in 0..12 {
        expr = format!("(x + {expr} * x)");
    }
    let src = format!("int main(int x) {{ return {expr}; }}");
    let ir = codecomp_front::compile(&src).unwrap();
    match codecomp_vm::codegen::compile_module(&ir, IsaConfig::full()) {
        Ok(p) => {
            // If it compiles, it must compute correctly.
            let got = Machine::new(&p, 1 << 20, 1 << 26)
                .unwrap()
                .run("main", &[2])
                .unwrap();
            let expect = codecomp_ir::eval::Evaluator::new(&ir, 1 << 20, 1 << 26)
                .unwrap()
                .run("main", &[2])
                .unwrap();
            assert_eq!(got.value, expect.value);
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("too deep"), "unexpected error: {msg}");
        }
    }
}

#[test]
fn validate_rejects_label_number_collisions_with_epilogue() {
    // `$L` names are assembler syntax for instruction indices: the number
    // the code generator once reserved for its epilogue label is a name
    // like any other, resolved within its function.
    let text = "\
.func main params=0 frame=0
    j $L1000000
$L1000000:
    li n0,5
    rjr ra
.end
";
    assert_eq!(run(text, "main", &[]), 5);
}

#[test]
fn memory_too_small_for_the_argument_staging_area_is_an_exec_error() {
    let p = parse_program(".func main params=0 frame=0\n    li n0,1\n    rjr ra\n.end\n").unwrap();
    for (mem, args) in [(2, &[][..]), (4, &[1, 2][..])] {
        match Machine::new(&p, mem, 100).unwrap().run("main", args) {
            Err(VmError::Exec(msg)) => assert!(msg.contains("arguments"), "got {msg}"),
            other => panic!("mem {mem}: expected an exec error, got {other:?}"),
        }
    }
}

#[test]
fn globals_overflowing_the_address_space_are_a_codegen_error() {
    let mut module = codecomp_ir::Module::new();
    for (name, size) in [("big", u32::MAX - 8), ("small", 64)] {
        module.globals.push(codecomp_ir::Global {
            name: name.into(),
            size,
            init: Vec::new(),
        });
    }
    match codecomp_vm::codegen::compile_module(&module, IsaConfig::full()) {
        Err(VmError::Codegen(msg)) => assert!(msg.contains("does not fit"), "got {msg}"),
        other => panic!("expected a codegen error, got {other:?}"),
    }
}
