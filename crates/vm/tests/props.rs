//! Randomized (deterministic, seeded) tests: random instructions and
//! functions survive the assembly and binary representations; the
//! decoders never panic on arbitrary bytes.

use codecomp_core::bytesio::{Cursor, SymbolTable};
use codecomp_core::fault::XorShift64;
use codecomp_core::Budget;
use codecomp_vm::asm::{parse_inst, parse_program};
use codecomp_vm::encode::{base_op, code_inst, fields, inst_size, rebuild};
use codecomp_vm::isa::{AluOp, Cond, FuncRef, Inst, MemWidth};
use codecomp_vm::program::{VmFunction, VmProgram};
use codecomp_vm::reg::Reg;

const CASES: u64 = 256;

fn reg(rng: &mut XorShift64) -> Reg {
    Reg::new(rng.below(16) as u8)
}

fn mem_width(rng: &mut XorShift64) -> MemWidth {
    [MemWidth::Byte, MemWidth::Short, MemWidth::Word][rng.below(3) as usize]
}

fn alu_op(rng: &mut XorShift64) -> AluOp {
    AluOp::ALL[rng.below(AluOp::ALL.len() as u64) as usize]
}

fn cond(rng: &mut XorShift64) -> Cond {
    Cond::ALL[rng.below(Cond::ALL.len() as u64) as usize]
}

fn any_i32(rng: &mut XorShift64) -> i32 {
    rng.next_u64() as i32
}

fn ident(rng: &mut XorShift64) -> String {
    let mut s = String::from((b'a' + rng.below(26) as u8) as char);
    for _ in 0..rng.below(9) {
        let c = match rng.below(37) {
            v @ 0..=25 => (b'a' + v as u8) as char,
            v @ 26..=35 => (b'0' + (v - 26) as u8) as char,
            _ => '_',
        };
        s.push(c);
    }
    s
}

/// Any encodable instruction.
fn inst(rng: &mut XorShift64) -> Inst {
    match rng.below(23) {
        0 => Inst::Li {
            rd: reg(rng),
            imm: any_i32(rng),
        },
        1 => Inst::Mov {
            rd: reg(rng),
            rs: reg(rng),
        },
        2 => Inst::Alu {
            op: alu_op(rng),
            rd: reg(rng),
            rs: reg(rng),
            rt: reg(rng),
        },
        3 => Inst::AluImm {
            op: alu_op(rng),
            rd: reg(rng),
            rs: reg(rng),
            imm: any_i32(rng),
        },
        4 => Inst::Neg {
            rd: reg(rng),
            rs: reg(rng),
        },
        5 => Inst::Not {
            rd: reg(rng),
            rs: reg(rng),
        },
        6 => Inst::Sext {
            width: [MemWidth::Byte, MemWidth::Short][rng.below(2) as usize],
            rd: reg(rng),
            rs: reg(rng),
        },
        7 => Inst::Load {
            width: mem_width(rng),
            rd: reg(rng),
            off: any_i32(rng),
            base: reg(rng),
        },
        8 => Inst::Store {
            width: mem_width(rng),
            rs: reg(rng),
            off: any_i32(rng),
            base: reg(rng),
        },
        9 => Inst::Spill {
            rs: reg(rng),
            off: rng.range_i64(-4096, 4096) as i32,
        },
        10 => Inst::Reload {
            rd: reg(rng),
            off: rng.range_i64(-4096, 4096) as i32,
        },
        11 => Inst::Enter {
            amount: rng.range_i64(0, 100_000) as i32,
        },
        12 => Inst::Exit {
            amount: rng.range_i64(0, 100_000) as i32,
        },
        13 => Inst::Branch {
            cond: cond(rng),
            rs: reg(rng),
            rt: reg(rng),
            target: rng.below(1000) as u32,
        },
        14 => Inst::BranchImm {
            cond: cond(rng),
            rs: reg(rng),
            imm: any_i32(rng),
            target: rng.below(1000) as u32,
        },
        15 => Inst::Jump {
            target: rng.below(1000) as u32,
        },
        16 => Inst::Call {
            target: FuncRef::Symbol(ident(rng)),
        },
        17 => Inst::CallR { rs: reg(rng) },
        18 => Inst::Rjr { rs: reg(rng) },
        19 => Inst::Epi,
        20 => Inst::Nop,
        21 => Inst::Bcopy {
            rd: reg(rng),
            rs: reg(rng),
            rn: reg(rng),
        },
        _ => Inst::Bzero {
            rd: reg(rng),
            rn: reg(rng),
        },
    }
}

/// The call targets of `insts`, in first-use order.
fn call_symbols(insts: &[Inst]) -> SymbolTable {
    let mut symbols = SymbolTable::default();
    for i in insts {
        if let Inst::Call {
            target: FuncRef::Symbol(name),
        } = i
        {
            symbols.intern(name);
        }
    }
    symbols
}

#[test]
fn asm_text_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2A00 + case);
        let i = inst(&mut rng);
        let text = i.to_string();
        let back = parse_inst(&text, 1).unwrap();
        assert_eq!(back, i);
    }
}

#[test]
fn asm_program_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2A80 + case);
        let mut f = VmFunction::new("f", 0, 8);
        f.code = (0..rng.range_usize(1, 32))
            .map(|_| inst(&mut rng))
            .collect();
        let len = f.code.len() as u64;
        for t in f.code.iter_mut().filter_map(Inst::target_mut) {
            *t = rng.below(len) as u32;
        }
        let mut p = VmProgram::new();
        p.functions.push(f);
        let back = parse_program(&p.to_string()).unwrap();
        assert_eq!(back.functions, p.functions, "case {case}:\n{p}");
    }
}

#[test]
fn binary_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2B00 + case);
        let mut insts: Vec<Inst> = (0..rng.range_usize(1, 32))
            .map(|_| inst(&mut rng))
            .collect();
        let symbols = call_symbols(&insts);
        let mut buf = Vec::new();
        for i in &mut insts {
            code_inst(&mut buf, i, &symbols).unwrap();
        }
        let budget = Budget::default();
        let mut c = Cursor::new(&buf, &budget);
        for i in &insts {
            let mut back = Inst::Nop;
            code_inst(&mut c, &mut back, &symbols).unwrap();
            assert_eq!(&back, i);
        }
        assert_eq!(c.remaining(), 0);
    }
}

#[test]
fn size_matches_encoding() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2C00 + case);
        let mut i = inst(&mut rng);
        let symbols = call_symbols(std::slice::from_ref(&i));
        let mut buf = Vec::new();
        code_inst(&mut buf, &mut i, &symbols).unwrap();
        assert_eq!(buf.len(), inst_size(&i));
    }
}

#[test]
fn field_view_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2D00 + case);
        let i = inst(&mut rng);
        let op = base_op(&i);
        let fs = fields(&i);
        assert_eq!(rebuild(op, &fs).unwrap(), i);
    }
}

#[test]
fn decoder_never_panics() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2E00 + case);
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut symbols = SymbolTable::default();
        symbols.intern("f");
        let budget = Budget::default();
        let mut c = Cursor::new(&bytes, &budget);
        while c.remaining() > 0 {
            if code_inst(&mut c, &mut Inst::Nop, &symbols).is_err() {
                break;
            }
        }
    }
}

#[test]
fn asm_parser_never_panics() {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.,() $L-";
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x2F00 + case);
        let len = rng.below(41) as usize;
        let text: String = (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
            .collect();
        let _ = parse_inst(&text, 1);
        let _ = parse_program(&text);
    }
}
