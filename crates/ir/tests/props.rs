//! Randomized (deterministic, seeded) tests: random well-formed trees
//! survive the text and binary representations unchanged, and the
//! decoders are total on garbage.

use codecomp_core::bytesio::{decode_module, encode_module};
use codecomp_core::fault::XorShift64;
use codecomp_ir::op::{IrType, Op, Opcode};
use codecomp_ir::parse::{parse_module, parse_tree};
use codecomp_ir::tree::{Function, Global, Module, Tree};

const CASES: u64 = 128;

fn ident(rng: &mut XorShift64) -> String {
    let first = (b'a' + rng.below(26) as u8) as char;
    let mut s = String::from(first);
    for _ in 0..rng.below(7) {
        let c = match rng.below(37) {
            v @ 0..=25 => (b'a' + v as u8) as char,
            v @ 26..=35 => (b'0' + (v - 26) as u8) as char,
            _ => '_',
        };
        s.push(c);
    }
    s
}

fn leaf(rng: &mut XorShift64) -> Tree {
    match rng.below(4) {
        0 => Tree::cnst_auto(rng.range_i64(-300_000, 300_000)),
        1 => Tree::addr_local(rng.range_i64(-500, 500) as i32),
        2 => Tree::addr_formal(rng.range_i64(0, 64) as i32),
        _ => Tree::addr_global(ident(rng)),
    }
}

fn expr_tree(rng: &mut XorShift64, depth: usize) -> Tree {
    if depth == 0 || rng.chance(1, 4) {
        return leaf(rng);
    }
    match rng.below(5) {
        0 => {
            let ty = [IrType::I, IrType::C, IrType::S, IrType::U][rng.below(4) as usize];
            Tree::indir(ty, expr_tree(rng, depth - 1))
        }
        1 => {
            let ops = [
                Opcode::Add,
                Opcode::Sub,
                Opcode::Mul,
                Opcode::BAnd,
                Opcode::BOr,
                Opcode::BXor,
                Opcode::Lsh,
                Opcode::Rsh,
            ];
            let op = ops[rng.below(ops.len() as u64) as usize];
            let a = expr_tree(rng, depth - 1);
            let b = expr_tree(rng, depth - 1);
            Tree::binary(op, IrType::I, a, b)
        }
        2 => Tree::unary(Op::new(Opcode::Neg, IrType::I), expr_tree(rng, depth - 1)),
        3 => Tree::unary(Op::cvt(IrType::C, IrType::I), expr_tree(rng, depth - 1)),
        _ => {
            let a = expr_tree(rng, depth - 1);
            let v = expr_tree(rng, depth - 1);
            Tree::asgn(IrType::I, a, v)
        }
    }
}

fn stmt_tree(rng: &mut XorShift64) -> Tree {
    match rng.below(4) {
        0 => {
            let a = expr_tree(rng, 3);
            let v = expr_tree(rng, 3);
            Tree::asgn(IrType::I, a, v)
        }
        1 => Tree::arg(IrType::I, expr_tree(rng, 3)),
        2 => Tree::ret(IrType::I, expr_tree(rng, 3)),
        _ => {
            let ops = [
                Opcode::Eq,
                Opcode::Ne,
                Opcode::Lt,
                Opcode::Le,
                Opcode::Gt,
                Opcode::Ge,
            ];
            let op = ops[rng.below(ops.len() as u64) as usize];
            let a = expr_tree(rng, 3);
            let b = expr_tree(rng, 3);
            Tree::branch(op, IrType::I, 1, a, b)
        }
    }
}

fn module(trees: Vec<Tree>, globals: Vec<(String, u32)>) -> Module {
    let mut f = Function::new("main", 0, 64);
    f.body = trees;
    f.body.push(Tree::label(1));
    f.body.push(Tree::ret_void());
    Module {
        globals: globals
            .into_iter()
            .map(|(name, size)| Global {
                name,
                size: size.max(1),
                init: vec![],
            })
            .collect(),
        functions: vec![f],
    }
}

#[test]
fn tree_print_parse_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1A00 + case);
        let t = expr_tree(&mut rng, 4);
        let text = t.to_string();
        let back = parse_tree(&text).unwrap();
        assert_eq!(back, t);
    }
}

#[test]
fn module_text_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1B00 + case);
        let trees = (0..rng.below(12)).map(|_| stmt_tree(&mut rng)).collect();
        let m = module(trees, vec![("g0".into(), 8)]);
        let text = m.to_string();
        let back = parse_module(&text).unwrap();
        assert_eq!(back, m);
    }
}

#[test]
fn module_binary_roundtrip() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1C00 + case);
        let trees = (0..rng.below(12)).map(|_| stmt_tree(&mut rng)).collect();
        let mut names = std::collections::HashSet::new();
        let globals: Vec<(String, u32)> = (0..rng.below(4))
            .map(|_| (ident(&mut rng), 1 + rng.below(63) as u32))
            .filter(|(n, _)| names.insert(n.clone()))
            .collect();
        let m = module(trees, globals);
        let bytes = encode_module(&m).unwrap();
        assert_eq!(decode_module(&bytes).unwrap(), m);
    }
}

#[test]
fn binary_decoder_never_panics() {
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1D00 + case);
        let len = rng.below(256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_module(&bytes);
    }
}

#[test]
fn text_parser_never_panics() {
    const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789[](),*$ -";
    for case in 0..CASES {
        let mut rng = XorShift64::new(0x1E00 + case);
        let len = rng.below(81) as usize;
        let text: String = (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize] as char)
            .collect();
        let _ = parse_tree(&text);
        let _ = parse_module(&text);
    }
}
