//! A reference evaluator for IR modules.
//!
//! The evaluator defines the semantics that the VM code generator, the
//! BRISC interpreter, and the fast translation tier must all agree with;
//! differential tests run the same program through every tier and
//! compare results and output.
//!
//! # Memory model
//!
//! A single flat 32-bit byte-addressed memory. Globals are laid out from
//! low addresses; the stack grows downward from the top. Function
//! parameters are spilled by the *caller* into the callee's frame at
//! offsets `4*i` — the same convention the front end and the VM code
//! generator use. Function symbols evaluate to pseudo-addresses in a
//! reserved range so indirect calls work.

use crate::op::{IrType, Literal, Opcode};
use crate::tree::{Function, Module, Tree};
use crate::IrError;
use std::collections::HashMap;

/// Pseudo-address space base for function symbols.
const FUNC_BASE: u32 = 0x0100_0000;
/// Lowest address handed to globals (0 stays unmapped as "null").
const GLOBAL_BASE: u32 = 16;

/// Built-in host functions available to evaluated programs.
///
/// `print_int(v)` appends `v` in decimal plus a newline to the output;
/// `print_char(c)` appends the single byte `c`.
pub const HOST_FUNCTIONS: [&str; 2] = ["print_int", "print_char"];

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Statement trees executed.
    pub statements: u64,
    /// Tree nodes evaluated.
    pub nodes: u64,
    /// Calls performed (including host calls).
    pub calls: u64,
}

/// The result of running a program: exit value, captured output, stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// The entry function's return value.
    pub value: i64,
    /// Bytes written through the host print functions.
    pub output: Vec<u8>,
    /// Execution counters.
    pub stats: EvalStats,
}

/// A tree-walking evaluator over a module.
#[derive(Debug)]
pub struct Evaluator<'m> {
    module: &'m Module,
    mem: Vec<u8>,
    global_addrs: HashMap<String, u32>,
    func_index: HashMap<String, usize>,
    sp: u32,
    args: Vec<i64>,
    output: Vec<u8>,
    stats: EvalStats,
    fuel: u64,
}

impl<'m> Evaluator<'m> {
    /// Prepares an evaluator with `mem_size` bytes of memory and a fuel
    /// budget of `fuel` statements.
    ///
    /// # Errors
    ///
    /// [`IrError::Eval`] if the globals do not fit in memory.
    pub fn new(module: &'m Module, mem_size: u32, fuel: u64) -> Result<Self, IrError> {
        let mut global_addrs = HashMap::new();
        let mut next = GLOBAL_BASE;
        let mut mem = vec![0u8; mem_size as usize];
        for g in &module.globals {
            let aligned = next.div_ceil(4) * 4;
            if u64::from(aligned) + u64::from(g.size) > u64::from(mem_size) {
                return Err(IrError::Eval(format!("global {} does not fit", g.name)));
            }
            let start = aligned as usize;
            let init_len = g.init.len().min(g.size as usize);
            mem[start..start + init_len].copy_from_slice(&g.init[..init_len]);
            global_addrs.insert(g.name.clone(), aligned);
            next = aligned + g.size;
        }
        let func_index = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        Ok(Self {
            module,
            sp: mem_size & !3,
            mem,
            global_addrs,
            func_index,
            args: Vec::new(),
            output: Vec::new(),
            stats: EvalStats::default(),
            fuel,
        })
    }

    /// Runs `entry` with the given arguments.
    ///
    /// # Errors
    ///
    /// [`IrError::Eval`] for missing functions, memory faults, division
    /// by zero, or fuel exhaustion.
    pub fn run(mut self, entry: &str, args: &[i64]) -> Result<EvalOutcome, IrError> {
        let value = self.call_by_name(entry, args.to_vec())?;
        Ok(EvalOutcome {
            value,
            output: self.output,
            stats: self.stats,
        })
    }

    fn call_by_name(&mut self, name: &str, args: Vec<i64>) -> Result<i64, IrError> {
        self.stats.calls += 1;
        match name {
            "print_int" => {
                let v = args.first().copied().unwrap_or(0);
                self.output.extend_from_slice(v.to_string().as_bytes());
                self.output.push(b'\n');
                Ok(0)
            }
            "print_char" => {
                self.output.push(args.first().copied().unwrap_or(0) as u8);
                Ok(0)
            }
            _ => {
                let idx = *self
                    .func_index
                    .get(name)
                    .ok_or_else(|| IrError::Eval(format!("undefined function {name}")))?;
                self.call_function(idx, args)
            }
        }
    }

    fn call_function(&mut self, idx: usize, args: Vec<i64>) -> Result<i64, IrError> {
        let f: &Function = &self.module.functions[idx];
        let frame = f.frame_size.div_ceil(4) * 4;
        let old_sp = self.sp;
        let fp = self
            .sp
            .checked_sub(frame)
            .filter(|&fp| fp >= GLOBAL_BASE)
            .ok_or_else(|| IrError::Eval(format!("stack overflow calling {}", f.name)))?;
        self.sp = fp;
        // Caller spills arguments into the callee frame at 4*i.
        for (i, &a) in args.iter().enumerate().take(f.param_count) {
            self.store(fp + 4 * i as u32, IrType::I, a)?;
        }
        // Label map for branches.
        let mut labels = HashMap::new();
        for (i, stmt) in f.body.iter().enumerate() {
            if stmt.op().opcode == Opcode::LabelDef {
                if let Some(Literal::Label(l)) = stmt.literal() {
                    labels.insert(*l, i);
                }
            }
        }
        let result = self.exec_body(f, fp, &labels);
        self.sp = old_sp;
        result
    }

    fn exec_body(
        &mut self,
        f: &Function,
        fp: u32,
        labels: &HashMap<u32, usize>,
    ) -> Result<i64, IrError> {
        let mut pc = 0usize;
        while pc < f.body.len() {
            if self.fuel == 0 {
                return Err(IrError::Eval("fuel exhausted".into()));
            }
            self.fuel -= 1;
            self.stats.statements += 1;
            let stmt = &f.body[pc];
            let opcode = stmt.op().opcode;
            match opcode {
                Opcode::LabelDef => {}
                Opcode::Jump => {
                    let Some(Literal::Label(l)) = stmt.literal() else {
                        return Err(IrError::Eval("JUMP without label".into()));
                    };
                    pc = *labels
                        .get(l)
                        .ok_or_else(|| IrError::Eval(format!("undefined label {l}")))?;
                    continue;
                }
                _ if opcode.is_branch() => {
                    let a = self.eval(&stmt.kids()[0], fp)?;
                    let b = self.eval(&stmt.kids()[1], fp)?;
                    let (a, b) = match stmt.op().ty {
                        IrType::U | IrType::P => ((a as u32) as i64, (b as u32) as i64),
                        _ => (a, b),
                    };
                    let taken = match opcode {
                        Opcode::Eq => a == b,
                        Opcode::Ne => a != b,
                        Opcode::Lt => a < b,
                        Opcode::Le => a <= b,
                        Opcode::Gt => a > b,
                        Opcode::Ge => a >= b,
                        _ => unreachable!("is_branch covers exactly these"),
                    };
                    if taken {
                        let Some(Literal::Label(l)) = stmt.literal() else {
                            return Err(IrError::Eval("branch without label".into()));
                        };
                        pc = *labels
                            .get(l)
                            .ok_or_else(|| IrError::Eval(format!("undefined label {l}")))?;
                        continue;
                    }
                }
                Opcode::Ret => {
                    return if stmt.kids().is_empty() {
                        Ok(0)
                    } else {
                        self.eval(&stmt.kids()[0], fp)
                    };
                }
                _ => {
                    self.eval(stmt, fp)?;
                }
            }
            pc += 1;
        }
        Ok(0)
    }

    fn eval(&mut self, t: &Tree, fp: u32) -> Result<i64, IrError> {
        self.stats.nodes += 1;
        let op = t.op();
        match op.opcode {
            Opcode::Cnst => match t.literal() {
                Some(Literal::Int(v)) => Ok(*v),
                _ => Err(IrError::Eval("CNST without int literal".into())),
            },
            Opcode::AddrL | Opcode::AddrF => match t.literal() {
                Some(Literal::Offset(off)) => Ok(i64::from(fp) + i64::from(*off)),
                _ => Err(IrError::Eval("ADDR without offset".into())),
            },
            Opcode::AddrG => match t.literal() {
                Some(Literal::Symbol(name)) => {
                    if let Some(&a) = self.global_addrs.get(name) {
                        Ok(i64::from(a))
                    } else if let Some(&i) = self.func_index.get(name) {
                        Ok(i64::from(FUNC_BASE + i as u32))
                    } else if HOST_FUNCTIONS.contains(&name.as_str()) {
                        let host = HOST_FUNCTIONS
                            .iter()
                            .position(|&h| h == name)
                            .expect("contains checked");
                        Ok(i64::from(FUNC_BASE) + 0x10_0000 + host as i64)
                    } else {
                        Err(IrError::Eval(format!("undefined symbol {name}")))
                    }
                }
                _ => Err(IrError::Eval("ADDRG without symbol".into())),
            },
            Opcode::Indir => {
                let addr = self.eval(&t.kids()[0], fp)?;
                self.load(addr as u32, op.ty)
            }
            Opcode::Asgn => {
                let addr = self.eval(&t.kids()[0], fp)?;
                let value = self.eval(&t.kids()[1], fp)?;
                self.store(addr as u32, op.ty, value)?;
                // The value of an assignment is the stored (truncated) value.
                Ok(truncate(value, op.ty))
            }
            Opcode::Cvt => {
                let v = self.eval(&t.kids()[0], fp)?;
                Ok(convert(v, op.from.expect("validated CVT"), op.ty))
            }
            Opcode::Neg => Ok(truncate(-self.eval(&t.kids()[0], fp)?, op.ty)),
            Opcode::BCom => Ok(truncate(!self.eval(&t.kids()[0], fp)?, op.ty)),
            Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Div
            | Opcode::Mod
            | Opcode::BAnd
            | Opcode::BOr
            | Opcode::BXor
            | Opcode::Lsh
            | Opcode::Rsh => {
                let a = self.eval(&t.kids()[0], fp)?;
                let b = self.eval(&t.kids()[1], fp)?;
                binary_op(op.opcode, op.ty, a, b)
            }
            Opcode::Arg => {
                let v = self.eval(&t.kids()[0], fp)?;
                self.args.push(v);
                Ok(v)
            }
            Opcode::Call => {
                let target = self.eval(&t.kids()[0], fp)? as u32;
                let args = std::mem::take(&mut self.args);
                if target >= FUNC_BASE + 0x10_0000 {
                    let host = (target - FUNC_BASE - 0x10_0000) as usize;
                    let name = HOST_FUNCTIONS
                        .get(host)
                        .ok_or_else(|| IrError::Eval("bad host function address".into()))?;
                    self.call_by_name(name, args)
                } else if target >= FUNC_BASE {
                    let idx = (target - FUNC_BASE) as usize;
                    if idx >= self.module.functions.len() {
                        return Err(IrError::Eval("bad function address".into()));
                    }
                    self.stats.calls += 1;
                    self.call_function(idx, args)
                } else {
                    Err(IrError::Eval(format!(
                        "call to non-function address {target}"
                    )))
                }
            }
            Opcode::Ret
            | Opcode::Jump
            | Opcode::LabelDef
            | Opcode::Eq
            | Opcode::Ne
            | Opcode::Lt
            | Opcode::Le
            | Opcode::Gt
            | Opcode::Ge => Err(IrError::Eval(format!(
                "{} is a statement, not an expression",
                op.mnemonic()
            ))),
        }
    }

    fn load(&mut self, addr: u32, ty: IrType) -> Result<i64, IrError> {
        let size = ty.size() as usize;
        let a = addr as usize;
        if size == 0 || a == 0 || a + size > self.mem.len() {
            return Err(IrError::Eval(format!(
                "bad load of {size} bytes at {addr:#x}"
            )));
        }
        Ok(match ty {
            IrType::C => i64::from(self.mem[a] as i8),
            IrType::S => i64::from(i16::from_le_bytes([self.mem[a], self.mem[a + 1]])),
            IrType::I => i64::from(i32::from_le_bytes([
                self.mem[a],
                self.mem[a + 1],
                self.mem[a + 2],
                self.mem[a + 3],
            ])),
            IrType::U | IrType::P => i64::from(u32::from_le_bytes([
                self.mem[a],
                self.mem[a + 1],
                self.mem[a + 2],
                self.mem[a + 3],
            ])),
            IrType::V => unreachable!("size 0 rejected above"),
        })
    }

    fn store(&mut self, addr: u32, ty: IrType, value: i64) -> Result<(), IrError> {
        let size = ty.size() as usize;
        let a = addr as usize;
        if size == 0 || a == 0 || a + size > self.mem.len() {
            return Err(IrError::Eval(format!(
                "bad store of {size} bytes at {addr:#x}"
            )));
        }
        match size {
            1 => self.mem[a] = value as u8,
            2 => self.mem[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            _ => self.mem[a..a + 4].copy_from_slice(&(value as u32).to_le_bytes()),
        }
        Ok(())
    }
}

/// Truncates `v` to the range of `ty` (sign-extending signed types).
pub fn truncate(v: i64, ty: IrType) -> i64 {
    match ty {
        IrType::C => i64::from(v as i8),
        IrType::S => i64::from(v as i16),
        IrType::I => i64::from(v as i32),
        IrType::U | IrType::P => i64::from(v as u32),
        IrType::V => v,
    }
}

/// Applies a type conversion.
pub fn convert(v: i64, from: IrType, to: IrType) -> i64 {
    truncate(truncate(v, from), to)
}

fn binary_op(opcode: Opcode, ty: IrType, a: i64, b: i64) -> Result<i64, IrError> {
    let unsigned = matches!(ty, IrType::U | IrType::P);
    let (a32, b32) = (truncate(a, ty), truncate(b, ty));
    let raw = match opcode {
        Opcode::Add => a32.wrapping_add(b32),
        Opcode::Sub => a32.wrapping_sub(b32),
        Opcode::Mul => a32.wrapping_mul(b32),
        Opcode::Div => {
            if b32 == 0 {
                return Err(IrError::Eval("division by zero".into()));
            }
            if unsigned {
                ((a32 as u32) / (b32 as u32)) as i64
            } else {
                (a32 as i32).wrapping_div(b32 as i32) as i64
            }
        }
        Opcode::Mod => {
            if b32 == 0 {
                return Err(IrError::Eval("remainder by zero".into()));
            }
            if unsigned {
                ((a32 as u32) % (b32 as u32)) as i64
            } else {
                (a32 as i32).wrapping_rem(b32 as i32) as i64
            }
        }
        Opcode::BAnd => a32 & b32,
        Opcode::BOr => a32 | b32,
        Opcode::BXor => a32 ^ b32,
        Opcode::Lsh => ((a32 as u32) << (b32 as u32 & 31)) as i64,
        Opcode::Rsh => {
            if unsigned {
                i64::from((a32 as u32) >> (b32 as u32 & 31))
            } else {
                i64::from((a32 as i32) >> (b32 as u32 & 31))
            }
        }
        other => return Err(IrError::Eval(format!("{other:?} is not a binary operator"))),
    };
    Ok(truncate(raw, ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Global, Module};

    fn module_with(body: Vec<Tree>, frame: u32) -> Module {
        let mut f = Function::new("main", 0, frame);
        f.body = body;
        Module {
            globals: vec![],
            functions: vec![f],
        }
    }

    fn run(m: &Module) -> EvalOutcome {
        Evaluator::new(m, 1 << 16, 1 << 20)
            .unwrap()
            .run("main", &[])
            .unwrap()
    }

    #[test]
    fn returns_constant() {
        let m = module_with(vec![Tree::ret(IrType::I, Tree::cnst_auto(42))], 0);
        assert_eq!(run(&m).value, 42);
    }

    #[test]
    fn arithmetic_statement_chain() {
        // local0 = 10; local0 = local0 * 3 + 2; return local0;
        let l0 = || Tree::addr_local(0);
        let m = module_with(
            vec![
                Tree::asgn(IrType::I, l0(), Tree::cnst_auto(10)),
                Tree::asgn(
                    IrType::I,
                    l0(),
                    Tree::add(
                        IrType::I,
                        Tree::mul(IrType::I, Tree::indir(IrType::I, l0()), Tree::cnst_auto(3)),
                        Tree::cnst_auto(2),
                    ),
                ),
                Tree::ret(IrType::I, Tree::indir(IrType::I, l0())),
            ],
            8,
        );
        assert_eq!(run(&m).value, 32);
    }

    #[test]
    fn branches_and_loops() {
        // i = 0; sum = 0; L1: if i >= 5 goto L2; sum += i; i++; goto L1; L2: ret sum
        let i_ = || Tree::addr_local(0);
        let s_ = || Tree::addr_local(4);
        let m = module_with(
            vec![
                Tree::asgn(IrType::I, i_(), Tree::cnst_auto(0)),
                Tree::asgn(IrType::I, s_(), Tree::cnst_auto(0)),
                Tree::label(1),
                Tree::branch(
                    Opcode::Ge,
                    IrType::I,
                    2,
                    Tree::indir(IrType::I, i_()),
                    Tree::cnst_auto(5),
                ),
                Tree::asgn(
                    IrType::I,
                    s_(),
                    Tree::add(
                        IrType::I,
                        Tree::indir(IrType::I, s_()),
                        Tree::indir(IrType::I, i_()),
                    ),
                ),
                Tree::asgn(
                    IrType::I,
                    i_(),
                    Tree::add(IrType::I, Tree::indir(IrType::I, i_()), Tree::cnst_auto(1)),
                ),
                Tree::jump(1),
                Tree::label(2),
                Tree::ret(IrType::I, Tree::indir(IrType::I, s_())),
            ],
            8,
        );
        assert_eq!(run(&m).value, 1 + 2 + 3 + 4);
    }

    #[test]
    fn calls_with_arguments() {
        // add2(a,b) { return a+b; }  main { return add2(3, 4); }
        let mut add2 = Function::new("add2", 2, 8);
        add2.body = vec![Tree::ret(
            IrType::I,
            Tree::add(
                IrType::I,
                Tree::indir(IrType::I, Tree::addr_formal(0)),
                Tree::indir(IrType::I, Tree::addr_formal(4)),
            ),
        )];
        let mut main = Function::new("main", 0, 0);
        main.body = vec![
            Tree::arg(IrType::I, Tree::cnst_auto(3)),
            Tree::arg(IrType::I, Tree::cnst_auto(4)),
            Tree::ret(IrType::I, Tree::call(IrType::I, Tree::addr_global("add2"))),
        ];
        let m = Module {
            globals: vec![],
            functions: vec![add2, main],
        };
        assert_eq!(run(&m).value, 7);
    }

    #[test]
    fn recursion_factorial() {
        // fact(n) { if n <= 1 return 1; return n * fact(n-1); }
        let n = || Tree::indir(IrType::I, Tree::addr_formal(0));
        let mut fact = Function::new("fact", 1, 4);
        fact.body = vec![
            Tree::branch(Opcode::Gt, IrType::I, 1, n(), Tree::cnst_auto(1)),
            Tree::ret(IrType::I, Tree::cnst_auto(1)),
            Tree::label(1),
            Tree::arg(IrType::I, Tree::sub(IrType::I, n(), Tree::cnst_auto(1))),
            Tree::ret(
                IrType::I,
                Tree::mul(
                    IrType::I,
                    n(),
                    Tree::call(IrType::I, Tree::addr_global("fact")),
                ),
            ),
        ];
        let mut main = Function::new("main", 0, 0);
        main.body = vec![
            Tree::arg(IrType::I, Tree::cnst_auto(6)),
            Tree::ret(IrType::I, Tree::call(IrType::I, Tree::addr_global("fact"))),
        ];
        let m = Module {
            globals: vec![],
            functions: vec![fact, main],
        };
        assert_eq!(run(&m).value, 720);
    }

    #[test]
    fn host_output() {
        let mut main = Function::new("main", 0, 0);
        main.body = vec![
            Tree::arg(IrType::I, Tree::cnst_auto(123)),
            Tree::asgn(
                IrType::I,
                Tree::addr_local(0),
                Tree::call(IrType::I, Tree::addr_global("print_int")),
            ),
            Tree::arg(IrType::I, Tree::cnst_auto(65)),
            Tree::asgn(
                IrType::I,
                Tree::addr_local(0),
                Tree::call(IrType::I, Tree::addr_global("print_char")),
            ),
            Tree::ret(IrType::I, Tree::cnst_auto(0)),
        ];
        let m = Module {
            globals: vec![],
            functions: vec![{
                let mut f = main;
                f.frame_size = 4;
                f
            }],
        };
        assert_eq!(run(&m).output, b"123\nA");
    }

    #[test]
    fn globals_load_store_and_init() {
        let m = Module {
            globals: vec![Global {
                name: "g".into(),
                size: 4,
                init: vec![7, 0, 0, 0],
            }],
            functions: vec![{
                let mut f = Function::new("main", 0, 0);
                f.body = vec![
                    Tree::asgn(
                        IrType::I,
                        Tree::addr_global("g"),
                        Tree::add(
                            IrType::I,
                            Tree::indir(IrType::I, Tree::addr_global("g")),
                            Tree::cnst_auto(5),
                        ),
                    ),
                    Tree::ret(IrType::I, Tree::indir(IrType::I, Tree::addr_global("g"))),
                ];
                f
            }],
        };
        assert_eq!(run(&m).value, 12);
    }

    #[test]
    fn char_and_short_memory_semantics() {
        // Store 300 as a char, load it back: 300 mod 256 = 44.
        let m = module_with(
            vec![
                Tree::asgn(IrType::C, Tree::addr_local(0), Tree::cnst(IrType::S, 300)),
                Tree::ret(IrType::I, Tree::indir(IrType::C, Tree::addr_local(0))),
            ],
            4,
        );
        assert_eq!(run(&m).value, 44);
    }

    #[test]
    fn signed_vs_unsigned_division() {
        let m = module_with(
            vec![Tree::ret(
                IrType::I,
                Tree::binary(
                    Opcode::Div,
                    IrType::I,
                    Tree::cnst_auto(-7),
                    Tree::cnst_auto(2),
                ),
            )],
            0,
        );
        assert_eq!(run(&m).value, -3);
        let m = module_with(
            vec![Tree::ret(
                IrType::U,
                Tree::binary(
                    Opcode::Rsh,
                    IrType::U,
                    Tree::cnst(IrType::I, -1),
                    Tree::cnst_auto(28),
                ),
            )],
            0,
        );
        assert_eq!(run(&m).value, 15);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let m = module_with(
            vec![Tree::ret(
                IrType::I,
                Tree::binary(
                    Opcode::Div,
                    IrType::I,
                    Tree::cnst_auto(1),
                    Tree::cnst_auto(0),
                ),
            )],
            0,
        );
        let r = Evaluator::new(&m, 1 << 16, 1000).unwrap().run("main", &[]);
        assert!(matches!(r, Err(IrError::Eval(_))));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let m = module_with(vec![Tree::label(1), Tree::jump(1)], 0);
        let r = Evaluator::new(&m, 1 << 16, 1000).unwrap().run("main", &[]);
        assert!(matches!(r, Err(IrError::Eval(_))));
    }

    #[test]
    fn null_deref_is_an_error() {
        let m = module_with(
            vec![Tree::ret(
                IrType::I,
                Tree::indir(IrType::I, Tree::cnst_auto(0)),
            )],
            0,
        );
        let r = Evaluator::new(&m, 1 << 16, 1000).unwrap().run("main", &[]);
        assert!(matches!(r, Err(IrError::Eval(_))));
    }

    #[test]
    fn entry_arguments_are_passed() {
        let mut f = Function::new("main", 2, 8);
        f.body = vec![Tree::ret(
            IrType::I,
            Tree::sub(
                IrType::I,
                Tree::indir(IrType::I, Tree::addr_formal(0)),
                Tree::indir(IrType::I, Tree::addr_formal(4)),
            ),
        )];
        let m = Module {
            globals: vec![],
            functions: vec![f],
        };
        let out = Evaluator::new(&m, 1 << 16, 1000)
            .unwrap()
            .run("main", &[10, 3])
            .unwrap();
        assert_eq!(out.value, 7);
    }

    #[test]
    fn conversions() {
        assert_eq!(convert(0x1FF, IrType::I, IrType::C), -1);
        assert_eq!(convert(-1, IrType::C, IrType::U), 0xFFFF_FFFF);
        assert_eq!(convert(70_000, IrType::I, IrType::S), 70_000 - 65_536);
    }
}
