//! The VM interpreter and the execution core every interpreter shares.
//!
//! [`Core`] is the one copy of the execution semantics: registers,
//! memory, host output, counters, the global layout, argument staging,
//! and [`Core::step`], which executes any [`Inst`] — host calls and the
//! function/host/return pseudo-address decode included. A step hands
//! back to its driver only what depends on the driver's pc space, as a
//! [`Flow`].
//!
//! Two drivers run it. [`Machine`] steps through linked flat code and
//! counts executions per instruction for the working-set experiments;
//! the BRISC crate's in-place interpreter steps through items it
//! decodes where they lie. Each driver charges its own fuel.

use crate::isa::{AluOp, FuncRef, Inst, MemWidth};
use crate::program::{Callee, FlatProgram, VmGlobal, VmProgram};
use crate::reg::Reg;
use crate::VmError;
use codecomp_ir::eval::HOST_FUNCTIONS;

pub use codecomp_ir::eval::{FUNC_BASE, GLOBAL_BASE, HOST_BASE};
/// Pseudo-address base for return addresses (`RA_BASE + pc`).
pub const RA_BASE: u32 = 0x0200_0000;
/// The return address that terminates the entry function.
pub const DONE: u32 = 0x03FF_FFFF;

/// The result of a program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The entry function's return value (register `n0`).
    pub value: i64,
    /// Bytes written through the host print functions.
    pub output: Vec<u8>,
    /// Instructions executed.
    pub instructions: u64,
    /// Calls performed.
    pub calls: u64,
}

/// Where control goes after one [`Core::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// On to the next instruction.
    Fall,
    /// To a branch target, as the instruction holds it.
    Branch(u32),
    /// Into function `i`; `ra` already holds the return address.
    Enter(usize),
    /// Back to a pc handed out as a return address.
    Return(usize),
    /// The entry function returned.
    Done,
}

/// The frame of the function executing, which `epi` tears down.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Frame size in bytes; `ra` lives at `size - 4`.
    pub size: u32,
    /// Callee-saved registers in spill order, at `size - 8 - 4*i`.
    pub saved_regs: &'a [Reg],
}

/// Machine state and the instruction semantics every driver shares.
#[derive(Debug)]
pub struct Core {
    regs: [i64; 16],
    mem: Vec<u8>,
    output: Vec<u8>,
    functions: usize,
    instructions: u64,
    calls: u64,
}

impl Core {
    /// A machine of `mem_size` bytes with `globals` laid out by
    /// [`codecomp_ir::eval::layout_globals`], running a program of
    /// `functions` functions.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] if the globals do not fit.
    pub fn new(globals: &[VmGlobal], mem_size: u32, functions: usize) -> Result<Core, VmError> {
        let (mem, _) =
            codecomp_ir::eval::global_memory(globals, mem_size).map_err(VmError::Exec)?;
        Ok(Core {
            regs: [0; 16],
            mem,
            output: Vec::new(),
            functions,
            instructions: 0,
            calls: 0,
        })
    }

    /// Stages `args` as a caller would and sets `ra` to [`DONE`], ready
    /// for the driver to enter the entry function.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] if memory is too small for the staging area.
    pub fn start(&mut self, args: &[i64]) -> Result<(), VmError> {
        let top = u32::try_from(args.len().max(1))
            .ok()
            .and_then(|n| n.checked_mul(4))
            .and_then(|staging| (self.mem.len() as u32 & !3).checked_sub(staging))
            .ok_or_else(|| VmError::Exec("memory too small for arguments".into()))?;
        self.set_reg(Reg::SP, i64::from(top));
        for (i, &a) in args.iter().enumerate() {
            self.store(top + 4 * i as u32, MemWidth::Word, a)?;
        }
        for (i, &a) in args.iter().take(4).enumerate() {
            self.regs[i] = a;
        }
        self.set_reg(Reg::RA, i64::from(RA_BASE + DONE));
        self.calls += 1;
        Ok(())
    }

    /// The outcome so far; takes the output.
    pub fn finish(&mut self) -> RunOutcome {
        RunOutcome {
            value: self.regs[0],
            output: std::mem::take(&mut self.output),
            instructions: self.instructions,
            calls: self.calls,
        }
    }

    /// Instructions executed so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    fn reg(&self, r: Reg) -> i64 {
        self.regs[usize::from(r.number())]
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        self.regs[usize::from(r.number())] = i64::from(v as i32);
    }

    /// Executes `inst`. `callee` is its resolved target if it is a
    /// `call`, `frame` the executing function's, and `return_to` the pc
    /// a call returns to.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] on faults: division by zero, a bad memory
    /// access, a call or jump to an address that is not code, or an
    /// unresolved callee.
    // `#[inline]` here and on the helpers it calls lets the in-place
    // interpreter, in another crate, inline them; otherwise each memory
    // access there would be a cross-crate call.
    #[inline]
    pub fn step(
        &mut self,
        inst: &Inst,
        callee: Callee,
        frame: Frame<'_>,
        return_to: usize,
    ) -> Result<Flow, VmError> {
        self.instructions += 1;
        match inst {
            Inst::Li { rd, imm } => self.set_reg(*rd, i64::from(*imm)),
            Inst::Mov { rd, rs } => self.set_reg(*rd, self.reg(*rs)),
            Inst::Alu { op, rd, rs, rt } => {
                let v = alu(*op, self.reg(*rs), self.reg(*rt))?;
                self.set_reg(*rd, v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = alu(*op, self.reg(*rs), i64::from(*imm))?;
                self.set_reg(*rd, v);
            }
            Inst::Neg { rd, rs } => self.set_reg(*rd, -self.reg(*rs)),
            Inst::Not { rd, rs } => self.set_reg(*rd, !self.reg(*rs)),
            Inst::Sext { width, rd, rs } => {
                let v = self.reg(*rs);
                let v = match width {
                    MemWidth::Byte => i64::from(v as i8),
                    MemWidth::Short => i64::from(v as i16),
                    MemWidth::Word => i64::from(v as i32),
                };
                self.set_reg(*rd, v);
            }
            Inst::Load {
                width,
                rd,
                off,
                base,
            } => {
                let v = self.load(self.addr(*base, *off), *width)?;
                self.set_reg(*rd, v);
            }
            Inst::Store {
                width,
                rs,
                off,
                base,
            } => self.store(self.addr(*base, *off), *width, self.reg(*rs))?,
            Inst::Spill { rs, off } => {
                self.store(self.addr(Reg::SP, *off), MemWidth::Word, self.reg(*rs))?;
            }
            Inst::Reload { rd, off } => {
                let v = self.load(self.addr(Reg::SP, *off), MemWidth::Word)?;
                self.set_reg(*rd, v);
            }
            Inst::Enter { amount } => self.set_reg(Reg::SP, self.reg(Reg::SP) - i64::from(*amount)),
            Inst::Exit { amount } => self.set_reg(Reg::SP, self.reg(Reg::SP) + i64::from(*amount)),
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                if cond.holds(self.reg(*rs), self.reg(*rt)) {
                    return Ok(Flow::Branch(*target));
                }
            }
            Inst::BranchImm {
                cond,
                rs,
                imm,
                target,
            } => {
                if cond.holds(self.reg(*rs), i64::from(*imm)) {
                    return Ok(Flow::Branch(*target));
                }
            }
            Inst::Jump { target } => return Ok(Flow::Branch(*target)),
            Inst::Call { target } => {
                self.calls += 1;
                return match callee {
                    Callee::Function(i) => self.enter(i as usize, return_to),
                    Callee::Host(h) => self.host_call(h as usize),
                    Callee::None => {
                        let FuncRef::Symbol(name) = target;
                        Err(VmError::Exec(format!("undefined call target {name}")))
                    }
                };
            }
            Inst::CallR { rs } => {
                self.calls += 1;
                let addr = self.reg(*rs) as u32;
                return if (FUNC_BASE..HOST_BASE).contains(&addr) {
                    self.enter((addr - FUNC_BASE) as usize, return_to)
                } else if (HOST_BASE..RA_BASE).contains(&addr) {
                    self.host_call((addr - HOST_BASE) as usize)
                } else {
                    Err(VmError::Exec(format!(
                        "call to non-function address {addr:#x}"
                    )))
                };
            }
            Inst::Rjr { rs } => return jump(self.reg(*rs) as u32),
            Inst::Epi => {
                let sp = self.reg(Reg::SP) as u32;
                for (i, &r) in frame.saved_regs.iter().enumerate() {
                    let slot = frame.size as i32 - 8 - 4 * i as i32;
                    let v = self.load(sp.wrapping_add(slot as u32), MemWidth::Word)?;
                    self.set_reg(r, v);
                }
                let ra_slot = frame.size as i32 - 4;
                let ra = self.load(sp.wrapping_add(ra_slot as u32), MemWidth::Word)?;
                self.set_reg(Reg::RA, ra);
                self.set_reg(Reg::SP, i64::from(sp) + i64::from(frame.size));
                return jump(ra as u32);
            }
            Inst::Bcopy { rd, rs, rn } => {
                let dst = self.reg(*rd) as u32;
                let src = self.reg(*rs) as u32;
                let n = self.reg(*rn) as u32;
                for i in 0..n {
                    let b = self.load(src.wrapping_add(i), MemWidth::Byte)?;
                    self.store(dst.wrapping_add(i), MemWidth::Byte, b)?;
                }
            }
            Inst::Bzero { rd, rn } => {
                let dst = self.reg(*rd) as u32;
                let n = self.reg(*rn) as u32;
                for i in 0..n {
                    self.store(dst.wrapping_add(i), MemWidth::Byte, 0)?;
                }
            }
            Inst::Nop => {}
        }
        Ok(Flow::Fall)
    }

    fn addr(&self, base: Reg, off: i32) -> u32 {
        (self.reg(base) as u32).wrapping_add(off as u32)
    }

    #[inline]
    fn enter(&mut self, func: usize, return_to: usize) -> Result<Flow, VmError> {
        if func >= self.functions {
            return Err(VmError::Exec(format!("bad function index {func}")));
        }
        self.set_reg(Reg::RA, i64::from(RA_BASE) + return_to as i64);
        Ok(Flow::Enter(func))
    }

    fn host_call(&mut self, idx: usize) -> Result<Flow, VmError> {
        match HOST_FUNCTIONS.get(idx) {
            Some(&"print_int") => {
                let v = self.regs[0] as i32;
                self.output.extend_from_slice(v.to_string().as_bytes());
                self.output.push(b'\n');
            }
            Some(&"print_char") => self.output.push(self.regs[0] as u8),
            _ => {
                return Err(VmError::Exec(format!("bad host function index {idx}")));
            }
        }
        self.regs[0] = 0;
        Ok(Flow::Fall)
    }

    #[inline]
    fn load(&self, addr: u32, width: MemWidth) -> Result<i64, VmError> {
        let a = addr as usize;
        let size = width.bytes() as usize;
        if a == 0 || a + size > self.mem.len() {
            return Err(VmError::Exec(format!(
                "bad load of {size} bytes at {addr:#x}"
            )));
        }
        Ok(match width {
            MemWidth::Byte => i64::from(self.mem[a] as i8),
            MemWidth::Short => i64::from(i16::from_le_bytes([self.mem[a], self.mem[a + 1]])),
            MemWidth::Word => i64::from(i32::from_le_bytes([
                self.mem[a],
                self.mem[a + 1],
                self.mem[a + 2],
                self.mem[a + 3],
            ])),
        })
    }

    #[inline]
    fn store(&mut self, addr: u32, width: MemWidth, value: i64) -> Result<(), VmError> {
        let a = addr as usize;
        let size = width.bytes() as usize;
        if a == 0 || a + size > self.mem.len() {
            return Err(VmError::Exec(format!(
                "bad store of {size} bytes at {addr:#x}"
            )));
        }
        match width {
            MemWidth::Byte => self.mem[a] = value as u8,
            MemWidth::Short => self.mem[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            MemWidth::Word => self.mem[a..a + 4].copy_from_slice(&(value as u32).to_le_bytes()),
        }
        Ok(())
    }
}

/// Decodes a jump through a register: a return address or [`DONE`].
#[inline]
fn jump(addr: u32) -> Result<Flow, VmError> {
    if addr == RA_BASE + DONE {
        Ok(Flow::Done)
    } else if addr >= RA_BASE {
        Ok(Flow::Return((addr - RA_BASE) as usize))
    } else {
        Err(VmError::Exec(format!("jump to non-code address {addr:#x}")))
    }
}

#[inline]
fn alu(op: AluOp, a: i64, b: i64) -> Result<i64, VmError> {
    let (sa, sb) = (a as i32, b as i32);
    let (ua, ub) = (a as u32, b as u32);
    let v: i32 = match op {
        AluOp::Add => sa.wrapping_add(sb),
        AluOp::Sub => sa.wrapping_sub(sb),
        AluOp::Mul => sa.wrapping_mul(sb),
        AluOp::Div => {
            if sb == 0 {
                return Err(VmError::Exec("division by zero".into()));
            }
            sa.wrapping_div(sb)
        }
        AluOp::DivU => {
            if ub == 0 {
                return Err(VmError::Exec("division by zero".into()));
            }
            (ua / ub) as i32
        }
        AluOp::Rem => {
            if sb == 0 {
                return Err(VmError::Exec("remainder by zero".into()));
            }
            sa.wrapping_rem(sb)
        }
        AluOp::RemU => {
            if ub == 0 {
                return Err(VmError::Exec("remainder by zero".into()));
            }
            (ua % ub) as i32
        }
        AluOp::And => sa & sb,
        AluOp::Or => sa | sb,
        AluOp::Xor => sa ^ sb,
        AluOp::Sll => ((ua) << (ub & 31)) as i32,
        AluOp::Srl => (ua >> (ub & 31)) as i32,
        AluOp::Sra => sa >> (ub & 31),
    };
    Ok(i64::from(v))
}

/// The VM driver: runs [`Core`] over linked flat code, charging one unit
/// of fuel per instruction.
#[derive(Debug)]
pub struct Machine {
    flat: FlatProgram,
    core: Core,
    fuel: u64,
    /// Execution count per flat-code index (for working-set analysis).
    pub exec_counts: Vec<u64>,
}

impl Machine {
    /// Links `program` and prepares memory and globals.
    ///
    /// # Errors
    ///
    /// Link errors, or [`VmError::Exec`] if globals do not fit.
    pub fn new(program: &VmProgram, mem_size: u32, fuel: u64) -> Result<Self, VmError> {
        let flat = FlatProgram::link(program)?;
        Self::from_flat(flat, mem_size, fuel)
    }

    /// Builds a machine from an already-linked program.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] if globals do not fit in `mem_size`.
    pub fn from_flat(flat: FlatProgram, mem_size: u32, fuel: u64) -> Result<Self, VmError> {
        let core = Core::new(&flat.globals, mem_size, flat.functions.len())?;
        Ok(Self {
            exec_counts: vec![0u64; flat.code.len()],
            flat,
            core,
            fuel,
        })
    }

    /// Runs `entry` with the given arguments.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] on faults, missing functions, or fuel exhaustion.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Result<RunOutcome, VmError> {
        let Machine {
            flat,
            core,
            fuel,
            exec_counts,
        } = self;
        let entry_idx = flat
            .functions
            .iter()
            .position(|f| f.name == entry)
            .ok_or_else(|| VmError::Exec(format!("undefined entry function {entry}")))?;
        core.start(args)?;
        let mut pc = flat.ranges[entry_idx].0;
        // The code range of the function containing pc, and its frame;
        // empty until the first step resolves them.
        let mut func = 0..0;
        let mut frame = Frame {
            size: 0,
            saved_regs: &[],
        };
        loop {
            if *fuel == 0 {
                return Err(VmError::Exec("fuel exhausted".into()));
            }
            *fuel -= 1;
            if !func.contains(&pc) {
                let f = flat
                    .function_at(pc)
                    .ok_or_else(|| VmError::Exec(format!("pc {pc} out of code range")))?;
                func = flat.ranges[f].0..flat.ranges[f].1;
                let f = &flat.functions[f];
                frame = Frame {
                    size: f.frame_size,
                    saved_regs: &f.saved_regs,
                };
            }
            exec_counts[pc] += 1;
            pc = match core.step(&flat.code[pc], flat.callees[pc], frame, pc + 1)? {
                Flow::Fall => pc + 1,
                Flow::Branch(target) => target as usize,
                Flow::Enter(f) => flat.ranges[f].0,
                Flow::Return(to) => to,
                Flow::Done => return Ok(core.finish()),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_program;

    fn run(text: &str, entry: &str, args: &[i64]) -> RunOutcome {
        let p = parse_program(text).unwrap();
        Machine::new(&p, 1 << 20, 1 << 24)
            .unwrap()
            .run(entry, args)
            .unwrap()
    }

    #[test]
    fn li_and_return() {
        let out = run(
            ".func main params=0 frame=0\n    li n0,42\n    rjr ra\n.end\n",
            "main",
            &[],
        );
        assert_eq!(out.value, 42);
        assert_eq!(out.instructions, 2);
    }

    #[test]
    fn loop_sums() {
        let text = "\
.func main params=0 frame=0
    li n0,0
    li n1,1
$L1:
    bgt.i n1,10,$L2
    add.i n0,n0,n1
    add.i n1,n1,1
    j $L1
$L2:
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 55);
    }

    #[test]
    fn calls_and_frames() {
        let text = "\
.func double params=1 frame=0
    add.i n0,n0,n0
    rjr ra
.end
.func main params=0 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    li n0,21
    call double
    reload.i ra,4(sp)
    exit sp,sp,8
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 42);
    }

    #[test]
    fn epi_restores_and_returns() {
        let text = "\
.func leaf params=0 frame=0
    li n0,7
    rjr ra
.end
.func main params=0 frame=24 saves=n4
    enter sp,sp,24
    spill.i n4,16(sp)
    spill.i ra,20(sp)
    li n4,30
    call leaf
    add.i n0,n0,n4
    epi
.end
";
        let out = run(text, "main", &[]);
        assert_eq!(out.value, 37);
    }

    #[test]
    fn the_papers_salt_function_runs() {
        // The exact §4 OmniVM listing for salt(j, i), plus a pepper stub.
        let text = "\
.func pepper params=2 frame=0
    add.i n0,n0,n1
    rjr ra
.end
.func salt params=2 frame=24 saves=n4
    enter sp,sp,24
    spill.i n4,16(sp)
    spill.i ra,20(sp)
    mov.i n4,n0
    mov.i n2,n1
    ble.i n4,0,$L56
    mov.i n1,n4
    mov.i n0,n2
    call pepper
$L56:
    add.i n0,n4,-1
    reload.i n4,16(sp)
    reload.i ra,20(sp)
    exit sp,sp,24
    rjr ra
.end
";
        // salt(j=3, i=9) = j - 1 = 2; salt(0, 9) = -1.
        assert_eq!(run(text, "salt", &[3, 9]).value, 2);
        assert_eq!(run(text, "salt", &[0, 9]).value, -1);
    }

    #[test]
    fn memory_widths_sign_extend() {
        let text = "\
.global g 4 200 0 0 0
.func main params=0 frame=0
    li n1,16
    ld.ib n0,0(n1)
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, -56);
    }

    #[test]
    fn stores_and_loads() {
        let text = "\
.func main params=0 frame=16
    enter sp,sp,16
    li n1,-300
    st.is n1,2(sp)
    ld.is n0,2(sp)
    exit sp,sp,16
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, -300);
    }

    #[test]
    fn host_output() {
        let text = "\
.func main params=0 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    li n0,123
    call print_int
    li n0,65
    call print_char
    reload.i ra,4(sp)
    exit sp,sp,8
    li n0,0
    rjr ra
.end
";
        let out = run(text, "main", &[]);
        assert_eq!(out.output, b"123\nA");
    }

    #[test]
    fn block_macros() {
        let text = "\
.global src 4 9 8 7 6
.global dst 4
.func main params=0 frame=0
    li n0,24
    li n1,16
    li n2,4
    bcopy n0,n1,n2
    ld.ib n0,0(n0)
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 9);
    }

    #[test]
    fn unsigned_branches() {
        let text = "\
.func main params=0 frame=0
    li n1,-1
    li n0,0
    bgtu.i n1,100,$L1
    rjr ra
$L1:
    li n0,1
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 1);
    }

    #[test]
    fn faults_detected() {
        let div0 = ".func main params=0 frame=0\n    li n0,1\n    li n1,0\n    div.i n0,n0,n1\n    rjr ra\n.end\n";
        let p = parse_program(div0).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());

        let null =
            ".func main params=0 frame=0\n    li n1,0\n    ld.iw n0,0(n1)\n    rjr ra\n.end\n";
        let p = parse_program(null).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());

        let spin = ".func main params=0 frame=0\n$L1:\n    j $L1\n.end\n";
        let p = parse_program(spin).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());
    }

    #[test]
    fn entry_args_arrive_in_registers_and_stack() {
        let text = "\
.func main params=6 frame=0
    ld.iw n4,16(sp)
    ld.iw n5,20(sp)
    add.i n0,n0,n1
    add.i n0,n0,n2
    add.i n0,n0,n3
    add.i n0,n0,n4
    add.i n0,n0,n5
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[1, 2, 3, 4, 5, 6]).value, 21);
    }

    #[test]
    fn exec_counts_recorded() {
        let p =
            parse_program(".func main params=0 frame=0\n    li n0,1\n    rjr ra\n.end\n").unwrap();
        let m = Machine::new(&p, 1 << 16, 1000).unwrap();
        let flat_len = m.exec_counts.len();
        assert_eq!(flat_len, 2);
    }
}
