//! IR → VM code generation.
//!
//! The paper's BRISC inputs were "highly optimized using a commercial
//! compiler back end and so contain more information, such as register
//! allocation decisions, than lcc IR". This code generator supplies that
//! information: scalar locals and parameters whose address behaves (only
//! ever loaded or stored directly) are promoted to callee-saved
//! registers, which produces exactly the prologue/epilogue shape of the
//! paper's worked example — `enter`, `spill.i n4,…`, `spill.i ra,…`,
//! `mov.i n4,n0`, …, `reload.i`, `exit`, `rjr ra`.
//!
//! # Calling convention
//!
//! - Arguments 0–3 travel in `n0`–`n3`; *all* arguments are also staged
//!   by the caller at `sp + 4*i` in its outgoing-argument area, which is
//!   where callees find stack arguments (`callee_sp + frame + 4*i`).
//! - The result returns in `n0`.
//! - `ra` is spilled at `frame - 4`; callee-saved registers at
//!   `frame - 8 - 4*i`, the slots `epi` restores from.
//! - `n4`–`n11` are callee-saved; `n0`–`n3`, `n12`, `n13` are scratch.
//!
//! The generator honors [`IsaConfig`]: with `immediates` off, every
//! ALU/branch immediate goes through `li`; with `reg_displacement` off,
//! every memory access computes its address into a register and uses
//! offset-0 loads and stores (the §5 de-tuning experiment).

use crate::isa::{AluOp, Cond, FuncRef, Inst, IsaConfig, MemWidth};
use crate::program::{compact, VmFunction, VmProgram};
use crate::reg::Reg;
use crate::VmError;
use codecomp_ir::op::{IrType, Literal, Opcode};
use codecomp_ir::tree::{Function, Module, Tree};
use std::collections::HashMap;

/// Compiles an IR module into a VM program under the given ISA variant.
///
/// # Errors
///
/// [`VmError::Codegen`] on IR the generator cannot handle (expression
/// deeper than the register file, calls in unsupported positions,
/// globals that overflow the 32-bit address space, …).
pub fn compile_module(module: &Module, isa: IsaConfig) -> Result<VmProgram, VmError> {
    let mut program = VmProgram {
        globals: module.globals.clone(),
        functions: Vec::new(),
        isa,
    };
    // The layout the machines load globals with; here it fails only when
    // the globals overflow the 32-bit address space.
    let addrs =
        codecomp_ir::eval::layout_globals(&program.globals, 1 << 32).map_err(VmError::Codegen)?;
    let global_addrs: HashMap<String, u32> = program
        .globals
        .iter()
        .map(|g| g.name.clone())
        .zip(addrs)
        .collect();
    let func_index: HashMap<String, usize> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    for f in &module.functions {
        let cg = FuncCodegen::new(f, isa, &global_addrs, &func_index);
        program.functions.push(cg.generate()?);
    }
    program.validate()?;
    if codecomp_core::telemetry::enabled() {
        use codecomp_core::telemetry as t;
        t::counter_add("vm.codegen.instrs", program.inst_count() as u64);
        t::counter_add("vm.codegen.functions", program.functions.len() as u64);
    }
    Ok(program)
}

/// Where a source-level variable lives.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// Promoted into a callee-saved register.
    Reg(Reg),
    /// In the frame at this VM offset from `sp`.
    Frame(i32),
    /// An incoming stack argument at `frame + offset`.
    StackArg(i32),
}

struct FuncCodegen<'a> {
    f: &'a Function,
    isa: IsaConfig,
    global_addrs: &'a HashMap<String, u32>,
    func_index: &'a HashMap<String, usize>,
    /// IR offset → home.
    homes: HashMap<i32, Home>,
    saved_regs: Vec<Reg>,
    frame_size: u32,
    local_base: i32,
    out: Vec<Inst>,
    /// IR label → index of the instruction it precedes in `out`.
    labels: HashMap<u32, u32>,
    /// Indices in `out` of the jumps a `return` makes to the epilogue.
    returns: Vec<usize>,
    pool: Vec<Reg>,
    pending_args: usize,
}

impl<'a> FuncCodegen<'a> {
    fn new(
        f: &'a Function,
        isa: IsaConfig,
        global_addrs: &'a HashMap<String, u32>,
        func_index: &'a HashMap<String, usize>,
    ) -> Self {
        Self {
            f,
            isa,
            global_addrs,
            func_index,
            homes: HashMap::new(),
            saved_regs: Vec::new(),
            frame_size: 0,
            local_base: 0,
            out: Vec::new(),
            labels: HashMap::new(),
            returns: Vec::new(),
            pool: Vec::new(),
            pending_args: 0,
        }
    }

    fn generate(mut self) -> Result<VmFunction, VmError> {
        self.analyze();
        self.prologue()?;
        for stmt in &self.f.body {
            self.stmt(stmt)?;
        }
        let epilogue = self.out.len() as u32;
        self.epilogue()?;
        self.resolve_targets(epilogue)?;
        self.peephole(epilogue);
        let mut vf = VmFunction::new(&self.f.name, self.f.param_count, self.frame_size);
        vf.saved_regs = self.saved_regs;
        vf.code = self.out;
        vf.validate()?;
        Ok(vf)
    }

    /// Turns each IR label a branch names into the index of the
    /// instruction the label precedes, and each `return`'s jump into a
    /// jump to the epilogue.
    fn resolve_targets(&mut self, epilogue: u32) -> Result<(), VmError> {
        let mut returns = self.returns.iter().copied().peekable();
        for (i, inst) in self.out.iter_mut().enumerate() {
            let Some(target) = inst.target_mut() else {
                continue;
            };
            *target = if returns.next_if_eq(&i).is_some() {
                epilogue
            } else {
                *self.labels.get(target).ok_or_else(|| {
                    VmError::Codegen(format!("unresolved label {target} in {}", self.f.name))
                })?
            };
        }
        Ok(())
    }

    /// Removes jumps to the next instruction — the common `j $Lend`
    /// right before `$Lend:` — plus two move cleanups: `mov x,x` and the
    /// redundant back-copy in `mov a,b; mov b,a` (legal when no label
    /// lies between the two, since the registers already hold equal
    /// values).
    fn peephole(&mut self, epilogue: u32) {
        let code = &self.out;
        let mut labelled = vec![false; code.len()];
        for &at in self.labels.values().chain([&epilogue]) {
            if let Some(l) = labelled.get_mut(at as usize) {
                *l = true;
            }
        }
        let mut keep = vec![true; code.len()];
        let mut last_kept: Option<&Inst> = None;
        let mut label_since_kept = false;
        for (i, inst) in code.iter().enumerate() {
            label_since_kept |= labelled[i];
            keep[i] = match inst {
                Inst::Jump { target } => *target as usize != i + 1,
                Inst::Mov { rd, rs } => {
                    let back_copy = !label_since_kept
                        && matches!(last_kept, Some(Inst::Mov { rd: prev_rd, rs: prev_rs })
                            if prev_rd == rs && prev_rs == rd);
                    rd != rs && !back_copy
                }
                _ => true,
            };
            if keep[i] {
                last_kept = Some(inst);
                label_since_kept = false;
            }
        }
        compact(&mut self.out, &keep);
    }

    // ---- analysis ---------------------------------------------------------

    /// Decides variable homes and the frame layout.
    fn analyze(&mut self) {
        #[derive(Default)]
        struct Stat {
            uses: u32,
            dirty: bool,
        }
        let mut stats: HashMap<i32, Stat> = HashMap::new();
        let mut max_args = 0usize;
        let mut run = 0usize;
        for stmt in &self.f.body {
            if stmt.op().opcode == Opcode::Arg {
                run += 1;
                max_args = max_args.max(run);
            } else {
                run = 0;
            }
            mark_tree(stmt, &mut |off, clean, is_word| {
                let s = stats.entry(off).or_default();
                s.uses += 1;
                if !clean || !is_word {
                    s.dirty = true;
                }
            });
        }

        // Promote the most-used clean offsets to callee-saved registers.
        let mut candidates: Vec<(i32, u32)> = stats
            .iter()
            .filter(|(_, s)| !s.dirty && s.uses >= 2)
            .map(|(&off, s)| (off, s.uses))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, &(off, _)) in candidates.iter().take(Reg::CALLEE_SAVED.len()).enumerate() {
            let r = Reg::CALLEE_SAVED[i];
            self.homes.insert(off, Home::Reg(r));
            self.saved_regs.push(r);
        }

        // Frame layout: [outgoing staging][locals][saved regs][ra].
        let outgoing = 4 * max_args as u32;
        self.local_base = outgoing as i32;
        let locals_end = outgoing + self.f.frame_size;
        let save_area = 4 * self.saved_regs.len() as u32 + 4; // saved + ra
        self.frame_size = (locals_end + save_area).div_ceil(8) * 8;

        // Non-promoted offsets live in the frame; incoming stack args
        // (param index >= 4) live above the frame.
        let offsets: Vec<i32> = stats.keys().copied().collect();
        for off in offsets {
            if self.homes.contains_key(&off) {
                continue;
            }
            let param_index = off / 4;
            if off >= 0
                && (param_index as usize) < self.f.param_count
                && (param_index as usize) >= 4
            {
                self.homes.insert(off, Home::StackArg(off));
            } else {
                self.homes.insert(off, Home::Frame(self.local_base + off));
            }
        }
    }

    // ---- prologue / epilogue ----------------------------------------------

    fn prologue(&mut self) -> Result<(), VmError> {
        self.pool = Reg::SCRATCH.to_vec();
        if self.frame_size > 0 {
            self.out.push(Inst::Enter {
                amount: self.frame_size as i32,
            });
        }
        let frame = self.frame_size as i32;
        let saved = self.saved_regs.clone();
        for (i, &r) in saved.iter().enumerate() {
            self.emit_save(r, frame - 8 - 4 * i as i32)?;
        }
        self.emit_save(Reg::RA, frame - 4)?;
        // Move incoming register arguments to their homes. Scratch n0-n3
        // hold live arguments here, so frame stores must not allocate
        // them: reserve them first.
        let reserved: Vec<Reg> = (0..self.f.param_count.min(4))
            .map(|i| Reg::ARGS[i])
            .collect();
        self.pool.retain(|r| !reserved.contains(r));
        for i in 0..self.f.param_count.min(4) {
            let off = 4 * i as i32;
            let src = Reg::ARGS[i];
            match self.homes.get(&off).copied() {
                Some(Home::Reg(r)) => self.out.push(Inst::Mov { rd: r, rs: src }),
                Some(Home::Frame(slot)) => self.emit_frame_store(MemWidth::Word, src, slot)?,
                Some(Home::StackArg(_)) | None => {}
            }
        }
        for r in reserved {
            self.pool.push(r);
        }
        // Stack arguments that were promoted need an initial load.
        for i in 4..self.f.param_count {
            let off = 4 * i as i32;
            if let Some(Home::Reg(r)) = self.homes.get(&off).copied() {
                self.emit_reg_frame_load(r, self.frame_size as i32 + off)?;
            }
        }
        Ok(())
    }

    /// `spill.i r, slot(sp)` or its de-tuned expansion.
    fn emit_save(&mut self, rs: Reg, slot: i32) -> Result<(), VmError> {
        if self.isa.reg_displacement {
            self.out.push(Inst::Spill { rs, off: slot });
            return Ok(());
        }
        let addr = self.take_reg()?;
        self.emit_add_imm(addr, Reg::SP, slot)?;
        self.out.push(Inst::Store {
            width: MemWidth::Word,
            rs,
            off: 0,
            base: addr,
        });
        self.free_reg(addr);
        Ok(())
    }

    /// `reload.i r, slot(sp)` or its de-tuned expansion. The destination
    /// register doubles as the address scratch, so this never allocates.
    fn emit_reg_frame_load(&mut self, rd: Reg, slot: i32) -> Result<(), VmError> {
        if self.isa.reg_displacement {
            self.out.push(Inst::Reload { rd, off: slot });
            return Ok(());
        }
        self.emit_add_imm(rd, Reg::SP, slot)?;
        self.out.push(Inst::Load {
            width: MemWidth::Word,
            rd,
            off: 0,
            base: rd,
        });
        Ok(())
    }

    fn epilogue(&mut self) -> Result<(), VmError> {
        let frame = self.frame_size as i32;
        let saved = self.saved_regs.clone();
        for (i, &r) in saved.iter().enumerate() {
            self.emit_reg_frame_load(r, frame - 8 - 4 * i as i32)?;
        }
        self.emit_reg_frame_load(Reg::RA, frame - 4)?;
        if self.frame_size > 0 {
            self.out.push(Inst::Exit {
                amount: self.frame_size as i32,
            });
        }
        self.out.push(Inst::Rjr { rs: Reg::RA });
        Ok(())
    }

    // ---- register pool ------------------------------------------------------

    fn take_reg(&mut self) -> Result<Reg, VmError> {
        self.pool
            .pop()
            .ok_or_else(|| VmError::Codegen(format!("expression too deep in {}", self.f.name)))
    }

    fn free_reg(&mut self, r: Reg) {
        debug_assert!(!self.pool.contains(&r), "double free of {r}");
        self.pool.push(r);
    }

    // ---- frame access helpers (honoring the ISA config) --------------------

    fn emit_frame_store(&mut self, width: MemWidth, rs: Reg, slot: i32) -> Result<(), VmError> {
        if self.isa.reg_displacement {
            self.out.push(Inst::Store {
                width,
                rs,
                off: slot,
                base: Reg::SP,
            });
            return Ok(());
        }
        let addr = self.take_reg()?;
        self.emit_add_imm(addr, Reg::SP, slot)?;
        self.out.push(Inst::Store {
            width,
            rs,
            off: 0,
            base: addr,
        });
        self.free_reg(addr);
        Ok(())
    }

    /// `rd = rs + imm` honoring the immediates knob. `rd` must differ
    /// from `rs` or `imm` must be zero when immediates are disabled and
    /// no scratch register is free — both call sites guarantee `rd != rs`.
    fn emit_add_imm(&mut self, rd: Reg, rs: Reg, imm: i32) -> Result<(), VmError> {
        if imm == 0 {
            if rd != rs {
                self.out.push(Inst::Mov { rd, rs });
            }
            return Ok(());
        }
        if self.isa.immediates {
            self.out.push(Inst::AluImm {
                op: AluOp::Add,
                rd,
                rs,
                imm,
            });
        } else if rd != rs {
            self.out.push(Inst::Li { rd, imm });
            self.out.push(Inst::Alu {
                op: AluOp::Add,
                rd,
                rs: rd,
                rt: rs,
            });
        } else {
            let t = self.take_reg()?;
            self.out.push(Inst::Li { rd: t, imm });
            self.out.push(Inst::Alu {
                op: AluOp::Add,
                rd,
                rs,
                rt: t,
            });
            self.free_reg(t);
        }
        Ok(())
    }

    // ---- statements ----------------------------------------------------------

    fn stmt(&mut self, tree: &Tree) -> Result<(), VmError> {
        let op = tree.op();
        match op.opcode {
            Opcode::LabelDef => {
                let Some(Literal::Label(l)) = tree.literal() else {
                    return Err(VmError::Codegen("label without number".into()));
                };
                if self.labels.insert(*l, self.out.len() as u32).is_some() {
                    return Err(VmError::Codegen(format!(
                        "duplicate label {l} in {}",
                        self.f.name
                    )));
                }
                Ok(())
            }
            Opcode::Jump => {
                let Some(Literal::Label(l)) = tree.literal() else {
                    return Err(VmError::Codegen("jump without label".into()));
                };
                self.out.push(Inst::Jump { target: *l });
                Ok(())
            }
            _ if op.opcode.is_branch() => {
                let Some(Literal::Label(l)) = tree.literal() else {
                    return Err(VmError::Codegen("branch without label".into()));
                };
                let target = *l;
                let unsigned = matches!(op.ty, IrType::U | IrType::P);
                let cond = branch_cond(op.opcode, unsigned);
                let a = self.eval(&tree.kids()[0])?;
                let rhs = &tree.kids()[1];
                if self.isa.immediates {
                    if let Some(imm) = const_value(rhs) {
                        self.out.push(Inst::BranchImm {
                            cond,
                            rs: a,
                            imm,
                            target,
                        });
                        self.free_reg(a);
                        return Ok(());
                    }
                }
                let b = self.eval(rhs)?;
                self.out.push(Inst::Branch {
                    cond,
                    rs: a,
                    rt: b,
                    target,
                });
                self.free_reg(b);
                self.free_reg(a);
                Ok(())
            }
            Opcode::Ret => {
                if let Some(value) = tree.kids().first() {
                    let r = self.eval(value)?;
                    if r != Reg::ARGS[0] {
                        self.out.push(Inst::Mov {
                            rd: Reg::ARGS[0],
                            rs: r,
                        });
                    }
                    self.free_reg(r);
                }
                // Aimed at the epilogue by `resolve_targets`.
                self.returns.push(self.out.len());
                self.out.push(Inst::Jump { target: 0 });
                Ok(())
            }
            Opcode::Arg => {
                let r = self.eval(&tree.kids()[0])?;
                let slot = 4 * self.pending_args as i32;
                self.emit_frame_store(MemWidth::Word, r, slot)?;
                self.free_reg(r);
                self.pending_args += 1;
                Ok(())
            }
            _ => {
                let r = self.eval(tree)?;
                self.free_reg(r);
                Ok(())
            }
        }
    }

    // ---- expressions -----------------------------------------------------------

    /// Evaluates a tree into a scratch register the caller must free.
    fn eval(&mut self, tree: &Tree) -> Result<Reg, VmError> {
        let op = tree.op();
        match op.opcode {
            Opcode::Cnst => {
                let Some(Literal::Int(v)) = tree.literal() else {
                    return Err(VmError::Codegen("CNST without int".into()));
                };
                let r = self.take_reg()?;
                self.out.push(Inst::Li {
                    rd: r,
                    imm: *v as i32,
                });
                Ok(r)
            }
            Opcode::AddrL | Opcode::AddrF => {
                let off = self.ir_offset(tree)?;
                match self.home(off) {
                    Home::Reg(_) => Err(VmError::Codegen(format!(
                        "address taken of promoted offset {off} in {}",
                        self.f.name
                    ))),
                    Home::Frame(slot) => {
                        let r = self.take_reg()?;
                        self.emit_add_imm(r, Reg::SP, slot)?;
                        Ok(r)
                    }
                    Home::StackArg(off) => {
                        let r = self.take_reg()?;
                        self.emit_add_imm(r, Reg::SP, self.frame_size as i32 + off)?;
                        Ok(r)
                    }
                }
            }
            Opcode::AddrG => {
                let Some(Literal::Symbol(name)) = tree.literal() else {
                    return Err(VmError::Codegen("ADDRG without symbol".into()));
                };
                let addr = self.symbol_addr(name)?;
                let r = self.take_reg()?;
                self.out.push(Inst::Li {
                    rd: r,
                    imm: addr as i32,
                });
                Ok(r)
            }
            Opcode::Indir => {
                let width = mem_width(op.ty)?;
                if let Some(off) = direct_offset(&tree.kids()[0]) {
                    return match self.home(off) {
                        Home::Reg(pr) if width == MemWidth::Word => {
                            let r = self.take_reg()?;
                            self.out.push(Inst::Mov { rd: r, rs: pr });
                            Ok(r)
                        }
                        Home::Reg(_) => Err(VmError::Codegen(
                            "narrow access to promoted variable".into(),
                        )),
                        Home::Frame(slot) => self.load_from_sp(width, slot),
                        Home::StackArg(off) => {
                            self.load_from_sp(width, self.frame_size as i32 + off)
                        }
                    };
                }
                let a = self.eval(&tree.kids()[0])?;
                self.out.push(Inst::Load {
                    width,
                    rd: a,
                    off: 0,
                    base: a,
                });
                Ok(a)
            }
            Opcode::Asgn => {
                let width = mem_width(op.ty)?;
                let value_tree = &tree.kids()[1];
                if let Some(off) = direct_offset(&tree.kids()[0]) {
                    return match self.home(off) {
                        Home::Reg(pr) if width == MemWidth::Word => {
                            let v = self.eval(value_tree)?;
                            self.out.push(Inst::Mov { rd: pr, rs: v });
                            Ok(v)
                        }
                        Home::Reg(_) => {
                            Err(VmError::Codegen("narrow store to promoted variable".into()))
                        }
                        Home::Frame(slot) => {
                            let v = self.eval(value_tree)?;
                            self.emit_frame_store(width, v, slot)?;
                            self.narrow(v, width);
                            Ok(v)
                        }
                        Home::StackArg(off) => {
                            let slot = self.frame_size as i32 + off;
                            let v = self.eval(value_tree)?;
                            self.emit_frame_store(width, v, slot)?;
                            self.narrow(v, width);
                            Ok(v)
                        }
                    };
                }
                let a = self.eval(&tree.kids()[0])?;
                let v = self.eval(value_tree)?;
                self.out.push(Inst::Store {
                    width,
                    rs: v,
                    off: 0,
                    base: a,
                });
                self.free_reg(a);
                self.narrow(v, width);
                Ok(v)
            }
            Opcode::Cvt => {
                let r = self.eval(&tree.kids()[0])?;
                match op.ty {
                    IrType::C => self.out.push(Inst::Sext {
                        width: MemWidth::Byte,
                        rd: r,
                        rs: r,
                    }),
                    IrType::S => self.out.push(Inst::Sext {
                        width: MemWidth::Short,
                        rd: r,
                        rs: r,
                    }),
                    _ => {}
                }
                Ok(r)
            }
            Opcode::Neg => {
                let r = self.eval(&tree.kids()[0])?;
                self.out.push(Inst::Neg { rd: r, rs: r });
                Ok(r)
            }
            Opcode::BCom => {
                let r = self.eval(&tree.kids()[0])?;
                self.out.push(Inst::Not { rd: r, rs: r });
                Ok(r)
            }
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
                let unsigned = matches!(op.ty, IrType::U | IrType::P);
                let alu = alu_op(op.opcode, unsigned);
                let a = self.eval(&tree.kids()[0])?;
                let rhs = &tree.kids()[1];
                if self.isa.immediates {
                    if let Some(imm) = const_value(rhs) {
                        self.out.push(Inst::AluImm {
                            op: alu,
                            rd: a,
                            rs: a,
                            imm,
                        });
                        return Ok(a);
                    }
                }
                let b = self.eval(rhs)?;
                self.out.push(Inst::Alu {
                    op: alu,
                    rd: a,
                    rs: a,
                    rt: b,
                });
                self.free_reg(b);
                Ok(a)
            }
            Opcode::Call => {
                if self.pool.len() != Reg::SCRATCH.len() {
                    return Err(VmError::Codegen(format!(
                        "call with live scratch registers in {} (front end must \
                         materialize call results into temporaries)",
                        self.f.name
                    )));
                }
                let nargs = self.pending_args;
                self.pending_args = 0;
                for i in 0..nargs.min(4) {
                    // Argument registers are free here (pool is full); use
                    // plain loads so nothing is allocated.
                    if self.isa.reg_displacement {
                        self.out.push(Inst::Load {
                            width: MemWidth::Word,
                            rd: Reg::ARGS[i],
                            off: 4 * i as i32,
                            base: Reg::SP,
                        });
                    } else {
                        self.emit_reg_frame_load(Reg::ARGS[i], 4 * i as i32)?;
                    }
                }
                let callee = &tree.kids()[0];
                if callee.op().opcode == Opcode::AddrG {
                    let Some(Literal::Symbol(name)) = callee.literal() else {
                        return Err(VmError::Codegen("ADDRG without symbol".into()));
                    };
                    self.out.push(Inst::Call {
                        target: FuncRef::Symbol(name.clone()),
                    });
                } else {
                    // The scratch registers n12/n13 survive until the call
                    // itself, but n0-n3 were just loaded — evaluate the
                    // target before loading arguments would be better, yet
                    // indirect calls through expressions always come from
                    // a plain variable here, which evaluates into n13.
                    let t = self.eval(callee)?;
                    self.out.push(Inst::CallR { rs: t });
                    self.free_reg(t);
                }
                // Result arrives in n0; claim it from the pool.
                let n0 = Reg::ARGS[0];
                let pos = self
                    .pool
                    .iter()
                    .position(|&r| r == n0)
                    .expect("pool was full before the call");
                self.pool.remove(pos);
                Ok(n0)
            }
            Opcode::Arg
            | Opcode::Ret
            | Opcode::Jump
            | Opcode::LabelDef
            | Opcode::Eq
            | Opcode::Ne
            | Opcode::Lt
            | Opcode::Le
            | Opcode::Gt
            | Opcode::Ge => Err(VmError::Codegen(format!(
                "{} is a statement, not an expression",
                op.mnemonic()
            ))),
        }
    }

    fn load_from_sp(&mut self, width: MemWidth, slot: i32) -> Result<Reg, VmError> {
        let r = self.take_reg()?;
        if self.isa.reg_displacement {
            self.out.push(Inst::Load {
                width,
                rd: r,
                off: slot,
                base: Reg::SP,
            });
        } else {
            self.emit_add_imm(r, Reg::SP, slot)?;
            self.out.push(Inst::Load {
                width,
                rd: r,
                off: 0,
                base: r,
            });
        }
        Ok(r)
    }

    /// The C value of an assignment is the stored (truncated) value.
    fn narrow(&mut self, r: Reg, width: MemWidth) {
        if matches!(width, MemWidth::Byte | MemWidth::Short) {
            self.out.push(Inst::Sext {
                width,
                rd: r,
                rs: r,
            });
        }
    }

    fn ir_offset(&self, tree: &Tree) -> Result<i32, VmError> {
        match tree.literal() {
            Some(Literal::Offset(off)) => Ok(*off),
            _ => Err(VmError::Codegen("address operator without offset".into())),
        }
    }

    fn home(&self, off: i32) -> Home {
        self.homes
            .get(&off)
            .copied()
            .unwrap_or(Home::Frame(self.local_base + off))
    }

    fn symbol_addr(&self, name: &str) -> Result<u32, VmError> {
        if let Some(&a) = self.global_addrs.get(name) {
            return Ok(a);
        }
        if let Some(&i) = self.func_index.get(name) {
            return Ok(codecomp_ir::eval::FUNC_BASE + i as u32);
        }
        if let Some(i) = codecomp_ir::eval::HOST_FUNCTIONS
            .iter()
            .position(|&h| h == name)
        {
            return Ok(codecomp_ir::eval::HOST_BASE + i as u32);
        }
        Err(VmError::Codegen(format!("undefined symbol {name}")))
    }
}

/// If this tree is a direct `ADDRL`/`ADDRF`, its IR offset.
fn direct_offset(tree: &Tree) -> Option<i32> {
    if matches!(tree.op().opcode, Opcode::AddrL | Opcode::AddrF) {
        if let Some(Literal::Offset(off)) = tree.literal() {
            return Some(*off);
        }
    }
    None
}

/// Marks every `ADDRL`/`ADDRF` occurrence in a tree.
///
/// `clean` is true when the node is a direct operand of a load or the
/// destination of a store; `is_word` when the access width is four bytes.
fn mark_tree(tree: &Tree, visit: &mut impl FnMut(i32, bool, bool)) {
    let op = tree.op();
    for (i, kid) in tree.kids().iter().enumerate() {
        if let Some(off) = direct_offset(kid) {
            let (clean, is_word) = match op.opcode {
                Opcode::Indir => (true, op.ty.size() == 4),
                Opcode::Asgn if i == 0 => (true, op.ty.size() == 4),
                _ => (false, false),
            };
            visit(off, clean, is_word);
            continue;
        }
        mark_tree(kid, visit);
    }
    // A bare address at the statement root (rare) is an escape.
    if let Some(off) = direct_offset(tree) {
        visit(off, false, false);
    }
}

fn mem_width(ty: IrType) -> Result<MemWidth, VmError> {
    match ty {
        IrType::C => Ok(MemWidth::Byte),
        IrType::S => Ok(MemWidth::Short),
        IrType::I | IrType::U | IrType::P => Ok(MemWidth::Word),
        IrType::V => Err(VmError::Codegen("void memory access".into())),
    }
}

fn alu_op(opcode: Opcode, unsigned: bool) -> AluOp {
    match opcode {
        Opcode::Add => AluOp::Add,
        Opcode::Sub => AluOp::Sub,
        Opcode::Mul => AluOp::Mul,
        Opcode::Div => {
            if unsigned {
                AluOp::DivU
            } else {
                AluOp::Div
            }
        }
        Opcode::Mod => {
            if unsigned {
                AluOp::RemU
            } else {
                AluOp::Rem
            }
        }
        Opcode::BAnd => AluOp::And,
        Opcode::BOr => AluOp::Or,
        Opcode::BXor => AluOp::Xor,
        Opcode::Lsh => AluOp::Sll,
        Opcode::Rsh => {
            if unsigned {
                AluOp::Srl
            } else {
                AluOp::Sra
            }
        }
        other => unreachable!("{other:?} is not an ALU opcode"),
    }
}

fn branch_cond(opcode: Opcode, unsigned: bool) -> Cond {
    match (opcode, unsigned) {
        (Opcode::Eq, _) => Cond::Eq,
        (Opcode::Ne, _) => Cond::Ne,
        (Opcode::Lt, false) => Cond::Lt,
        (Opcode::Le, false) => Cond::Le,
        (Opcode::Gt, false) => Cond::Gt,
        (Opcode::Ge, false) => Cond::Ge,
        (Opcode::Lt, true) => Cond::LtU,
        (Opcode::Le, true) => Cond::LeU,
        (Opcode::Gt, true) => Cond::GtU,
        (Opcode::Ge, true) => Cond::GeU,
        (other, _) => unreachable!("{other:?} is not a branch opcode"),
    }
}

/// The constant value of a `CNST` tree, if it is one.
fn const_value(tree: &Tree) -> Option<i32> {
    if tree.op().opcode == Opcode::Cnst {
        if let Some(Literal::Int(v)) = tree.literal() {
            return i32::try_from(*v).ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Machine;
    use codecomp_front::compile;

    fn run_c(src: &str, isa: IsaConfig, entry: &str, args: &[i64]) -> crate::interp::RunOutcome {
        let ir = compile(src).unwrap();
        let p = compile_module(&ir, isa).unwrap();
        Machine::new(&p, 1 << 20, 1 << 26)
            .unwrap()
            .run(entry, args)
            .unwrap()
    }

    /// Front end → IR evaluator and front end → VM must agree.
    fn differential(src: &str, args: &[i64]) {
        let ir = compile(src).unwrap();
        let expect = codecomp_ir::eval::Evaluator::new(&ir, 1 << 20, 1 << 26)
            .unwrap()
            .run("main", args)
            .unwrap();
        for (name, isa) in IsaConfig::variants() {
            let p = compile_module(&ir, isa).unwrap();
            let got = Machine::new(&p, 1 << 20, 1 << 26)
                .unwrap()
                .run("main", args)
                .unwrap();
            assert_eq!(got.value, expect.value, "value mismatch under {name}");
            assert_eq!(got.output, expect.output, "output mismatch under {name}");
        }
    }

    #[test]
    fn simple_arithmetic() {
        differential("int main() { return 2 + 3 * 4 - 6 / 2; }", &[]);
    }

    #[test]
    fn locals_and_promotion() {
        differential(
            "int main() { int s = 0; int i; for (i = 1; i <= 10; i++) s += i; return s; }",
            &[],
        );
    }

    #[test]
    fn recursion() {
        differential(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { return fib(12); }",
            &[],
        );
    }

    #[test]
    fn arrays_and_pointers() {
        differential(
            "int a[8];
             int main() {
                 int i;
                 int *p = a;
                 for (i = 0; i < 8; i++) a[i] = i * 3;
                 return p[5] + *(a + 2) + a[7];
             }",
            &[],
        );
    }

    #[test]
    fn chars_shorts_and_strings() {
        differential(
            "char msg[6] = \"hello\";
             int main() {
                 short s = 70000;
                 char c = msg[1];
                 return s + c;
             }",
            &[],
        );
    }

    #[test]
    fn many_arguments_spill_to_stack() {
        differential(
            "int sum6(int a, int b, int c, int d, int e, int f) {
                 return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
             }
             int main() { return sum6(1, 2, 3, 4, 5, 6); }",
            &[],
        );
    }

    #[test]
    fn output_and_unsigned() {
        differential(
            "int main() {
                 unsigned u = 0 - 1;
                 print_int(u > 100);
                 print_char('x');
                 return (u >> 28) + (1 << 3);
             }",
            &[],
        );
    }

    #[test]
    fn address_taken_variables_stay_in_frame() {
        differential(
            "int bump(int *p) { *p = *p + 1; return *p; }
             int main() { int x = 41; bump(&x); return x; }",
            &[],
        );
    }

    #[test]
    fn division_and_remainders() {
        differential(
            "int main() { return (-7) / 2 * 100 + (-7) % 2 + 13 % 5 * 10; }",
            &[],
        );
    }

    #[test]
    fn nested_and_chained_calls() {
        differential(
            "int add(int a, int b) { return a + b; }
             int main() { return add(add(1, 2), add(add(3, 4), 5)); }",
            &[],
        );
    }

    #[test]
    fn char_assignment_value_truncates() {
        differential("int main() { char c; return (c = 300); }", &[]);
    }

    #[test]
    fn entry_arguments() {
        let out = run_c(
            "int main(int a, int b) { return a * b; }",
            IsaConfig::full(),
            "main",
            &[6, 7],
        );
        assert_eq!(out.value, 42);
    }

    #[test]
    fn prologue_matches_paper_idiom() {
        let ir = compile(
            "int pepper(int a, int b) { return a + b; }
             int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }",
        )
        .unwrap();
        let p = compile_module(&ir, IsaConfig::full()).unwrap();
        let salt = p.function("salt").unwrap();
        assert!(
            matches!(salt.code[0], Inst::Enter { .. }),
            "first inst: {}",
            salt.code[0]
        );
        assert!(
            salt.code
                .iter()
                .any(|i| matches!(i, Inst::Spill { rs, .. } if *rs == Reg::RA)),
            "ra must be spilled"
        );
        assert!(salt.code.iter().any(|i| matches!(i, Inst::Reload { .. })));
        assert!(matches!(salt.code.last(), Some(Inst::Rjr { rs }) if *rs == Reg::RA));
        assert!(!salt.saved_regs.is_empty(), "j should be promoted");
    }

    #[test]
    fn detuned_isa_uses_no_forbidden_forms() {
        let ir = compile(
            "int main() { int a[4]; int i; for (i = 0; i < 4; i++) a[i] = i; return a[2]; }",
        )
        .unwrap();
        let p = compile_module(&ir, IsaConfig::minimal()).unwrap();
        for f in &p.functions {
            for inst in &f.code {
                match inst {
                    Inst::AluImm { .. } | Inst::BranchImm { .. } => {
                        panic!("immediate instruction under minimal ISA: {inst}")
                    }
                    Inst::Load { off, .. } | Inst::Store { off, .. } => {
                        assert_eq!(*off, 0, "displacement under minimal ISA: {inst}");
                    }
                    Inst::Spill { .. } | Inst::Reload { .. } => {
                        panic!("sp-displacement spill under minimal ISA: {inst}")
                    }
                    _ => {}
                }
            }
        }
        let mut m = Machine::new(&p, 1 << 20, 1 << 24).unwrap();
        assert_eq!(m.run("main", &[]).unwrap().value, 2);
    }

    #[test]
    fn detuned_code_is_larger() {
        let ir = compile(
            "int main() { int s = 0; int i; for (i = 0; i < 100; i++) s += i * 2; return s; }",
        )
        .unwrap();
        let full =
            crate::encode::code_segment_size(&compile_module(&ir, IsaConfig::full()).unwrap());
        let minimal =
            crate::encode::code_segment_size(&compile_module(&ir, IsaConfig::minimal()).unwrap());
        assert!(
            minimal > full,
            "minimal {minimal} should exceed full {full}"
        );
    }
}
