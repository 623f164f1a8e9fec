//! Linked VM programs.

use crate::isa::{FuncRef, Inst, IsaConfig};
use crate::reg::Reg;
use crate::VmError;
use std::collections::HashMap;

/// A global data definition: the IR's, unchanged.
pub use codecomp_ir::tree::Global as VmGlobal;

/// One compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct VmFunction {
    /// Name.
    pub name: String,
    /// Declared parameter count.
    pub param_count: usize,
    /// Frame size in bytes (what `enter`/`exit`/`epi` use).
    pub frame_size: u32,
    /// Callee-saved registers this function spills, in spill order.
    /// Their conventional slots are `frame_size - 8 - 4*i`; `ra` lives at
    /// `frame_size - 4`.
    pub saved_regs: Vec<Reg>,
    /// Instructions. A branch target is an index into this vector.
    pub code: Vec<Inst>,
}

impl VmFunction {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, param_count: usize, frame_size: u32) -> Self {
        Self {
            name: name.into(),
            param_count,
            frame_size,
            saved_regs: Vec::new(),
            code: Vec::new(),
        }
    }

    /// The conventional frame slot of `ra`.
    pub fn ra_slot(&self) -> i32 {
        self.frame_size as i32 - 4
    }

    /// The conventional frame slot of the `i`-th saved register.
    pub fn saved_slot(&self, i: usize) -> i32 {
        self.frame_size as i32 - 8 - 4 * i as i32
    }

    /// Checks that every branch target is an instruction of this
    /// function.
    ///
    /// # Errors
    ///
    /// [`VmError::Codegen`] naming the first target past the end.
    pub fn validate(&self) -> Result<(), VmError> {
        match self
            .code
            .iter()
            .find_map(|inst| inst.target().filter(|&t| t as usize >= self.code.len()))
        {
            Some(t) => Err(VmError::Codegen(format!(
                "branch target {t} past the end of {} ({} instructions)",
                self.name,
                self.code.len()
            ))),
            None => Ok(()),
        }
    }
}

/// Marks the instructions some branch or jump of `code` targets.
pub fn branch_targets(code: &[Inst]) -> Vec<bool> {
    let mut targeted = vec![false; code.len()];
    for t in code.iter().filter_map(Inst::target) {
        if let Some(slot) = targeted.get_mut(t as usize) {
            *slot = true;
        }
    }
    targeted
}

/// Drops every instruction whose `keep` flag is false and moves each
/// branch target onto the kept code: a target at a dropped instruction
/// lands on the first kept one after it. An in-function rewrite that
/// deletes or folds instructions does so through this one remap; one
/// that must not fold across a branch target checks [`branch_targets`]
/// first.
pub fn compact(code: &mut Vec<Inst>, keep: &[bool]) {
    let mut new_index = Vec::with_capacity(keep.len() + 1);
    let mut kept = 0u32;
    for &k in keep {
        new_index.push(kept);
        kept += u32::from(k);
    }
    new_index.push(kept);
    let mut keep = keep.iter();
    code.retain(|_| *keep.next().unwrap_or(&true));
    for t in code.iter_mut().filter_map(Inst::target_mut) {
        *t = new_index[(*t as usize).min(new_index.len() - 1)];
    }
}

/// A linked program: globals plus functions, with the ISA configuration
/// the code was generated under.
#[derive(Debug, Clone, PartialEq)]
pub struct VmProgram {
    /// Global data.
    pub globals: Vec<VmGlobal>,
    /// Functions.
    pub functions: Vec<VmFunction>,
    /// The ISA variant in force.
    pub isa: IsaConfig,
}

impl VmProgram {
    /// Creates an empty program under the full ISA.
    pub fn new() -> Self {
        Self {
            globals: Vec::new(),
            functions: Vec::new(),
            isa: IsaConfig::full(),
        }
    }

    /// Finds a function index by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&VmFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Validates branch and call targets.
    ///
    /// # Errors
    ///
    /// [`VmError::Codegen`] on the first branch target past its
    /// function's end, or call target that is neither a program function
    /// nor a host function.
    pub fn validate(&self) -> Result<(), VmError> {
        for f in &self.functions {
            f.validate()?;
            for inst in &f.code {
                if let Inst::Call {
                    target: FuncRef::Symbol(name),
                } = inst
                {
                    if self.function_index(name).is_none()
                        && !codecomp_ir::eval::HOST_FUNCTIONS.contains(&name.as_str())
                    {
                        return Err(VmError::Codegen(format!(
                            "call to undefined function {name} from {}",
                            f.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Default for VmProgram {
    fn default() -> Self {
        Self::new()
    }
}

/// What an `Inst::Call` calls, resolved once, before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// Not a direct call, or a call whose name resolved to nothing.
    None,
    /// A function index into the program's function table.
    Function(u32),
    /// An index into [`codecomp_ir::eval::HOST_FUNCTIONS`].
    Host(u32),
}

/// Resolves call targets by name the way every tier does: to the first
/// function of that name, else to the host function of that name.
pub fn callees_by_name<'a>(
    function_names: impl ExactSizeIterator<Item = &'a str>,
) -> HashMap<&'a str, Callee> {
    let hosts = codecomp_ir::eval::HOST_FUNCTIONS;
    let mut by_name = HashMap::with_capacity(function_names.len() + hosts.len());
    for (i, name) in function_names.enumerate() {
        by_name.entry(name).or_insert(Callee::Function(i as u32));
    }
    for (h, name) in hosts.iter().enumerate() {
        by_name.entry(*name).or_insert(Callee::Host(h as u32));
    }
    by_name
}

/// A program flattened into one code space, ready for interpretation:
/// branch targets rebased to absolute instruction indices and calls
/// resolved to [`Callee`]s.
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// All instructions, each function's branch targets plus that
    /// function's start.
    pub code: Vec<Inst>,
    /// Parallel to `code`: each call's target, [`Callee::None`] for
    /// everything else.
    pub callees: Vec<Callee>,
    /// Per-function `(start, end)` index ranges, parallel to `functions`.
    pub ranges: Vec<(usize, usize)>,
    /// Function metadata (same order as the source program).
    pub functions: Vec<VmFunction>,
    /// Globals.
    pub globals: Vec<VmGlobal>,
}

impl FlatProgram {
    /// Flattens and link-resolves a program.
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn link(program: &VmProgram) -> Result<FlatProgram, VmError> {
        program.validate()?;
        let by_name = callees_by_name(program.functions.iter().map(|f| f.name.as_str()));
        let mut code = Vec::with_capacity(program.inst_count());
        let mut callees = Vec::with_capacity(program.inst_count());
        let mut ranges = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            let start = code.len();
            for inst in &f.code {
                let mut inst = inst.clone();
                if let Some(t) = inst.target_mut() {
                    *t += start as u32;
                }
                callees.push(match &inst {
                    Inst::Call {
                        target: FuncRef::Symbol(name),
                    } => by_name.get(name.as_str()).copied().unwrap_or(Callee::None),
                    _ => Callee::None,
                });
                code.push(inst);
            }
            ranges.push((start, code.len()));
        }
        Ok(FlatProgram {
            code,
            callees,
            ranges,
            functions: program.functions.clone(),
            globals: program.globals.clone(),
        })
    }

    /// The function whose code contains absolute index `pc`, by binary
    /// search over the function starts.
    pub fn function_at(&self, pc: usize) -> Option<usize> {
        let i = self
            .ranges
            .partition_point(|&(s, _)| s <= pc)
            .checked_sub(1)?;
        (pc < self.ranges[i].1).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Cond;

    fn branchy_function() -> VmFunction {
        let mut f = VmFunction::new("f", 0, 8);
        f.code = vec![
            Inst::Li {
                rd: Reg::new(0),
                imm: 0,
            },
            Inst::BranchImm {
                cond: Cond::Ge,
                rs: Reg::new(0),
                imm: 5,
                target: 4,
            },
            Inst::AluImm {
                op: crate::isa::AluOp::Add,
                rd: Reg::new(0),
                rs: Reg::new(0),
                imm: 1,
            },
            Inst::Jump { target: 1 },
            Inst::Rjr { rs: Reg::RA },
        ];
        f
    }

    #[test]
    fn targets_inside_the_function_validate() {
        let f = branchy_function();
        assert!(f.validate().is_ok());
        assert_eq!(branch_targets(&f.code), [false, true, false, false, true]);
    }

    #[test]
    fn unresolved_target_rejected() {
        let mut f = VmFunction::new("f", 0, 0);
        f.code = vec![Inst::Jump { target: 9 }];
        assert!(f.validate().is_err());
    }

    #[test]
    fn target_one_past_the_end_rejected() {
        let mut f = VmFunction::new("f", 0, 0);
        f.code = vec![Inst::Nop, Inst::Jump { target: 2 }];
        assert!(f.validate().is_err());
        f.code[1] = Inst::Jump { target: 1 };
        assert!(f.validate().is_ok());
    }

    #[test]
    fn compact_moves_targets_onto_the_next_kept_instruction() {
        let mut code = branchy_function().code;
        code.insert(1, Inst::Nop);
        for t in code.iter_mut().filter_map(Inst::target_mut) {
            *t += 1;
        }
        // The loop head now points at the dropped `nop`; it lands on the
        // branch after it, and the exit target shifts down by one.
        compact(&mut code, &[true, false, true, true, true, true]);
        assert_eq!(code, branchy_function().code);
    }

    #[test]
    fn frame_slots() {
        let mut f = VmFunction::new("f", 0, 24);
        f.saved_regs = vec![Reg::new(4)];
        assert_eq!(f.ra_slot(), 20);
        assert_eq!(f.saved_slot(0), 16);
    }

    #[test]
    fn link_rewrites_targets_to_absolute_indices() {
        let mut p = VmProgram::new();
        p.functions.push(branchy_function());
        p.functions.push({
            let mut g = VmFunction::new("g", 0, 0);
            g.code = vec![Inst::Jump { target: 0 }];
            g
        });
        let flat = FlatProgram::link(&p).unwrap();
        assert_eq!(flat.ranges[0], (0, 5));
        assert_eq!(flat.ranges[1], (5, 6));
        // f's loop jump goes to absolute index 1.
        assert_eq!(flat.code[3], Inst::Jump { target: 1 });
        // g's self-loop goes to absolute index 5, not 0.
        assert_eq!(flat.code[5], Inst::Jump { target: 5 });
        assert_eq!(flat.function_at(2), Some(0));
        assert_eq!(flat.function_at(5), Some(1));
        assert_eq!(flat.function_at(6), None);
    }

    #[test]
    fn undefined_call_target_rejected() {
        let mut p = VmProgram::new();
        let mut f = VmFunction::new("f", 0, 0);
        f.code = vec![Inst::Call {
            target: FuncRef::Symbol("nowhere".into()),
        }];
        p.functions.push(f);
        assert!(p.validate().is_err());
    }

    #[test]
    fn host_calls_are_valid_targets() {
        let mut p = VmProgram::new();
        let mut f = VmFunction::new("f", 0, 0);
        f.code = vec![Inst::Call {
            target: FuncRef::Symbol("print_int".into()),
        }];
        p.functions.push(f);
        assert!(p.validate().is_ok());
    }
}
