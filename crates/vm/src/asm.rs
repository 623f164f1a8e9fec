//! Assembly text form: printing and parsing.
//!
//! The syntax follows the paper's examples: `ld.iw n0,4(sp)`,
//! `spill.i ra,20(sp)`, `ble.i n4,0,$L56`, `enter sp,sp,24`, `rjr ra`.
//! `$L` names are syntax only: [`parse_program`] resolves each `$L<n>:`
//! line to the index of the instruction after it, and a function prints
//! `$L<index>:` before each instruction a branch targets, so printing
//! and parsing give back the same program.

use crate::isa::{AluOp, Cond, FuncRef, Inst, MemWidth};
use crate::program::{branch_targets, VmFunction, VmGlobal, VmProgram};
use crate::reg::Reg;
use crate::VmError;
use std::collections::HashMap;
use std::fmt;

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Li { rd, imm } => write!(f, "li {rd},{imm}"),
            Inst::Mov { rd, rs } => write!(f, "mov.i {rd},{rs}"),
            Inst::Alu { op, rd, rs, rt } => write!(f, "{}.i {rd},{rs},{rt}", op.name()),
            Inst::AluImm { op, rd, rs, imm } => write!(f, "{}.i {rd},{rs},{imm}", op.name()),
            Inst::Neg { rd, rs } => write!(f, "neg.i {rd},{rs}"),
            Inst::Not { rd, rs } => write!(f, "not.i {rd},{rs}"),
            Inst::Sext { width, rd, rs } => write!(f, "sext.{} {rd},{rs}", width.suffix()),
            Inst::Load {
                width,
                rd,
                off,
                base,
            } => {
                write!(f, "ld.{} {rd},{off}({base})", width.suffix())
            }
            Inst::Store {
                width,
                rs,
                off,
                base,
            } => {
                write!(f, "st.{} {rs},{off}({base})", width.suffix())
            }
            Inst::Spill { rs, off } => write!(f, "spill.i {rs},{off}(sp)"),
            Inst::Reload { rd, off } => write!(f, "reload.i {rd},{off}(sp)"),
            Inst::Enter { amount } => write!(f, "enter sp,sp,{amount}"),
            Inst::Exit { amount } => write!(f, "exit sp,sp,{amount}"),
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                write!(f, "{}.i {rs},{rt},$L{target}", cond.name())
            }
            Inst::BranchImm {
                cond,
                rs,
                imm,
                target,
            } => {
                write!(f, "{}.i {rs},{imm},$L{target}", cond.name())
            }
            Inst::Jump { target } => write!(f, "j $L{target}"),
            Inst::Call {
                target: FuncRef::Symbol(name),
            } => write!(f, "call {name}"),
            Inst::CallR { rs } => write!(f, "callr {rs}"),
            Inst::Rjr { rs } => write!(f, "rjr {rs}"),
            Inst::Epi => write!(f, "epi"),
            Inst::Bcopy { rd, rs, rn } => write!(f, "bcopy {rd},{rs},{rn}"),
            Inst::Bzero { rd, rn } => write!(f, "bzero {rd},{rn}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

impl fmt::Display for VmFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            ".func {} params={} frame={}",
            self.name, self.param_count, self.frame_size
        )?;
        if !self.saved_regs.is_empty() {
            write!(f, " saves=")?;
            for (i, r) in self.saved_regs.iter().enumerate() {
                if i > 0 {
                    write!(f, "+")?;
                }
                write!(f, "{r}")?;
            }
        }
        writeln!(f)?;
        let targeted = branch_targets(&self.code);
        for (i, inst) in self.code.iter().enumerate() {
            if targeted[i] {
                writeln!(f, "$L{i}:")?;
            }
            writeln!(f, "    {inst}")?;
        }
        write!(f, ".end")
    }
}

impl fmt::Display for VmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            write!(f, ".global {} {}", g.name, g.size)?;
            for b in &g.init {
                write!(f, " {b}")?;
            }
            writeln!(f)?;
        }
        for func in &self.functions {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

/// Parses one instruction line. A `$L<n>` target is taken as the
/// index `n`; label definitions (`$L<n>:`) belong to [`parse_program`].
///
/// # Errors
///
/// [`VmError::Asm`] with the given line number on failure.
pub fn parse_inst(text: &str, line: u32) -> Result<Inst, VmError> {
    let err = |m: &str| VmError::Asm {
        line,
        message: m.to_string(),
    };
    let text = text.trim();
    let (mnemonic, operands) = match text.split_once(char::is_whitespace) {
        Some((m, rest)) => (m, rest.trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> = if operands.is_empty() {
        Vec::new()
    } else {
        operands.split(',').map(str::trim).collect()
    };
    let reg = |s: &str| Reg::from_name(s).ok_or_else(|| err(&format!("bad register {s:?}")));
    let imm = |s: &str| {
        s.parse::<i32>()
            .map_err(|_| err(&format!("bad immediate {s:?}")))
    };
    let label = |s: &str| {
        s.strip_prefix("$L")
            .and_then(|t| t.parse::<u32>().ok())
            .ok_or_else(|| err(&format!("bad label {s:?}")))
    };
    // `off(base)` operand.
    let mem = |s: &str| -> Result<(i32, Reg), VmError> {
        let open = s.find('(').ok_or_else(|| err("expected off(reg)"))?;
        let close = s
            .strip_suffix(')')
            .ok_or_else(|| err("expected closing ')'"))?;
        let off = imm(&s[..open])?;
        let base = reg(&close[open + 1..])?;
        Ok((off, base))
    };
    let need = |n: usize| -> Result<(), VmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(&format!("expected {n} operands, got {}", ops.len())))
        }
    };

    match mnemonic {
        "li" => {
            need(2)?;
            Ok(Inst::Li {
                rd: reg(ops[0])?,
                imm: imm(ops[1])?,
            })
        }
        "mov.i" => {
            need(2)?;
            Ok(Inst::Mov {
                rd: reg(ops[0])?,
                rs: reg(ops[1])?,
            })
        }
        "neg.i" => {
            need(2)?;
            Ok(Inst::Neg {
                rd: reg(ops[0])?,
                rs: reg(ops[1])?,
            })
        }
        "not.i" => {
            need(2)?;
            Ok(Inst::Not {
                rd: reg(ops[0])?,
                rs: reg(ops[1])?,
            })
        }
        "sext.ib" | "sext.is" => {
            need(2)?;
            let width = if mnemonic.ends_with('b') {
                MemWidth::Byte
            } else {
                MemWidth::Short
            };
            Ok(Inst::Sext {
                width,
                rd: reg(ops[0])?,
                rs: reg(ops[1])?,
            })
        }
        "ld.iw" | "ld.is" | "ld.ib" | "st.iw" | "st.is" | "st.ib" => {
            need(2)?;
            let width = match &mnemonic[3..] {
                "iw" => MemWidth::Word,
                "is" => MemWidth::Short,
                _ => MemWidth::Byte,
            };
            let (off, base) = mem(ops[1])?;
            if mnemonic.starts_with("ld") {
                Ok(Inst::Load {
                    width,
                    rd: reg(ops[0])?,
                    off,
                    base,
                })
            } else {
                Ok(Inst::Store {
                    width,
                    rs: reg(ops[0])?,
                    off,
                    base,
                })
            }
        }
        "spill.i" => {
            need(2)?;
            let (off, base) = mem(ops[1])?;
            if base != Reg::SP {
                return Err(err("spill base must be sp"));
            }
            Ok(Inst::Spill {
                rs: reg(ops[0])?,
                off,
            })
        }
        "reload.i" => {
            need(2)?;
            let (off, base) = mem(ops[1])?;
            if base != Reg::SP {
                return Err(err("reload base must be sp"));
            }
            Ok(Inst::Reload {
                rd: reg(ops[0])?,
                off,
            })
        }
        "enter" | "exit" => {
            need(3)?;
            if reg(ops[0])? != Reg::SP || reg(ops[1])? != Reg::SP {
                return Err(err("enter/exit operate on sp,sp"));
            }
            let amount = imm(ops[2])?;
            if mnemonic == "enter" {
                Ok(Inst::Enter { amount })
            } else {
                Ok(Inst::Exit { amount })
            }
        }
        "j" => {
            need(1)?;
            Ok(Inst::Jump {
                target: label(ops[0])?,
            })
        }
        "call" => {
            need(1)?;
            Ok(Inst::Call {
                target: FuncRef::Symbol(ops[0].to_string()),
            })
        }
        "callr" => {
            need(1)?;
            Ok(Inst::CallR { rs: reg(ops[0])? })
        }
        "rjr" => {
            need(1)?;
            Ok(Inst::Rjr { rs: reg(ops[0])? })
        }
        "epi" => {
            need(0)?;
            Ok(Inst::Epi)
        }
        "nop" => {
            need(0)?;
            Ok(Inst::Nop)
        }
        "bcopy" => {
            need(3)?;
            Ok(Inst::Bcopy {
                rd: reg(ops[0])?,
                rs: reg(ops[1])?,
                rn: reg(ops[2])?,
            })
        }
        "bzero" => {
            need(2)?;
            Ok(Inst::Bzero {
                rd: reg(ops[0])?,
                rn: reg(ops[1])?,
            })
        }
        _ => {
            // ALU and branch families: `<stem>.i`.
            let stem = mnemonic
                .strip_suffix(".i")
                .ok_or_else(|| err(&format!("unknown mnemonic {mnemonic:?}")))?;
            if let Some(op) = AluOp::ALL.iter().copied().find(|o| o.name() == stem) {
                need(3)?;
                let rd = reg(ops[0])?;
                let rs = reg(ops[1])?;
                return if let Ok(rt) = reg(ops[2]) {
                    Ok(Inst::Alu { op, rd, rs, rt })
                } else {
                    Ok(Inst::AluImm {
                        op,
                        rd,
                        rs,
                        imm: imm(ops[2])?,
                    })
                };
            }
            if let Some(cond) = Cond::ALL.iter().copied().find(|c| c.name() == stem) {
                need(3)?;
                let rs = reg(ops[0])?;
                let target = label(ops[2])?;
                return if let Ok(rt) = reg(ops[1]) {
                    Ok(Inst::Branch {
                        cond,
                        rs,
                        rt,
                        target,
                    })
                } else {
                    Ok(Inst::BranchImm {
                        cond,
                        rs,
                        imm: imm(ops[1])?,
                        target,
                    })
                };
            }
            Err(err(&format!("unknown mnemonic {mnemonic:?}")))
        }
    }
}

/// Parses a whole program in the `Display` format of [`VmProgram`],
/// resolving each function's `$L<n>` names to instruction indices.
///
/// # Errors
///
/// [`VmError::Asm`] on the first malformed line, duplicate or undefined
/// label, or label that no instruction follows.
pub fn parse_program(text: &str) -> Result<VmProgram, VmError> {
    let mut program = VmProgram::new();
    let mut current: Option<VmFunction> = None;
    // The current function's labels (name → index) and each of its
    // instructions' line numbers.
    let mut labels: HashMap<u32, u32> = HashMap::new();
    let mut lines: Vec<u32> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i as u32 + 1;
        let line = raw.trim();
        let err = |m: &str| VmError::Asm {
            line: lineno,
            message: m.to_string(),
        };
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".global ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| err("global needs a name"))?
                .to_string();
            let size: u32 = parts
                .next()
                .ok_or_else(|| err("global needs a size"))?
                .parse()
                .map_err(|_| err("bad global size"))?;
            let mut init = Vec::new();
            for tok in parts {
                init.push(tok.parse::<u8>().map_err(|_| err("bad init byte"))?);
            }
            program.globals.push(VmGlobal { name, size, init });
        } else if let Some(rest) = line.strip_prefix(".func ") {
            if current.is_some() {
                return Err(err("nested .func"));
            }
            let mut name = None;
            let mut params = 0usize;
            let mut frame = 0u32;
            let mut saves = Vec::new();
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("params=") {
                    params = v.parse().map_err(|_| err("bad params="))?;
                } else if let Some(v) = tok.strip_prefix("frame=") {
                    frame = v.parse().map_err(|_| err("bad frame="))?;
                } else if let Some(v) = tok.strip_prefix("saves=") {
                    for r in v.split('+') {
                        saves.push(Reg::from_name(r).ok_or_else(|| err("bad saves="))?);
                    }
                } else if name.is_none() {
                    name = Some(tok.to_string());
                } else {
                    return Err(err(&format!("unexpected token {tok:?} in .func")));
                }
            }
            let mut f = VmFunction::new(
                name.ok_or_else(|| err(".func needs a name"))?,
                params,
                frame,
            );
            f.saved_regs = saves;
            current = Some(f);
            labels.clear();
            lines.clear();
        } else if let Some(rest) = line.strip_prefix("$L") {
            let f = current.as_ref().ok_or_else(|| err("label outside .func"))?;
            let n: u32 = rest
                .strip_suffix(':')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| err("bad label definition"))?;
            if labels.insert(n, f.code.len() as u32).is_some() {
                return Err(err(&format!("duplicate label $L{n}")));
            }
        } else if line == ".end" {
            let mut f = current.take().ok_or_else(|| err(".end without .func"))?;
            for (inst, &at) in f.code.iter_mut().zip(&lines) {
                if let Some(target) = inst.target_mut() {
                    *target = *labels.get(target).ok_or_else(|| VmError::Asm {
                        line: at,
                        message: format!("undefined label $L{target}"),
                    })?;
                }
            }
            f.validate()
                .map_err(|_| err("label not followed by an instruction"))?;
            program.functions.push(f);
        } else {
            let f = current
                .as_mut()
                .ok_or_else(|| err("instruction outside .func"))?;
            f.code.push(parse_inst(line, lineno)?);
            lines.push(lineno);
        }
    }
    if current.is_some() {
        return Err(VmError::Asm {
            line: 0,
            message: "unterminated .func".into(),
        });
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::IsaConfig;

    #[test]
    fn paper_example_instructions_roundtrip() {
        // The exact instruction sequence the paper shows for `salt` (§4).
        let lines = [
            "enter sp,sp,24",
            "spill.i n4,16(sp)",
            "spill.i ra,20(sp)",
            "mov.i n4,n0",
            "mov.i n2,n1",
            "ble.i n4,0,$L56",
            "mov.i n1,n4",
            "mov.i n0,n2",
            "call pepper",
            "$L56:",
            "add.i n0,n4,-1",
            "reload.i n4,16(sp)",
            "reload.i ra,20(sp)",
            "exit sp,sp,24",
            "rjr ra",
        ];
        for l in lines.iter().filter(|l| !l.ends_with(':')) {
            let inst = parse_inst(l, 1).unwrap();
            assert_eq!(inst.to_string(), *l, "roundtrip failed for {l}");
        }
        // In a program, `$L56` names the instruction after `$L56:`.
        let text = format!(".func salt params=1 frame=24\n{}\n.end\n", lines.join("\n"));
        let salt = &parse_program(&text).unwrap().functions[0];
        assert_eq!(salt.code.len(), lines.len() - 1);
        assert_eq!(salt.code[5].target(), Some(9));
        assert_eq!(salt.code[9].to_string(), "add.i n0,n4,-1");
    }

    #[test]
    fn alu_and_branch_forms_disambiguate() {
        assert!(matches!(
            parse_inst("add.i n0,n1,n2", 1).unwrap(),
            Inst::Alu { .. }
        ));
        assert!(matches!(
            parse_inst("add.i n0,n1,-7", 1).unwrap(),
            Inst::AluImm { imm: -7, .. }
        ));
        assert!(matches!(
            parse_inst("blt.i n0,n1,$L3", 1).unwrap(),
            Inst::Branch { .. }
        ));
        assert!(matches!(
            parse_inst("blt.i n0,100,$L3", 1).unwrap(),
            Inst::BranchImm { imm: 100, .. }
        ));
    }

    #[test]
    fn memory_forms() {
        assert_eq!(
            parse_inst("ld.iw n0,4(sp)", 1).unwrap().to_string(),
            "ld.iw n0,4(sp)"
        );
        assert_eq!(
            parse_inst("st.ib n3,-2(n5)", 1).unwrap().to_string(),
            "st.ib n3,-2(n5)"
        );
        assert_eq!(
            parse_inst("ld.is n1,0(n2)", 1).unwrap().to_string(),
            "ld.is n1,0(n2)"
        );
    }

    #[test]
    fn macros_and_misc() {
        for l in [
            "epi",
            "nop",
            "bcopy n0,n1,n2",
            "bzero n0,n1",
            "callr n3",
            "j $L7",
            "li n0,123456",
            "sext.ib n1,n1",
            "neg.i n2,n3",
            "not.i n4,n4",
        ] {
            assert_eq!(parse_inst(l, 1).unwrap().to_string(), l);
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_inst("frob n0", 1).is_err());
        assert!(parse_inst("add.i n0,n1", 1).is_err());
        assert!(parse_inst("li n99,3", 1).is_err());
        assert!(parse_inst("spill.i n4,16(n3)", 1).is_err());
        assert!(parse_inst("enter sp,n0,24", 1).is_err());
        assert!(parse_inst("$L5", 1).is_err());
        assert!(parse_inst("$L5:", 1).is_err());
    }

    #[test]
    fn program_roundtrip() {
        let text = "\
.global buf 16 1 2 3
.func main params=0 frame=24 saves=n4+n5
    enter sp,sp,24
    spill.i n4,12(sp)
$L1:
    ble.i n4,0,$L2
    j $L1
$L2:
    epi
.end
";
        let p = parse_program(text).unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.functions[0].saved_regs.len(), 2);
        assert_eq!(p.functions[0].code.len(), 5);
        assert_eq!(
            p.functions[0].code[2],
            Inst::BranchImm {
                cond: Cond::Le,
                rs: Reg::new(4),
                imm: 0,
                target: 4,
            }
        );
        assert_eq!(p.functions[0].code[3], Inst::Jump { target: 2 });
        let printed = p.to_string();
        assert!(printed.contains("$L2:\n    ble.i n4,0,$L4\n    j $L2\n$L4:\n    epi"));
        let reparsed = parse_program(&printed).unwrap();
        // IsaConfig is not part of the text form.
        assert_eq!(reparsed.functions, p.functions);
        assert_eq!(reparsed.globals, p.globals);
        assert_eq!(p.isa, IsaConfig::full());
    }

    #[test]
    fn program_errors() {
        assert!(parse_program(".end").is_err());
        assert!(parse_program("nop").is_err());
        assert!(parse_program(".func f params=0 frame=0\nnop").is_err());
        for (text, line) in [
            (".func f params=0 frame=0\nnop\nj $L7\n.end", 3),
            (".func f params=0 frame=0\nj $L1\n$L1:\n.end", 4),
        ] {
            match parse_program(text) {
                Err(VmError::Asm { line: l, .. }) => assert_eq!(l, line, "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_label_rejected() {
        match parse_program(".func f params=0 frame=0\n$L1:\nnop\n$L1:\nnop\n.end") {
            Err(VmError::Asm { line: 4, message }) => assert!(message.contains("duplicate")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compiled_programs_print_and_parse_back() {
        let ir = codecomp_front::compile(
            "int g(int n) { int s = 0; while (n > 0) { if (n & 1) s += n; n--; } return s; }
             int main() { return g(9) + g(4); }",
        )
        .unwrap();
        for (_, isa) in IsaConfig::variants() {
            let p = crate::codegen::compile_module(&ir, isa).unwrap();
            assert_eq!(
                parse_program(&p.to_string()).unwrap().functions,
                p.functions
            );
        }
    }
}
