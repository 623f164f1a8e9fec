//! Native code-size models.
//!
//! The paper reports compression ratios against *native* code — MSVC 5.0
//! Pentium executables and SPARC code segments. We cannot ship 1997
//! binaries, so this module translates VM programs into two real native
//! encodings and measures their size:
//!
//! - [`X86Encoder`]: real x86-64 machine-code bytes (REX prefixes,
//!   ModRM, disp8/disp32, rel32 branches). The bytes are structurally
//!   valid encodings; they exist for size accounting and for measuring
//!   translation throughput ("JIT MB/s" is megabytes of *this* output
//!   per second), not for execution.
//! - [`fixed_width_size`]: a SPARC-like fixed 4-byte encoding where
//!   32-bit constants need a second instruction (`sethi`+`or`), the
//!   paper's wire-format baseline.

use crate::isa::{AluOp, Cond, Inst};
use crate::program::VmProgram;
use crate::reg::Reg;

/// Maps VM registers onto x86-64 registers (number 0–15).
///
/// `sp` maps to `rsp` (13 → r13 etc. shifted so the mapping is total).
fn x86_reg(r: Reg) -> u8 {
    // n0..n13 -> rax,rcx,rdx,rbx,rsi,rdi,r8..r15 is 14 registers; sp->rsp(4), ra->rbp(5).
    match r.number() {
        14 => 4,         // sp -> rsp
        15 => 5,         // ra -> rbp
        n if n < 4 => n, // rax, rcx, rdx, rbx
        4 => 6,          // rsi
        5 => 7,          // rdi
        n => n + 2,      // r8..r15 for n6..n13
    }
}

/// Emits x86-64 machine code for a VM program into a byte buffer.
///
/// Branch and call targets are emitted as rel32 placeholders (the size
/// model needs correct lengths, not a runnable image).
#[derive(Debug, Default)]
pub struct X86Encoder {
    out: Vec<u8>,
}

impl X86Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes emitted so far.
    pub fn bytes(&self) -> &[u8] {
        &self.out
    }

    /// Consumes the encoder, returning the emitted code.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn rex_rr(&mut self, reg: u8, rm: u8) {
        let mut rex = 0x40u8;
        if reg >= 8 {
            rex |= 0x04;
        }
        if rm >= 8 {
            rex |= 0x01;
        }
        // 32-bit operations skip REX.W; emit REX only when extended
        // registers participate.
        if rex != 0x40 {
            self.out.push(rex);
        }
    }

    fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
        self.out.push((md << 6) | ((reg & 7) << 3) | (rm & 7));
    }

    /// `mov r32, imm32` (B8+rd id) — 5 or 6 bytes.
    fn mov_imm(&mut self, rd: u8, imm: i32) {
        if rd >= 8 {
            self.out.push(0x41);
        }
        self.out.push(0xB8 + (rd & 7));
        self.out.extend_from_slice(&imm.to_le_bytes());
    }

    /// Two-register ALU op (e.g. `add r/m32, r32`) — 2-3 bytes.
    fn alu_rr(&mut self, opcode: u8, reg: u8, rm: u8) {
        self.rex_rr(reg, rm);
        self.out.push(opcode);
        self.modrm(0b11, reg, rm);
    }

    /// Memory operand: `[base + disp]`, choosing disp8/disp32.
    fn mem_operand(&mut self, reg: u8, base: u8, disp: i32) {
        let needs_sib = (base & 7) == 4; // rsp/r12 need a SIB byte
        let md = if disp == 0 && (base & 7) != 5 {
            0b00
        } else if (-128..=127).contains(&disp) {
            0b01
        } else {
            0b10
        };
        self.modrm(md, reg, if needs_sib { 4 } else { base });
        if needs_sib {
            self.out.push(0x24); // scale=0, index=none, base=rsp
        }
        match md {
            0b01 => self.out.push(disp as u8),
            0b10 => self.out.extend_from_slice(&disp.to_le_bytes()),
            _ => {}
        }
    }

    /// Emits one VM instruction; returns bytes produced.
    pub fn emit(&mut self, inst: &Inst) -> usize {
        let before = self.out.len();
        match inst {
            Inst::Li { rd, imm } => self.mov_imm(x86_reg(*rd), *imm),
            Inst::Mov { rd, rs } => self.alu_rr(0x89, x86_reg(*rs), x86_reg(*rd)),
            Inst::Neg { rd, rs } => {
                if rd != rs {
                    self.alu_rr(0x89, x86_reg(*rs), x86_reg(*rd));
                }
                // F7 /3 neg
                self.rex_rr(0, x86_reg(*rd));
                self.out.push(0xF7);
                self.modrm(0b11, 3, x86_reg(*rd));
            }
            Inst::Not { rd, rs } => {
                if rd != rs {
                    self.alu_rr(0x89, x86_reg(*rs), x86_reg(*rd));
                }
                self.rex_rr(0, x86_reg(*rd));
                self.out.push(0xF7);
                self.modrm(0b11, 2, x86_reg(*rd));
            }
            Inst::Sext { width, rd, rs } => {
                // movsx r32, r/m8|16 (0F BE / 0F BF).
                self.rex_rr(x86_reg(*rd), x86_reg(*rs));
                self.out.push(0x0F);
                self.out.push(match width {
                    crate::isa::MemWidth::Byte => 0xBE,
                    _ => 0xBF,
                });
                self.modrm(0b11, x86_reg(*rd), x86_reg(*rs));
            }
            Inst::Alu { op, rd, rs, rt } => {
                // Two-address translation: mov rd, rs; op rd, rt.
                if rd != rs {
                    self.alu_rr(0x89, x86_reg(*rs), x86_reg(*rd));
                }
                match op {
                    AluOp::Add => self.alu_rr(0x01, x86_reg(*rt), x86_reg(*rd)),
                    AluOp::Sub => self.alu_rr(0x29, x86_reg(*rt), x86_reg(*rd)),
                    AluOp::And => self.alu_rr(0x21, x86_reg(*rt), x86_reg(*rd)),
                    AluOp::Or => self.alu_rr(0x09, x86_reg(*rt), x86_reg(*rd)),
                    AluOp::Xor => self.alu_rr(0x31, x86_reg(*rt), x86_reg(*rd)),
                    AluOp::Mul => {
                        // imul r32, r/m32: 0F AF /r.
                        self.rex_rr(x86_reg(*rd), x86_reg(*rt));
                        self.out.push(0x0F);
                        self.out.push(0xAF);
                        self.modrm(0b11, x86_reg(*rd), x86_reg(*rt));
                    }
                    AluOp::Div | AluOp::DivU | AluOp::Rem | AluOp::RemU => {
                        // Division sequence: mov eax; cdq/xor edx; idiv/div; mov back.
                        // Realistic cost: ~8 bytes.
                        self.out
                            .extend_from_slice(&[0x89, 0xC0, 0x99, 0xF7, 0xF8, 0x89, 0xC0]);
                        if x86_reg(*rd) >= 8 || x86_reg(*rt) >= 8 {
                            self.out.push(0x41);
                        }
                    }
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                        // mov ecx, rt; shl/shr/sar rd, cl — ~4-5 bytes.
                        self.alu_rr(0x89, x86_reg(*rt), 1);
                        self.rex_rr(0, x86_reg(*rd));
                        self.out.push(0xD3);
                        let ext = match op {
                            AluOp::Sll => 4,
                            AluOp::Srl => 5,
                            _ => 7,
                        };
                        self.modrm(0b11, ext, x86_reg(*rd));
                    }
                }
            }
            Inst::AluImm { op, rd, rs, imm } => {
                if rd != rs {
                    self.alu_rr(0x89, x86_reg(*rs), x86_reg(*rd));
                }
                match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                        // C1 /ext ib.
                        self.rex_rr(0, x86_reg(*rd));
                        self.out.push(0xC1);
                        let ext = match op {
                            AluOp::Sll => 4,
                            AluOp::Srl => 5,
                            _ => 7,
                        };
                        self.modrm(0b11, ext, x86_reg(*rd));
                        self.out.push(*imm as u8);
                    }
                    AluOp::Mul => {
                        // imul r32, r/m32, imm (69 /r id or 6B /r ib).
                        self.rex_rr(x86_reg(*rd), x86_reg(*rd));
                        if (-128..=127).contains(imm) {
                            self.out.push(0x6B);
                            self.modrm(0b11, x86_reg(*rd), x86_reg(*rd));
                            self.out.push(*imm as u8);
                        } else {
                            self.out.push(0x69);
                            self.modrm(0b11, x86_reg(*rd), x86_reg(*rd));
                            self.out.extend_from_slice(&imm.to_le_bytes());
                        }
                    }
                    _ => {
                        // Group-1: 83 /ext ib or 81 /ext id.
                        let ext = match op {
                            AluOp::Add => 0,
                            AluOp::Or => 1,
                            AluOp::And => 4,
                            AluOp::Sub => 5,
                            AluOp::Xor => 6,
                            // Divisions by immediate go through a register.
                            _ => 7,
                        };
                        self.rex_rr(0, x86_reg(*rd));
                        if (-128..=127).contains(imm) {
                            self.out.push(0x83);
                            self.modrm(0b11, ext, x86_reg(*rd));
                            self.out.push(*imm as u8);
                        } else {
                            self.out.push(0x81);
                            self.modrm(0b11, ext, x86_reg(*rd));
                            self.out.extend_from_slice(&imm.to_le_bytes());
                        }
                    }
                }
            }
            Inst::Load {
                width,
                rd,
                off,
                base,
            } => {
                self.rex_rr(x86_reg(*rd), x86_reg(*base));
                match width {
                    crate::isa::MemWidth::Word => self.out.push(0x8B),
                    crate::isa::MemWidth::Byte => {
                        self.out.push(0x0F);
                        self.out.push(0xBE);
                    }
                    crate::isa::MemWidth::Short => {
                        self.out.push(0x0F);
                        self.out.push(0xBF);
                    }
                }
                self.mem_operand(x86_reg(*rd), x86_reg(*base), *off);
            }
            Inst::Store {
                width,
                rs,
                off,
                base,
            } => {
                if *width == crate::isa::MemWidth::Short {
                    self.out.push(0x66); // operand-size prefix
                }
                self.rex_rr(x86_reg(*rs), x86_reg(*base));
                self.out.push(match width {
                    crate::isa::MemWidth::Byte => 0x88,
                    _ => 0x89,
                });
                self.mem_operand(x86_reg(*rs), x86_reg(*base), *off);
            }
            Inst::Spill { rs, off } => {
                self.rex_rr(x86_reg(*rs), 4);
                self.out.push(0x89);
                self.mem_operand(x86_reg(*rs), 4, *off);
            }
            Inst::Reload { rd, off } => {
                self.rex_rr(x86_reg(*rd), 4);
                self.out.push(0x8B);
                self.mem_operand(x86_reg(*rd), 4, *off);
            }
            Inst::Enter { amount } | Inst::Exit { amount } => {
                // sub/add rsp, imm (REX.W 83/81 /5 or /0).
                self.out.push(0x48);
                if (-128..=127).contains(amount) {
                    self.out.push(0x83);
                    self.modrm(
                        0b11,
                        if matches!(inst, Inst::Enter { .. }) {
                            5
                        } else {
                            0
                        },
                        4,
                    );
                    self.out.push(*amount as u8);
                } else {
                    self.out.push(0x81);
                    self.modrm(
                        0b11,
                        if matches!(inst, Inst::Enter { .. }) {
                            5
                        } else {
                            0
                        },
                        4,
                    );
                    self.out.extend_from_slice(&amount.to_le_bytes());
                }
            }
            Inst::Branch { cond, rs, rt, .. } => {
                // cmp rs, rt; jcc rel32.
                self.alu_rr(0x39, x86_reg(*rt), x86_reg(*rs));
                self.out.push(0x0F);
                self.out.push(jcc_opcode(*cond));
                self.out.extend_from_slice(&[0, 0, 0, 0]);
            }
            Inst::BranchImm { cond, rs, imm, .. } => {
                self.rex_rr(0, x86_reg(*rs));
                if (-128..=127).contains(imm) {
                    self.out.push(0x83);
                    self.modrm(0b11, 7, x86_reg(*rs));
                    self.out.push(*imm as u8);
                } else {
                    self.out.push(0x81);
                    self.modrm(0b11, 7, x86_reg(*rs));
                    self.out.extend_from_slice(&imm.to_le_bytes());
                }
                self.out.push(0x0F);
                self.out.push(jcc_opcode(*cond));
                self.out.extend_from_slice(&[0, 0, 0, 0]);
            }
            Inst::Jump { .. } => {
                self.out.push(0xE9);
                self.out.extend_from_slice(&[0, 0, 0, 0]);
            }
            Inst::Call { .. } => {
                self.out.push(0xE8);
                self.out.extend_from_slice(&[0, 0, 0, 0]);
            }
            Inst::CallR { rs } => {
                self.rex_rr(2, x86_reg(*rs));
                self.out.push(0xFF);
                self.modrm(0b11, 2, x86_reg(*rs));
            }
            Inst::Rjr { rs } => {
                if *rs == Reg::RA {
                    self.out.push(0xC3); // ret
                } else {
                    self.rex_rr(4, x86_reg(*rs));
                    self.out.push(0xFF);
                    self.modrm(0b11, 4, x86_reg(*rs));
                }
            }
            Inst::Epi => {
                // leave; ret — the compact epilogue.
                self.out.push(0xC9);
                self.out.push(0xC3);
            }
            Inst::Bcopy { .. } => {
                // mov rsi/rdi/rcx setup + rep movsb ≈ 9 bytes.
                self.out
                    .extend_from_slice(&[0x89, 0xC6, 0x89, 0xC7, 0x89, 0xC1, 0xF3, 0xA4]);
            }
            Inst::Bzero { .. } => {
                // xor eax; rep stosb setup ≈ 8 bytes.
                self.out
                    .extend_from_slice(&[0x31, 0xC0, 0x89, 0xC7, 0x89, 0xC1, 0xF3, 0xAA]);
            }
            Inst::Nop => self.out.push(0x90),
        }
        self.out.len() - before
    }

    /// Emits a whole program; returns total bytes.
    pub fn emit_program(&mut self, program: &VmProgram) -> usize {
        let before = self.out.len();
        for f in &program.functions {
            for inst in &f.code {
                self.emit(inst);
            }
        }
        self.out.len() - before
    }
}

fn jcc_opcode(cond: Cond) -> u8 {
    match cond {
        Cond::Eq => 0x84,
        Cond::Ne => 0x85,
        Cond::Lt => 0x8C,
        Cond::Le => 0x8E,
        Cond::Gt => 0x8F,
        Cond::Ge => 0x8D,
        Cond::LtU => 0x82,
        Cond::LeU => 0x86,
        Cond::GtU => 0x87,
        Cond::GeU => 0x83,
    }
}

/// Size of one VM program under x86-64 encoding.
pub fn x86_size(program: &VmProgram) -> usize {
    let mut enc = X86Encoder::new();
    enc.emit_program(program)
}

/// Size under a SPARC-like fixed-width RISC encoding: 4 bytes per
/// instruction, with an extra 4-byte instruction whenever a constant
/// does not fit in 13 signed bits (`sethi`+`or`), and a two-instruction
/// call sequence kept at 8 bytes (call + delay-slot nop).
pub fn fixed_width_size(program: &VmProgram) -> usize {
    let mut size = 0usize;
    for f in &program.functions {
        for inst in &f.code {
            size += match inst {
                Inst::Li { imm, .. } => wide13(*imm, 4),
                Inst::AluImm { imm, .. } => wide13(*imm, 4),
                Inst::BranchImm { imm, .. } => wide13(*imm, 4) + 4, // cmp + branch
                Inst::Branch { .. } => 8,                           // cmp + branch
                Inst::Load { off, .. } | Inst::Store { off, .. } => wide13(*off, 4),
                Inst::Spill { off, .. } | Inst::Reload { off, .. } => wide13(*off, 4),
                Inst::Enter { amount } | Inst::Exit { amount } => wide13(*amount, 4),
                Inst::Call { .. } | Inst::CallR { .. } => 8, // call + delay slot
                Inst::Epi => 8,                              // restore + ret
                Inst::Bcopy { .. } | Inst::Bzero { .. } => 16, // short loop
                _ => 4,
            };
        }
    }
    size
}

fn wide13(v: i32, base: usize) -> usize {
    if (-4096..=4095).contains(&v) {
        base
    } else {
        base + 4
    }
}

/// Emits the fixed-width encoding as actual bytes (for gzip baselines):
/// each instruction becomes one or more 4-byte words with an opcode byte,
/// packed register fields, and immediate bits, in the layout
/// [`fixed_width_size`] charges for.
pub fn fixed_width_bytes(program: &VmProgram) -> Vec<u8> {
    fn word(out: &mut Vec<u8>, op: u8, a: u8, b: u8, c: u8) {
        out.extend_from_slice(&[op, a, b, c]);
    }
    let mut out = Vec::new();
    for f in &program.functions {
        for inst in &f.code {
            match inst {
                Inst::Li { rd, imm } => {
                    word(
                        &mut out,
                        0x01,
                        rd.number(),
                        (*imm & 0xFF) as u8,
                        ((*imm >> 8) & 0x1F) as u8,
                    );
                    if !(-4096..=4095).contains(imm) {
                        out.extend_from_slice(&imm.to_le_bytes());
                    }
                }
                Inst::Mov { rd, rs } => {
                    word(&mut out, 0x02, (rd.number() << 4) | rs.number(), 0, 0)
                }
                Inst::Alu { op, rd, rs, rt } => word(
                    &mut out,
                    0x10 + *op as u8,
                    (rd.number() << 4) | rs.number(),
                    rt.number(),
                    0,
                ),
                Inst::AluImm { op, rd, rs, imm } => {
                    word(
                        &mut out,
                        0x30 + *op as u8,
                        (rd.number() << 4) | rs.number(),
                        *imm as u8,
                        (*imm >> 8) as u8,
                    );
                    if !(-4096..=4095).contains(imm) {
                        out.extend_from_slice(&imm.to_le_bytes());
                    }
                }
                Inst::Neg { rd, rs } | Inst::Not { rd, rs } => {
                    word(&mut out, 0x03, (rd.number() << 4) | rs.number(), 0, 0)
                }
                Inst::Sext { rd, rs, .. } => {
                    word(&mut out, 0x04, (rd.number() << 4) | rs.number(), 0, 0)
                }
                Inst::Load { rd, off, base, .. }
                | Inst::Store {
                    rs: rd, off, base, ..
                } => {
                    word(
                        &mut out,
                        0x50,
                        (rd.number() << 4) | base.number(),
                        *off as u8,
                        (*off >> 8) as u8,
                    );
                    if !(-4096..=4095).contains(off) {
                        out.extend_from_slice(&off.to_le_bytes());
                    }
                }
                Inst::Spill { rs, off } => {
                    word(&mut out, 0x52, rs.number(), *off as u8, (*off >> 8) as u8);
                    if !(-4096..=4095).contains(off) {
                        out.extend_from_slice(&off.to_le_bytes());
                    }
                }
                Inst::Reload { rd, off } => {
                    word(&mut out, 0x53, rd.number(), *off as u8, (*off >> 8) as u8);
                    if !(-4096..=4095).contains(off) {
                        out.extend_from_slice(&off.to_le_bytes());
                    }
                }
                Inst::Enter { amount } | Inst::Exit { amount } => {
                    word(&mut out, 0x60, 0xEE, *amount as u8, (*amount >> 8) as u8);
                    if !(-4096..=4095).contains(amount) {
                        out.extend_from_slice(&amount.to_le_bytes());
                    }
                }
                Inst::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => {
                    word(
                        &mut out,
                        0x70 + *cond as u8,
                        (rs.number() << 4) | rt.number(),
                        0,
                        0,
                    );
                    word(&mut out, 0x7F, *target as u8, (*target >> 8) as u8, 0);
                }
                Inst::BranchImm {
                    cond,
                    rs,
                    imm,
                    target,
                } => {
                    word(
                        &mut out,
                        0x70 + *cond as u8,
                        rs.number(),
                        *imm as u8,
                        (*imm >> 8) as u8,
                    );
                    if !(-4096..=4095).contains(imm) {
                        out.extend_from_slice(&imm.to_le_bytes());
                    }
                    word(&mut out, 0x7F, *target as u8, (*target >> 8) as u8, 0);
                }
                Inst::Jump { target } => {
                    word(&mut out, 0x80, *target as u8, (*target >> 8) as u8, 0)
                }
                Inst::Call { .. } | Inst::CallR { .. } => {
                    word(&mut out, 0x81, 0, 0, 0);
                    word(&mut out, 0x00, 0, 0, 0); // delay slot
                }
                Inst::Rjr { rs } => word(&mut out, 0x82, rs.number(), 0, 0),
                Inst::Epi => {
                    word(&mut out, 0x83, 0, 0, 0);
                    word(&mut out, 0x82, Reg::RA.number(), 0, 0);
                }
                Inst::Bcopy { .. } | Inst::Bzero { .. } => {
                    for _ in 0..4 {
                        word(&mut out, 0x90, 0, 0, 0);
                    }
                }
                Inst::Nop => word(&mut out, 0x00, 0, 0, 0),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_inst;
    use crate::codegen::compile_module;
    use crate::isa::IsaConfig;
    use codecomp_front::compile;

    fn emit_one(text: &str) -> Vec<u8> {
        let mut enc = X86Encoder::new();
        enc.emit(&parse_inst(text, 1).unwrap());
        enc.into_bytes()
    }

    #[test]
    fn known_encodings() {
        // mov eax, 42 = B8 2A 00 00 00.
        assert_eq!(emit_one("li n0,42"), vec![0xB8, 0x2A, 0, 0, 0]);
        // mov ecx, eax (n1 <- n0) = 89 C1.
        assert_eq!(emit_one("mov.i n1,n0"), vec![0x89, 0xC1]);
        // add ecx, 1 = 83 C1 01.
        assert_eq!(emit_one("add.i n1,n1,1"), vec![0x83, 0xC1, 0x01]);
        // ret for rjr ra.
        assert_eq!(emit_one("rjr ra"), vec![0xC3]);
        // jmp rel32 = E9 + 4.
        assert_eq!(emit_one("j $L1").len(), 5);
        // enter sp,sp,24 -> sub rsp, 24 = 48 83 EC 18.
        assert_eq!(emit_one("enter sp,sp,24"), vec![0x48, 0x83, 0xEC, 0x18]);
    }

    #[test]
    fn load_uses_disp8_and_disp32() {
        let small = emit_one("ld.iw n0,4(n1)");
        let large = emit_one("ld.iw n0,1000(n1)");
        assert!(small.len() < large.len());
        // rsp base forces a SIB byte.
        let sp_based = emit_one("ld.iw n0,4(sp)");
        assert_eq!(sp_based, vec![0x8B, 0x44, 0x24, 0x04]);
    }

    #[test]
    fn x86_is_denser_than_fixed_width_on_real_code() {
        let ir = compile(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { int i; int s = 0; for (i = 0; i < 20; i++) s += fib(i % 8); return s; }",
        )
        .unwrap();
        let p = compile_module(&ir, IsaConfig::full()).unwrap();
        let x86 = x86_size(&p);
        let fixed = fixed_width_size(&p);
        assert!(x86 > 0 && fixed > 0);
        // CISC variable-width encoding is denser than fixed 4-byte RISC,
        // as the paper's x86-vs-SPARC baseline sizes show.
        assert!(
            x86 < fixed,
            "x86 {x86} should be smaller than fixed-width {fixed}"
        );
    }

    #[test]
    fn fixed_width_bytes_match_the_size_model() {
        let ir = compile(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main() { int i; int s = 0; for (i = 0; i < 20; i++) s += fib(i % 8); return s; }",
        )
        .unwrap();
        let p = compile_module(&ir, IsaConfig::full()).unwrap();
        assert_eq!(fixed_width_bytes(&p).len(), fixed_width_size(&p));
    }

    #[test]
    fn emission_is_deterministic() {
        let ir = compile("int main() { return 1 + 2; }").unwrap();
        let p = compile_module(&ir, IsaConfig::full()).unwrap();
        let a = X86Encoder::new().emit_program(&p);
        let b = X86Encoder::new().emit_program(&p);
        assert_eq!(a, b);
    }
}
