//! Plain prefix-order binary encoding of modules.
//!
//! This is the *uncompressed* byte-coded tree form: one byte per
//! operator, emitted in prefix order, with literals in 1, 2, or 4-byte
//! fields (paper §3: "each unique instance of a particular tree is
//! encoded as a sequence of bytes, one per operator, emitted in prefix
//! order; char literals are encoded as individual bytes, short literals
//! as pairs, etc."). The wire-format table's "uncompressed" column is the
//! size of this encoding.

use crate::op::{IrType, Literal, Op, Opcode, Width};
use crate::tree::{Function, Global, Module, Tree};
use crate::IrError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// What a single operator byte denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpDesc {
    /// An ordinary typed operator.
    Plain(Opcode, IrType),
    /// A conversion `CV<from><to>`.
    Cvt(IrType, IrType),
    /// An offset-address operator with a width flag (`ADDRLP8` etc.).
    Addr(Opcode, Width),
}

fn op_table() -> &'static (Vec<OpDesc>, HashMap<OpDesc, u8>) {
    static TABLE: OnceLock<(Vec<OpDesc>, HashMap<OpDesc, u8>)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut list = Vec::new();
        for opcode in Opcode::ALL {
            match opcode {
                Opcode::Cvt => {
                    for from in [IrType::I, IrType::U, IrType::C, IrType::S, IrType::P] {
                        for to in [IrType::I, IrType::U, IrType::C, IrType::S, IrType::P] {
                            if from != to {
                                list.push(OpDesc::Cvt(from, to));
                            }
                        }
                    }
                }
                Opcode::AddrL | Opcode::AddrF => {
                    for w in [Width::W8, Width::W16, Width::W32] {
                        list.push(OpDesc::Addr(opcode, w));
                    }
                }
                _ => {
                    for ty in IrType::all() {
                        list.push(OpDesc::Plain(opcode, ty));
                    }
                }
            }
        }
        assert!(list.len() <= 256, "operator table must fit one byte");
        let index = list
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u8))
            .collect();
        (list, index)
    })
}

/// The operator byte for a tree node.
///
/// # Errors
///
/// [`IrError::Malformed`] for operator/type combinations outside the table.
pub fn op_byte(tree: &Tree) -> Result<u8, IrError> {
    byte_for_op(tree.op(), tree.width())
}

/// Looks a byte back up into its descriptor.
pub fn desc_for_byte(byte: u8) -> Option<OpDesc> {
    op_table().0.get(byte as usize).copied()
}

/// The operator byte for an operator/width pair (no tree required).
///
/// # Errors
///
/// [`IrError::Malformed`] for combinations outside the table.
pub fn byte_for_op(op: Op, width: Width) -> Result<u8, IrError> {
    let desc = match op.opcode {
        Opcode::Cvt => OpDesc::Cvt(
            op.from
                .ok_or_else(|| IrError::Malformed("CVT without source type".into()))?,
            op.ty,
        ),
        Opcode::AddrL | Opcode::AddrF => OpDesc::Addr(op.opcode, width),
        _ => OpDesc::Plain(op.opcode, op.ty),
    };
    op_table()
        .1
        .get(&desc)
        .copied()
        .ok_or_else(|| IrError::Malformed(format!("no operator byte for {}", op.mnemonic())))
}

/// The `(Op, Width)` pair a descriptor denotes.
pub fn desc_to_op(desc: OpDesc) -> (Op, Width) {
    match desc {
        OpDesc::Plain(opcode, ty) => (Op::new(opcode, ty), Width::W32),
        OpDesc::Cvt(from, to) => (Op::cvt(from, to), Width::W32),
        OpDesc::Addr(opcode, w) => (Op::new(opcode, IrType::P), w),
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A module-level symbol table mapping names to `u16` indices.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, u16>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its index.
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = u16::try_from(self.names.len()).expect("more than 65535 symbols");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Resolves an index back to a name.
    pub fn name(&self, index: u16) -> Option<&str> {
        self.names.get(usize::from(index)).map(String::as_str)
    }

    /// All interned names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Encodes one tree in prefix order, interning symbols in `symbols`.
///
/// # Errors
///
/// [`IrError::Malformed`] for un-encodable nodes (e.g. `RETV` with a child).
pub fn encode_tree(
    tree: &Tree,
    symbols: &mut SymbolTable,
    out: &mut Vec<u8>,
) -> Result<(), IrError> {
    out.push(op_byte(tree)?);
    if let Some(lit) = tree.literal() {
        match lit {
            Literal::Int(v) => match tree.op().ty {
                IrType::C => out.push(*v as u8),
                IrType::S => push_u16(out, *v as u16),
                _ => push_u32(out, *v as u32),
            },
            Literal::Offset(v) => match tree.width() {
                Width::W8 => out.push(*v as u8),
                Width::W16 => push_u16(out, *v as u16),
                Width::W32 => push_u32(out, *v as u32),
            },
            Literal::Label(l) => push_u16(
                out,
                u16::try_from(*l).map_err(|_| IrError::Malformed("label exceeds u16".into()))?,
            ),
            Literal::Symbol(s) => push_u16(out, symbols.intern(s)),
        }
    }
    if tree.kids().len() != tree.op().arity() {
        return Err(IrError::Malformed(
            "child count must match the operator (RETV: none, RET<t>: one)".into(),
        ));
    }
    for k in tree.kids() {
        encode_tree(k, symbols, out)?;
    }
    Ok(())
}

/// Encodes a whole module: header, symbol table, globals, functions.
///
/// # Errors
///
/// Propagates tree-encoding errors.
pub fn encode_module(module: &Module) -> Result<Vec<u8>, IrError> {
    let mut symbols = SymbolTable::new();
    // Encode bodies first so the symbol table is complete, then splice.
    let mut code = Vec::new();
    let mut functions = Vec::new();
    for f in &module.functions {
        let name_idx = symbols.intern(&f.name);
        let start = code.len();
        let mut stmt_count = 0u32;
        for stmt in &f.body {
            encode_tree(stmt, &mut symbols, &mut code)?;
            stmt_count += 1;
        }
        functions.push((
            name_idx,
            f.param_count as u16,
            f.frame_size,
            stmt_count,
            start,
            code.len(),
        ));
    }
    let mut globals = Vec::new();
    for g in &module.globals {
        globals.push((symbols.intern(&g.name), g.size, g.init.clone()));
    }

    let mut out = Vec::new();
    out.extend_from_slice(b"CCIR");
    push_u16(&mut out, symbols.names().len() as u16);
    for name in symbols.names() {
        push_u16(&mut out, name.len() as u16);
        out.extend_from_slice(name.as_bytes());
    }
    push_u16(&mut out, globals.len() as u16);
    for (idx, size, init) in &globals {
        push_u16(&mut out, *idx);
        push_u32(&mut out, *size);
        push_u32(&mut out, init.len() as u32);
        out.extend_from_slice(init);
    }
    push_u16(&mut out, functions.len() as u16);
    for &(name_idx, params, frame, stmts, start, end) in &functions {
        push_u16(&mut out, name_idx);
        push_u16(&mut out, params);
        push_u32(&mut out, frame);
        push_u32(&mut out, stmts);
        push_u32(&mut out, (end - start) as u32);
        out.extend_from_slice(&code[start..end]);
    }
    Ok(out)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, IrError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| IrError::Decode("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, IrError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, IrError> {
        Ok(u32::from_le_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IrError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| IrError::Decode("unexpected end of input".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

fn decode_tree(r: &mut Reader<'_>, symbols: &SymbolTable) -> Result<Tree, IrError> {
    let byte = r.u8()?;
    let desc = desc_for_byte(byte)
        .ok_or_else(|| IrError::Decode(format!("unknown operator byte {byte}")))?;
    let (op, width) = match desc {
        OpDesc::Plain(opcode, ty) => (Op::new(opcode, ty), Width::W32),
        OpDesc::Cvt(from, to) => (Op::cvt(from, to), Width::W32),
        OpDesc::Addr(opcode, w) => (Op::new(opcode, IrType::P), w),
    };
    let literal = match op.opcode.literal_kind() {
        crate::op::LiteralKind::None => None,
        crate::op::LiteralKind::Int => Some(Literal::Int(match op.ty {
            IrType::C => i64::from(r.u8()? as i8),
            IrType::S => i64::from(r.u16()? as i16),
            _ => i64::from(r.u32()? as i32),
        })),
        crate::op::LiteralKind::Offset => Some(Literal::Offset(match width {
            Width::W8 => i32::from(r.u8()? as i8),
            Width::W16 => i32::from(r.u16()? as i16),
            Width::W32 => r.u32()? as i32,
        })),
        crate::op::LiteralKind::Label => Some(Literal::Label(u32::from(r.u16()?))),
        crate::op::LiteralKind::Symbol => {
            let idx = r.u16()?;
            Some(Literal::Symbol(
                symbols
                    .name(idx)
                    .ok_or_else(|| IrError::Decode(format!("bad symbol index {idx}")))?
                    .to_string(),
            ))
        }
    };
    let arity = op.arity();
    let mut kids = Vec::with_capacity(arity);
    for _ in 0..arity {
        kids.push(decode_tree(r, symbols)?);
    }
    Tree::build(op, literal, kids).map_err(|e| IrError::Decode(e.to_string()))
}

/// Decodes a module produced by [`encode_module`].
///
/// # Errors
///
/// [`IrError::Decode`] on malformed input.
pub fn decode_module(bytes: &[u8]) -> Result<Module, IrError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != b"CCIR" {
        return Err(IrError::Decode("bad magic".into()));
    }
    let mut symbols = SymbolTable::new();
    let nsyms = r.u16()?;
    for _ in 0..nsyms {
        let len = r.u16()? as usize;
        let name = std::str::from_utf8(r.take(len)?)
            .map_err(|_| IrError::Decode("symbol name is not UTF-8".into()))?;
        symbols.intern(name);
    }
    let mut module = Module::new();
    let nglobals = r.u16()?;
    for _ in 0..nglobals {
        let idx = r.u16()?;
        let size = r.u32()?;
        let init_len = r.u32()? as usize;
        let init = r.take(init_len)?.to_vec();
        let name = symbols
            .name(idx)
            .ok_or_else(|| IrError::Decode("bad global symbol index".into()))?
            .to_string();
        module.globals.push(Global { name, size, init });
    }
    let nfuncs = r.u16()?;
    for _ in 0..nfuncs {
        let name_idx = r.u16()?;
        let params = r.u16()?;
        let frame = r.u32()?;
        let stmts = r.u32()?;
        let _code_len = r.u32()?;
        let name = symbols
            .name(name_idx)
            .ok_or_else(|| IrError::Decode("bad function symbol index".into()))?
            .to_string();
        let mut f = Function::new(name, params as usize, frame);
        for _ in 0..stmts {
            f.body.push(decode_tree(&mut r, &symbols)?);
        }
        module.functions.push(f);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{IrType, Opcode};
    use crate::tree::{Function, Global, Module, Tree};

    fn sample_module() -> Module {
        let mut f = Function::new("salt", 2, 24);
        f.body = vec![
            Tree::asgn(
                IrType::I,
                Tree::addr_local(72),
                Tree::sub(
                    IrType::I,
                    Tree::indir(IrType::I, Tree::addr_local(72)),
                    Tree::cnst(IrType::C, 1),
                ),
            ),
            Tree::branch(
                Opcode::Le,
                IrType::I,
                1,
                Tree::indir(IrType::I, Tree::addr_local(68)),
                Tree::cnst(IrType::C, 0),
            ),
            Tree::arg(IrType::I, Tree::indir(IrType::I, Tree::addr_local(72))),
            Tree::call(IrType::I, Tree::addr_global("pepper")),
            Tree::label(1),
            Tree::ret(IrType::I, Tree::indir(IrType::I, Tree::addr_local(68))),
        ];
        Module {
            globals: vec![Global {
                name: "buf".into(),
                size: 40,
                init: vec![1, 2, 3],
            }],
            functions: vec![f],
        }
    }

    #[test]
    fn op_table_fits_a_byte_and_is_invertible() {
        for b in 0..=u8::MAX {
            if let Some(desc) = desc_for_byte(b) {
                let (op, width) = desc_to_op(desc);
                assert_eq!(byte_for_op(op, width).unwrap(), b);
            }
        }
    }

    #[test]
    fn module_roundtrip() {
        let m = sample_module();
        let bytes = encode_module(&m).unwrap();
        let back = decode_module(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn char_literals_take_one_byte() {
        // CNSTC[1] = opcode byte + 1 literal byte.
        let size = |tree: &Tree| {
            let mut out = Vec::new();
            encode_tree(tree, &mut SymbolTable::new(), &mut out).unwrap();
            out.len()
        };
        assert_eq!(size(&Tree::cnst(IrType::C, 1)), 2);
        assert_eq!(size(&Tree::cnst(IrType::S, 300)), 3);
        assert_eq!(size(&Tree::cnst(IrType::I, 1_000_000)), 5);
        assert_eq!(size(&Tree::addr_local(72)), 2);
        assert_eq!(size(&Tree::addr_local(300)), 3);
    }

    #[test]
    fn negative_literals_roundtrip() {
        let m = Module {
            globals: vec![],
            functions: vec![{
                let mut f = Function::new("f", 0, 4);
                f.body = vec![
                    Tree::asgn(IrType::I, Tree::addr_local(-8), Tree::cnst(IrType::C, -5)),
                    Tree::asgn(IrType::S, Tree::addr_local(0), Tree::cnst(IrType::S, -300)),
                    Tree::asgn(
                        IrType::I,
                        Tree::addr_local(0),
                        Tree::cnst(IrType::I, -70_000),
                    ),
                    Tree::ret_void(),
                ];
                f
            }],
        };
        let bytes = encode_module(&m).unwrap();
        assert_eq!(decode_module(&bytes).unwrap(), m);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_module(b"").is_err());
        assert!(decode_module(b"XXXX").is_err());
        let m = sample_module();
        let bytes = encode_module(&m).unwrap();
        assert!(decode_module(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn retv_with_child_rejected() {
        let bad = Tree::build(
            Op::new(Opcode::Ret, IrType::V),
            None,
            vec![Tree::cnst_auto(1)],
        )
        .unwrap();
        let mut symbols = SymbolTable::new();
        let mut out = Vec::new();
        assert!(encode_tree(&bad, &mut symbols, &mut out).is_err());
    }
}
