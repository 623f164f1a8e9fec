//! Byte-level codecs: the wire, demand and BRISC containers, the
//! `.ccir` module format, and the pieces the VM instruction format
//! shares with it.
//!
//! A format is written once, as a function generic over [`Io`]:
//! `Vec<u8>` implements it by writing each value, [`Cursor`] by
//! overwriting each value with what the bytes say. One definition
//! yields both directions, so the writer and the reader cannot drift
//! apart. The primitives are LEB128 varints, fixed-width little-endian
//! integers, length-prefixed byte strings, the count-prefixed
//! [`Io::seq_by`], which is the only way a format reads a count, and
//! [`Io::iso`], which codes a value through a representation it maps
//! to and from.

use crate::{Budget, DecodeError};
use codecomp_ir::binary::{byte_for_op, op_for_byte};
use codecomp_ir::op::{Literal, LiteralKind, Op, Width};
use codecomp_ir::tree::{Global, Module, Tree};
use std::collections::HashMap;

/// Appends an unsigned LEB128 varint.
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_uvarint`] writes for `v`.
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// The zigzag mapping signed varints apply before the LEB128 step.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The largest value `width` bytes hold.
fn width_max(width: usize) -> u64 {
    debug_assert!((1..=8).contains(&width), "fixed width {width}");
    u64::MAX >> (64 - 8 * width)
}

/// One side of a reversible byte codec.
///
/// A codec is written once, as `fn code_x<I: Io>(io: &mut I, v: &mut
/// T)`. Writing (`Vec<u8>`) appends each value and leaves it as it
/// was; reading ([`Cursor`]) replaces each value, starting from its
/// `Default`, with what the bytes say. Reads fail with
/// [`DecodeError::Truncated`] when the input ends first,
/// [`DecodeError::Malformed`] when the bytes are there but invalid, and
/// [`DecodeError::LimitExceeded`] when a count trips the budget.
/// Writes fail, with [`DecodeError::LimitExceeded`], only when a value
/// does not fit its field.
pub trait Io: Sized {
    /// Codes an unsigned varint.
    fn uvarint(&mut self, v: &mut u64) -> Result<(), DecodeError>;

    /// Codes `v` as `width` little-endian bytes (1 to 8). Writing a
    /// value that does not fit `width` bytes is an error, never a
    /// truncation; reading rejects a value that does not fit `T`.
    fn fixed<T: Copy + TryInto<u64> + TryFrom<u64>>(
        &mut self,
        v: &mut T,
        width: usize,
    ) -> Result<(), DecodeError>;

    /// Codes a length-prefixed byte string.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError>;

    /// Codes `v` through a representation `B`: writing maps `v` with
    /// `to` and codes the result with `code_b`; reading codes a `B` and
    /// replaces `v` with `from` of it, which rejects whatever denotes
    /// no value. `to` and `from` are inverses, and only one of them
    /// runs.
    fn iso<T, B: Default, E>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&mut T) -> Result<B, E>,
        from: impl FnOnce(B) -> Result<T, E>,
        code_b: impl FnOnce(&mut Self, &mut B) -> Result<(), E>,
    ) -> Result<(), E>;

    /// Codes a sequence: its count with `count`, then each element with
    /// `each`. Reading charges the count to the budget (table entries
    /// and fuel) before reading any element, and caps preallocation by
    /// the bytes left, so a forged count can neither allocate beyond
    /// the input nor loop unmetered.
    fn seq_by<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        count: impl FnOnce(&mut Self, &mut usize) -> Result<(), DecodeError>,
        each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E>;

    /// The budget reads are governed by; `None` when writing.
    fn budget(&self) -> Option<&Budget>;

    /// [`Io::seq_by`] with a varint count.
    fn seq<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E> {
        self.seq_by(v, Self::usize, each)
    }

    /// Codes a value as one byte: [`Io::iso`] through a `u8`.
    fn tag<T, E: From<DecodeError>>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&T) -> Result<u8, E>,
        from: impl FnOnce(u8) -> Result<T, E>,
    ) -> Result<(), E> {
        self.iso(v, |v| to(v), from, |io, b| Ok(io.fixed(b, 1)?))
    }

    /// Codes a signed value as `width` little-endian bytes of two's
    /// complement, with [`Io::fixed`]'s checks.
    fn ifixed<T: Copy + Into<i64> + TryFrom<i64>>(
        &mut self,
        v: &mut T,
        width: usize,
    ) -> Result<(), DecodeError> {
        let max = width_max(width);
        let shift = 64 - 8 * width as u32;
        let extend = move |u: u64| ((u << shift) as i64) >> shift;
        self.iso(
            v,
            |v| {
                let i: i64 = (*v).into();
                let u = i as u64 & max;
                if extend(u) == i {
                    Ok(u)
                } else {
                    Err(DecodeError::limit(
                        format!("{width}-byte signed field"),
                        max >> 1,
                    ))
                }
            },
            |u| {
                T::try_from(extend(u)).map_err(|_| DecodeError::malformed("value exceeds its type"))
            },
            |io, u| io.fixed(u, width),
        )
    }

    /// Codes a fixed format tag: writes it, or checks it.
    fn magic(&mut self, magic: &[u8; 4]) -> Result<(), DecodeError> {
        for &m in magic {
            let ok = |b| {
                (b == m)
                    .then_some(())
                    .ok_or_else(|| DecodeError::malformed("bad magic"))
            };
            self.tag(&mut (), |_| Ok(m), ok)?;
        }
        Ok(())
    }

    /// Codes a zigzag-encoded signed varint.
    fn ivarint(&mut self, v: &mut i64) -> Result<(), DecodeError> {
        let mut u = zigzag(*v);
        self.uvarint(&mut u)?;
        *v = ((u >> 1) as i64) ^ -((u & 1) as i64);
        Ok(())
    }

    /// Codes a varint whose value must fit 32 bits.
    fn u32(&mut self, v: &mut u32) -> Result<(), DecodeError> {
        let mut u = u64::from(*v);
        self.uvarint(&mut u)?;
        *v = u32::try_from(u).map_err(|_| DecodeError::malformed("value exceeds 32 bits"))?;
        Ok(())
    }

    /// Codes a signed varint whose value must fit 32 bits.
    fn i32(&mut self, v: &mut i32) -> Result<(), DecodeError> {
        let mut i = i64::from(*v);
        self.ivarint(&mut i)?;
        *v = i32::try_from(i).map_err(|_| DecodeError::malformed("value exceeds 32 bits"))?;
        Ok(())
    }

    /// Codes a varint declaring an in-memory size; one past `usize`
    /// (possible on 32-bit hosts) is malformed, never truncated.
    fn usize(&mut self, v: &mut usize) -> Result<(), DecodeError> {
        let mut u = *v as u64;
        self.uvarint(&mut u)?;
        *v = usize::try_from(u).map_err(|_| DecodeError::malformed("value exceeds usize"))?;
        Ok(())
    }

    /// Codes a length-prefixed UTF-8 string.
    fn string(&mut self, v: &mut String) -> Result<(), DecodeError> {
        let mut b = std::mem::take(v).into_bytes();
        self.bytes(&mut b)?;
        *v = String::from_utf8(b).map_err(|_| DecodeError::malformed("string is not UTF-8"))?;
        Ok(())
    }
}

impl Io for Vec<u8> {
    fn uvarint(&mut self, v: &mut u64) -> Result<(), DecodeError> {
        put_uvarint(self, *v);
        Ok(())
    }

    fn fixed<T: Copy + TryInto<u64> + TryFrom<u64>>(
        &mut self,
        v: &mut T,
        width: usize,
    ) -> Result<(), DecodeError> {
        let max = width_max(width);
        let u = (*v)
            .try_into()
            .ok()
            .filter(|&u| u <= max)
            .ok_or_else(|| DecodeError::limit(format!("{width}-byte field"), max))?;
        self.extend_from_slice(&u.to_le_bytes()[..width]);
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError> {
        put_uvarint(self, v.len() as u64);
        self.extend_from_slice(v);
        Ok(())
    }

    fn iso<T, B: Default, E>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&mut T) -> Result<B, E>,
        _: impl FnOnce(B) -> Result<T, E>,
        code_b: impl FnOnce(&mut Self, &mut B) -> Result<(), E>,
    ) -> Result<(), E> {
        code_b(self, &mut to(v)?)
    }

    fn seq_by<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        count: impl FnOnce(&mut Self, &mut usize) -> Result<(), DecodeError>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E> {
        count(self, &mut v.len())?;
        v.iter_mut().try_for_each(|t| each(self, t))
    }

    fn budget(&self) -> Option<&Budget> {
        None
    }
}

/// The reading side of [`Io`]: a cursor over a byte slice, governed by
/// a [`Budget`]. Its inherent reads serve the hand-written stream
/// decoders that share a buffer with a codec.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    budget: &'a Budget,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8], budget: &'a Budget) -> Self {
        Self {
            bytes,
            pos: 0,
            budget,
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(DecodeError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a varint declaring an in-memory size ([`Io::usize`]).
    #[inline]
    pub fn read_usize(&mut self) -> Result<usize, DecodeError> {
        let mut n = 0;
        self.usize(&mut n)?;
        Ok(n)
    }
}

impl Io for Cursor<'_> {
    fn uvarint(&mut self, v: &mut u64) -> Result<(), DecodeError> {
        *v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.take(1)?[0];
            if shift == 63 && b > 1 {
                break;
            }
            *v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(());
            }
        }
        Err(DecodeError::malformed("varint overflow"))
    }

    fn fixed<T: Copy + TryInto<u64> + TryFrom<u64>>(
        &mut self,
        v: &mut T,
        width: usize,
    ) -> Result<(), DecodeError> {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(self.take(width)?);
        *v = T::try_from(u64::from_le_bytes(le))
            .map_err(|_| DecodeError::malformed("value exceeds its type"))?;
        Ok(())
    }

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError> {
        let len = self.read_usize()?;
        *v = self.take(len)?.to_vec();
        Ok(())
    }

    fn iso<T, B: Default, E>(
        &mut self,
        v: &mut T,
        _: impl FnOnce(&mut T) -> Result<B, E>,
        from: impl FnOnce(B) -> Result<T, E>,
        code_b: impl FnOnce(&mut Self, &mut B) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut b = B::default();
        code_b(self, &mut b)?;
        *v = from(b)?;
        Ok(())
    }

    fn seq_by<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        count: impl FnOnce(&mut Self, &mut usize) -> Result<(), DecodeError>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut n = 0;
        count(self, &mut n)?;
        self.budget.check_table_entries(n as u64)?;
        self.budget.charge_fuel(n as u64)?;
        // Every element takes at least one byte.
        *v = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            let mut t = T::default();
            each(self, &mut t)?;
            v.push(t);
        }
        Ok(())
    }

    fn budget(&self) -> Option<&Budget> {
        Some(self.budget)
    }
}

/// The globals-table entry every container shares: name, size, and
/// initializer bytes.
pub fn code_global<I: Io>(io: &mut I, g: &mut Global) -> Result<(), DecodeError> {
    io.string(&mut g.name)?;
    io.u32(&mut g.size)?;
    io.bytes(&mut g.init)
}

/// An IR node's head, `(operator, width, child count)`, as one
/// operator byte ([`codecomp_ir::binary`]). The byte implies the child
/// count, so the count is not coded: writing checks that the node has
/// the children its operator takes (`RETV` none, `RET<t>` one), and
/// reading takes the count from the operator.
pub fn code_node<I: Io>(io: &mut I, node: &mut (Op, Width, usize)) -> Result<(), DecodeError> {
    io.tag(
        node,
        |&(op, width, kids)| {
            if kids != op.arity() {
                let what = format!("{} with {kids} children", op.mnemonic());
                return Err(DecodeError::malformed(what));
            }
            Ok(byte_for_op(op, width)?)
        },
        |byte| {
            let (op, width) = op_for_byte(byte)
                .ok_or_else(|| DecodeError::malformed(format!("unknown operator byte {byte}")))?;
            Ok((op, width, op.arity()))
        },
    )
}

/// Names in first-use order, each coded as a 2-byte index: the symbol
/// table of the `.ccir` format and of the VM instruction format.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl SymbolTable {
    /// Adds `name` unless it is already present.
    pub fn intern(&mut self, name: &str) {
        if !self.index.contains_key(name) {
            self.index.insert(name.to_string(), self.names.len());
            self.names.push(name.to_string());
        }
    }

    /// Codes a reference to a name in the table as its 2-byte index.
    ///
    /// # Errors
    ///
    /// Writing a name not in the table, or whose index passes 65535;
    /// reading an index past the table.
    pub fn code_ref<I: Io>(&self, io: &mut I, name: &mut String) -> Result<(), DecodeError> {
        io.iso(
            name,
            |name| {
                self.index.get(name.as_str()).copied().ok_or_else(|| {
                    DecodeError::malformed(format!("{name} is not in the symbol table"))
                })
            },
            |i: usize| {
                self.names
                    .get(i)
                    .cloned()
                    .ok_or_else(|| DecodeError::malformed(format!("bad symbol index {i}")))
            },
            |io, i| io.fixed(i, 2),
        )
    }
}

/// Codes a byte string as its length in `width` bytes, then its bytes.
fn code_byte_string<I: Io>(io: &mut I, v: &mut Vec<u8>, width: usize) -> Result<(), DecodeError> {
    io.seq_by(v, |io, n| io.fixed(n, width), |io, b| io.fixed(b, 1))
}

/// The `.ccir` module format: the plain prefix-order byte form, whose
/// size is the "uncompressed" column of the paper's wire table.
///
/// `"CCIR"`; the symbol table (a 2-byte count, then each name as a
/// 2-byte length and UTF-8 bytes); the globals (a 2-byte count, then
/// each one's 2-byte name index, 4-byte size and 4-byte-length
/// initializer); the functions (a 2-byte count, then each one's 2-byte
/// name index, 2-byte parameter count, 4-byte frame size, 4-byte
/// statement count, and its body as a 4-byte length and the trees).
/// All integers are little-endian.
pub fn code_module<I: Io>(io: &mut I, module: &mut Module) -> Result<(), DecodeError> {
    io.magic(b"CCIR")?;
    // Writing interns every name the module uses, in first-use order;
    // reading starts from the empty module's empty table and reads it.
    let mut symbols = SymbolTable::default();
    for f in &module.functions {
        symbols.intern(&f.name);
        for stmt in &f.body {
            stmt.walk(&mut |node| {
                if let Some(Literal::Symbol(name)) = node.literal() {
                    symbols.intern(name);
                }
            });
        }
    }
    for g in &module.globals {
        symbols.intern(&g.name);
    }
    io.seq_by(
        &mut symbols.names,
        |io, n| io.fixed(n, 2),
        |io, name| {
            let mut b = std::mem::take(name).into_bytes();
            code_byte_string(io, &mut b, 2)?;
            *name =
                String::from_utf8(b).map_err(|_| DecodeError::malformed("name is not UTF-8"))?;
            Ok::<_, DecodeError>(())
        },
    )?;
    io.seq_by(
        &mut module.globals,
        |io, n| io.fixed(n, 2),
        |io, g| {
            symbols.code_ref(io, &mut g.name)?;
            io.fixed(&mut g.size, 4)?;
            code_byte_string(io, &mut g.init, 4)
        },
    )?;
    // `from` reads a body under the module's budget; it runs only when
    // reading, so the default is never used.
    let budget = io.budget().cloned().unwrap_or_default();
    io.seq_by(
        &mut module.functions,
        |io, n| io.fixed(n, 2),
        |io, f| {
            symbols.code_ref(io, &mut f.name)?;
            io.fixed(&mut f.param_count, 2)?;
            io.fixed(&mut f.frame_size, 4)?;
            // The body is coded into its own buffer so that its length
            // can lead it.
            io.iso(
                &mut f.body,
                |body| {
                    let mut code = Vec::new();
                    for stmt in body.iter_mut() {
                        code_tree(&mut code, stmt, &symbols, 0)?;
                    }
                    Ok((body.len(), code))
                },
                |(stmts, code)| {
                    let c = &mut Cursor::new(&code, &budget);
                    let mut body = Vec::new();
                    for _ in 0..stmts {
                        let mut stmt = Tree::ret_void();
                        code_tree(c, &mut stmt, &symbols, 0)?;
                        body.push(stmt);
                    }
                    if c.remaining() != 0 {
                        return Err(DecodeError::malformed(
                            "body length disagrees with its trees",
                        ));
                    }
                    Ok(body)
                },
                |io, (stmts, code)| {
                    io.fixed(stmts, 4)?;
                    code_byte_string(io, code, 4)
                },
            )
        },
    )
}

/// One tree in prefix order: its node's operator byte, its literal in
/// the node's width (a label or symbol index in two bytes), then its
/// children.
fn code_tree<I: Io>(
    io: &mut I,
    tree: &mut Tree,
    symbols: &SymbolTable,
    depth: u32,
) -> Result<(), DecodeError> {
    // Bounds stack use against deeply nested input, as the wire
    // pattern codec does.
    if let Some(budget) = io.budget() {
        budget.check_pattern_depth(depth)?;
    }
    let mut node = (tree.op(), tree.width(), tree.kids().len());
    code_node(io, &mut node)?;
    let (op, width, arity) = node;
    let (_, literal, mut kids) = std::mem::replace(tree, Tree::ret_void()).into_parts();
    // Reading starts from a zero literal of the operator's kind.
    let mut literal = literal.or(match op.opcode.literal_kind() {
        LiteralKind::None => None,
        LiteralKind::Int => Some(Literal::Int(0)),
        LiteralKind::Offset => Some(Literal::Offset(0)),
        LiteralKind::Label => Some(Literal::Label(0)),
        LiteralKind::Symbol => Some(Literal::Symbol(String::new())),
    });
    let bytes = width.bytes() as usize;
    match &mut literal {
        None => {}
        Some(Literal::Int(v)) => io.ifixed(v, bytes)?,
        Some(Literal::Offset(v)) => io.ifixed(v, bytes)?,
        Some(Literal::Label(l)) => io.fixed(l, 2)?,
        Some(Literal::Symbol(name)) => symbols.code_ref(io, name)?,
    }
    kids.resize_with(arity, Tree::ret_void);
    for kid in &mut kids {
        code_tree(io, kid, symbols, depth + 1)?;
    }
    *tree = Tree::build(op, literal, kids)?;
    Ok(())
}

/// Encodes a module in the `.ccir` format ([`code_module`]).
///
/// # Errors
///
/// A tree outside the operator table, or a count, length or literal
/// that does not fit its field.
pub fn encode_module(module: &Module) -> Result<Vec<u8>, DecodeError> {
    let mut out = Vec::new();
    code_module(&mut out, &mut module.clone())?;
    Ok(out)
}

/// Decodes a `.ccir` module under the default [`Budget`].
///
/// # Errors
///
/// [`DecodeError`] on malformed, truncated or over-budget input, or
/// bytes after the last function.
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let budget = Budget::default();
    let mut c = Cursor::new(bytes, &budget);
    let mut module = Module::default();
    code_module(&mut c, &mut module)?;
    if c.remaining() != 0 {
        return Err(DecodeError::malformed(
            "trailing bytes after the last function",
        ));
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeLimits;
    use codecomp_ir::op::{IrType, Opcode};
    use codecomp_ir::tree::Function;

    fn written<T>(mut v: T, code: impl Fn(&mut Vec<u8>, &mut T)) -> Vec<u8> {
        let mut out = Vec::new();
        code(&mut out, &mut v);
        out
    }

    #[test]
    fn uvarint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for mut v in values {
            buf.uvarint(&mut v).unwrap();
        }
        let budget = Budget::default();
        let mut c = Cursor::new(&buf, &budget);
        for v in values {
            let mut back = 0;
            c.uvarint(&mut back).unwrap();
            assert_eq!(back, v);
        }
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn ivarint_roundtrip() {
        let values = [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            300,
            -300,
            i32::MAX as i64,
            i64::MIN,
        ];
        let mut buf = Vec::new();
        for mut v in values {
            buf.ivarint(&mut v).unwrap();
        }
        let budget = Budget::default();
        let mut c = Cursor::new(&buf, &budget);
        for v in values {
            let mut back = 0;
            c.ivarint(&mut back).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        assert_eq!(written(100u64, |o, v| o.uvarint(v).unwrap()).len(), 1);
        assert_eq!(written(-50i64, |o, v| o.ivarint(v).unwrap()).len(), 1);
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        buf.string(&mut "pepper".to_string()).unwrap();
        buf.string(&mut String::new()).unwrap();
        let budget = Budget::default();
        let mut c = Cursor::new(&buf, &budget);
        let mut s = String::new();
        c.string(&mut s).unwrap();
        assert_eq!(s, "pepper");
        c.string(&mut s).unwrap();
        assert_eq!(s, "");
    }

    #[test]
    fn varint_lengths_match_the_writers() {
        let edges = [0i64, 1, -1, 63, -64, 64, -65, 8191, 8192];
        for v in edges.into_iter().chain([i64::from(i32::MIN), i64::MAX]) {
            let out = written(v, |o, v| o.ivarint(v).unwrap());
            assert_eq!(uvarint_len(zigzag(v)), out.len(), "{v}");
        }
        let out = written(u64::MAX, |o, v| o.uvarint(v).unwrap());
        assert_eq!(uvarint_len(u64::MAX), out.len());
    }

    #[test]
    fn oversized_declared_lengths_rejected() {
        let budget = Budget::default();
        // u32 refuses values past its range.
        let bytes = written(u64::from(u32::MAX) + 1, |o, v| o.uvarint(v).unwrap());
        let r = Cursor::new(&bytes, &budget).u32(&mut 0);
        assert!(matches!(r, Err(DecodeError::Malformed { .. })));
        // A huge string length must fail cleanly (truncation), not wrap.
        let mut bytes = written(u64::MAX / 2, |o, v| o.uvarint(v).unwrap());
        bytes.push(b'x');
        assert!(Cursor::new(&bytes, &budget)
            .string(&mut String::new())
            .is_err());
    }

    #[test]
    fn truncation_detected() {
        let budget = Budget::default();
        let buf = written(1u64 << 20, |o, v| o.uvarint(v).unwrap());
        let mut c = Cursor::new(&buf[..1], &budget);
        assert_eq!(c.uvarint(&mut 0), Err(DecodeError::Truncated));
        let mut c = Cursor::new(&[], &budget);
        assert_eq!(c.magic(b"CCWF"), Err(DecodeError::Truncated));
        assert!(Cursor::new(&[5, b'a'], &budget)
            .string(&mut String::new())
            .is_err());
    }

    #[test]
    fn seq_counts_are_charged_to_the_budget() {
        let table = vec![1u32, 2, 3];
        let bytes = written(table.clone(), |o, t| o.seq(t, |o, e| o.u32(e)).unwrap());
        let budget = Budget::default();
        let mut back: Vec<u32> = Vec::new();
        Cursor::new(&bytes, &budget)
            .seq(&mut back, |c, e| c.u32(e))
            .unwrap();
        assert_eq!(back, table);
        assert_eq!(budget.usage().fuel_spent, 3);
        assert_eq!(budget.usage().peak_table_entries, 3);
        let starved = Budget::new(DecodeLimits {
            max_table_entries: 2,
            ..DecodeLimits::default()
        });
        let r = Cursor::new(&bytes, &starved).seq(&mut back, |c, e| c.u32(e));
        assert!(matches!(r, Err(DecodeError::LimitExceeded { .. })));
    }

    #[test]
    fn magic_and_tags_are_checked_when_read() {
        let budget = Budget::default();
        assert_eq!(
            Cursor::new(b"CCXX", &budget).magic(b"CCWF"),
            Err(DecodeError::malformed("bad magic"))
        );
        let from = |b: u8| {
            if b < 2 {
                Ok(b == 1)
            } else {
                Err(DecodeError::malformed("bad flag"))
            }
        };
        let mut flag = false;
        Cursor::new(&[1], &budget)
            .tag(&mut flag, |&f| Ok(u8::from(f)), from)
            .unwrap();
        assert!(flag);
        assert!(Cursor::new(&[2], &budget)
            .tag(&mut flag, |&f| Ok(u8::from(f)), from)
            .is_err());
    }

    #[test]
    fn fixed_widths_are_checked_both_ways() {
        let budget = Budget::default();
        assert_eq!(
            written(0x1234u16, |o, v| o.fixed(v, 2).unwrap()),
            [0x34, 0x12]
        );
        assert_eq!(written(-2i32, |o, v| o.ifixed(v, 2).unwrap()), [0xFE, 0xFF]);
        // Writing never truncates.
        assert!(matches!(
            Vec::new().fixed(&mut 70_000usize, 2),
            Err(DecodeError::LimitExceeded { .. })
        ));
        assert!(Vec::new().ifixed(&mut 128i64, 1).is_err());
        assert!(Vec::new().ifixed(&mut -129i64, 1).is_err());
        // Reading sign-extends, and refuses what the target type cannot hold.
        let mut v = 0i64;
        Cursor::new(&[0x80], &budget).ifixed(&mut v, 1).unwrap();
        assert_eq!(v, -128);
        let r = Cursor::new(&[0x2C, 0x01], &budget).fixed(&mut 0u8, 2);
        assert!(matches!(r, Err(DecodeError::Malformed { .. })));
        assert_eq!(
            Cursor::new(&[1], &budget).fixed(&mut 0u16, 2),
            Err(DecodeError::Truncated)
        );
    }

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

    /// A one-function module whose body is `body`.
    fn with_body(body: Vec<Tree>) -> Module {
        let mut f = Function::new("f", 0, 4);
        f.body = body;
        Module {
            globals: Vec::new(),
            functions: vec![f],
        }
    }

    #[test]
    fn module_roundtrip() {
        let m = sample_module();
        assert_eq!(decode_module(&encode_module(&m).unwrap()).unwrap(), m);
    }

    #[test]
    fn literals_take_their_node_width() {
        // One statement `ASGNI(ADDRLP8[0], <literal>)`: two operator
        // bytes and the one-byte offset, then the literal node.
        let size = |lit: Tree| {
            let stmt = Tree::asgn(IrType::I, Tree::addr_local(0), lit);
            encode_module(&with_body(vec![stmt])).unwrap().len()
        };
        let base = encode_module(&with_body(Vec::new())).unwrap().len() + 3;
        assert_eq!(size(Tree::cnst(IrType::C, 1)), base + 2);
        assert_eq!(size(Tree::cnst(IrType::S, 300)), base + 3);
        assert_eq!(size(Tree::cnst(IrType::I, 1_000_000)), base + 5);
        assert_eq!(size(Tree::addr_local(72)), base + 2);
        assert_eq!(size(Tree::addr_local(300)), base + 3);
    }

    #[test]
    fn negative_literals_roundtrip() {
        let m = with_body(vec![
            Tree::asgn(IrType::I, Tree::addr_local(-8), Tree::cnst(IrType::C, -5)),
            Tree::asgn(IrType::S, Tree::addr_local(0), Tree::cnst(IrType::S, -300)),
            Tree::asgn(
                IrType::I,
                Tree::addr_local(0),
                Tree::cnst(IrType::I, -70_000),
            ),
            Tree::ret_void(),
        ]);
        assert_eq!(decode_module(&encode_module(&m).unwrap()).unwrap(), m);
    }

    #[test]
    fn literals_wider_than_their_node_are_not_encoded() {
        let m = with_body(vec![Tree::asgn(
            IrType::C,
            Tree::addr_local(0),
            Tree::cnst(IrType::C, 200),
        )]);
        assert!(encode_module(&m).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_module(b"").is_err());
        assert!(decode_module(b"XXXX").is_err());
        let bytes = encode_module(&sample_module()).unwrap();
        assert!(decode_module(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_module(&trailing).is_err());
        // A body length that disagrees with the trees it frames.
        let m = with_body(vec![Tree::ret_void()]);
        let mut bytes = encode_module(&m).unwrap();
        let at = bytes.len() - 1 - 4;
        bytes[at] += 1;
        bytes.push(0);
        assert!(decode_module(&bytes).is_err());
    }

    #[test]
    fn retv_with_child_rejected() {
        let bad = Tree::build(
            Op::new(Opcode::Ret, IrType::V),
            None,
            vec![Tree::cnst_auto(1)],
        )
        .unwrap();
        assert!(encode_module(&with_body(vec![bad])).is_err());
    }
}
