//! The operator-byte table of the plain prefix-order binary form.
//!
//! This is the *uncompressed* byte-coded tree form's alphabet: one byte
//! per operator, emitted in prefix order (paper §3: "each unique
//! instance of a particular tree is encoded as a sequence of bytes, one
//! per operator, emitted in prefix order; char literals are encoded as
//! individual bytes, short literals as pairs, etc."). The module format
//! built on it, `.ccir`, is `codecomp_core::bytesio::code_module`; the
//! wire format's pattern codec uses the same bytes. The wire-format
//! table's "uncompressed" column is the size of that format.

use crate::op::{IrType, Op, Opcode, Width};
use crate::IrError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// What a single operator byte denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpDesc {
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

/// The operator byte for an operator/width pair. The width matters
/// only for the offset-address operators.
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

/// The operator/width pair a byte denotes, the inverse of
/// [`byte_for_op`]; `None` for bytes past the table. The width is the
/// one `Tree::width` gives a node with that operator, so a constant's
/// follows its type.
pub fn op_for_byte(byte: u8) -> Option<(Op, Width)> {
    Some(match *op_table().0.get(usize::from(byte))? {
        OpDesc::Plain(Opcode::Cnst, ty) => (Op::new(Opcode::Cnst, ty), Width::for_constant(ty)),
        OpDesc::Plain(opcode, ty) => (Op::new(opcode, ty), Width::W32),
        OpDesc::Cvt(from, to) => (Op::cvt(from, to), Width::W32),
        OpDesc::Addr(opcode, w) => (Op::new(opcode, IrType::P), w),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_table_fits_a_byte_and_is_invertible() {
        for b in 0..=u8::MAX {
            if let Some((op, width)) = op_for_byte(b) {
                assert_eq!(byte_for_op(op, width).unwrap(), b);
            }
        }
    }
}
