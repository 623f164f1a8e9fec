//! Byte-level codecs shared by the wire and BRISC containers.
//!
//! A container format is written once, as a function generic over
//! [`Io`]: `Vec<u8>` implements it by writing each value, [`Cursor`]
//! by overwriting each value with what the bytes say. One definition
//! yields both directions, so the writer and the reader cannot drift
//! apart. The primitives are LEB128 varints, zigzag, length-prefixed
//! strings and byte strings, and the count-prefixed [`Io::seq`], which
//! is the only way a container reads a count.

use crate::{Budget, DecodeError};
use codecomp_ir::tree::Global;

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

/// One side of a reversible byte codec.
///
/// A codec is written once, as `fn code_x<I: Io>(io: &mut I, v: &mut
/// T)`. Writing (`Vec<u8>`) appends each value and leaves it as it
/// was; reading ([`Cursor`]) replaces each value, starting from its
/// `Default`, with what the bytes say. Reads fail with
/// [`DecodeError::Truncated`] when the input ends first,
/// [`DecodeError::Malformed`] when the bytes are there but invalid, and
/// [`DecodeError::LimitExceeded`] when a count trips the budget.
pub trait Io: Sized {
    /// Codes an unsigned varint.
    fn uvarint(&mut self, v: &mut u64) -> Result<(), DecodeError>;

    /// Codes a length-prefixed byte string.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError>;

    /// Codes a value as one byte: writing emits `to(v)`; reading
    /// replaces `v` with `from(byte)`, which rejects bytes that denote
    /// no value.
    fn tag<T, E: From<DecodeError>>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&T) -> Result<u8, E>,
        from: impl FnOnce(u8) -> Result<T, E>,
    ) -> Result<(), E>;

    /// Codes a count-prefixed sequence, each element with `each`.
    /// Reading charges the count to the budget (table entries and fuel)
    /// before reading any element, and caps preallocation by the bytes
    /// left, so a forged count can neither allocate beyond the input
    /// nor loop unmetered.
    fn seq<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E>;

    /// The budget reads are governed by; `None` when writing.
    fn budget(&self) -> Option<&Budget>;

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

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError> {
        put_uvarint(self, v.len() as u64);
        self.extend_from_slice(v);
        Ok(())
    }

    fn tag<T, E: From<DecodeError>>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(&T) -> Result<u8, E>,
        _: impl FnOnce(u8) -> Result<T, E>,
    ) -> Result<(), E> {
        self.push(to(v)?);
        Ok(())
    }

    fn seq<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E> {
        put_uvarint(self, v.len() as u64);
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

    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), DecodeError> {
        let len = self.read_usize()?;
        *v = self.take(len)?.to_vec();
        Ok(())
    }

    fn tag<T, E: From<DecodeError>>(
        &mut self,
        v: &mut T,
        _: impl FnOnce(&T) -> Result<u8, E>,
        from: impl FnOnce(u8) -> Result<T, E>,
    ) -> Result<(), E> {
        *v = from(self.take(1)?[0])?;
        Ok(())
    }

    fn seq<T: Default, E: From<DecodeError>>(
        &mut self,
        v: &mut Vec<T>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = self.read_usize()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeLimits;

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
}
