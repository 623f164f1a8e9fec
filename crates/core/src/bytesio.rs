//! Byte-level helpers shared by the wire and BRISC formats: LEB128
//! varints, zigzag, length-prefixed strings, and a bounds-checked
//! [`Cursor`] that reads them back.

use crate::DecodeError;

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

/// The zigzag mapping [`put_ivarint`] applies before the varint.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Appends a zigzag-encoded signed varint.
#[inline]
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Appends a length-prefixed UTF-8 string.
#[inline]
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a byte slice.
///
/// Every read fails with [`DecodeError::Truncated`] when the input ends
/// first and with [`DecodeError::Malformed`] when the bytes are there
/// but invalid: an overlong varint, a value outside the requested
/// integer type, or a string that is not UTF-8.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes remaining; bounds `with_capacity` pre-allocation so a
    /// forged count cannot request more memory than the input could
    /// possibly describe.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
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

    /// Reads an unsigned varint.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 63 && b > 1 {
                return Err(DecodeError::malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    #[inline]
    pub fn ivarint(&mut self) -> Result<i64, DecodeError> {
        let u = self.uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// Reads a varint declaring an in-memory count or length. A value
    /// above `usize::MAX` (possible on 32-bit hosts) is structurally
    /// corrupt, never silently truncated.
    #[inline]
    pub fn usize_varint(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.uvarint()?)
            .map_err(|_| DecodeError::malformed("declared length exceeds address space"))
    }

    /// Reads a varint whose value must fit 32 bits.
    #[inline]
    pub fn u32_varint(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.uvarint()?).map_err(|_| DecodeError::malformed("value exceeds 32 bits"))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.usize_varint()?;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DecodeError::malformed("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for &v in &values {
            assert_eq!(c.uvarint().unwrap(), v);
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
        for &v in &values {
            put_ivarint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf);
        for &v in &values {
            assert_eq!(c.ivarint().unwrap(), v);
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_ivarint(&mut buf, -50);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "pepper");
        put_string(&mut buf, "");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.string().unwrap(), "pepper");
        assert_eq!(c.string().unwrap(), "");
    }

    #[test]
    fn varint_lengths_match_the_writers() {
        let edges = [0i64, 1, -1, 63, -64, 64, -65, 8191, 8192];
        for v in edges.into_iter().chain([i64::from(i32::MIN), i64::MAX]) {
            let mut out = Vec::new();
            put_ivarint(&mut out, v);
            assert_eq!(uvarint_len(zigzag(v)), out.len(), "{v}");
        }
        let mut out = Vec::new();
        put_uvarint(&mut out, u64::MAX);
        assert_eq!(uvarint_len(u64::MAX), out.len());
    }

    #[test]
    fn oversized_declared_lengths_rejected() {
        // u32_varint refuses values past its range.
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, u64::from(u32::MAX) + 1);
        let r = Cursor::new(&bytes).u32_varint();
        assert!(matches!(r, Err(DecodeError::Malformed { .. })));
        // A huge string length must fail cleanly (truncation), not wrap.
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, u64::MAX / 2);
        bytes.push(b'x');
        assert!(Cursor::new(&bytes).string().is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 20);
        let mut c = Cursor::new(&buf[..1]);
        assert_eq!(c.uvarint(), Err(DecodeError::Truncated));
        let mut c = Cursor::new(&[]);
        assert_eq!(c.u8(), Err(DecodeError::Truncated));
        assert!(Cursor::new(&[5, b'a']).string().is_err());
    }
}
