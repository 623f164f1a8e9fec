//! Bit-granular readers and writers.
//!
//! Two bit orders are provided because the two consumers in this
//! workspace disagree: canonical Huffman streams in the wire format are
//! written MSB-first ([`BitWriter`]/[`BitReader`]), while DEFLATE
//! mandates LSB-first packing ([`LsbBitWriter`]; inflate reads with its
//! own bit reservoir).

use crate::CodingError;

/// Writes bits into a byte buffer, most-significant bit first.
///
/// # Examples
///
/// ```
/// use codecomp_coding::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bit(true);
/// let bytes = w.finish();
/// assert_eq!(bytes, vec![0b1011_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits accumulated in `acc`, aligned to the high end.
    acc: u8,
    used: u8,
    total_bits: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.acc = (self.acc << 1) | u8::from(bit);
        self.used += 1;
        self.total_bits += 1;
        if self.used == 8 {
            self.bytes.push(self.acc);
            self.acc = 0;
            self.used = 0;
        }
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        for i in (0..count).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.total_bits
    }

    /// Pads the final partial byte with zero bits and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.acc <<= 8 - self.used;
            self.bytes.push(self.acc);
        }
        self.bytes
    }
}

/// Reads bits from a byte slice, most-significant bit first.
///
/// # Examples
///
/// ```
/// use codecomp_coding::bits::BitReader;
///
/// let mut r = BitReader::new(&[0b1011_0000]);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert!(r.read_bit()?);
/// # Ok::<(), codecomp_coding::CodingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit index within `bytes`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::UnexpectedEof`] when the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, CodingError> {
        let byte = self
            .bytes
            .get((self.pos / 8) as usize)
            .ok_or(CodingError::UnexpectedEof)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `count` bits, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::UnexpectedEof`] when fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    ///
    /// On end of stream every remaining bit is consumed, as if they had
    /// been read one at a time with [`Self::read_bit`].
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u64, CodingError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let total = self.bytes.len() as u64 * 8;
        if u64::from(count) > total - self.pos {
            self.pos = total;
            return Err(CodingError::UnexpectedEof);
        }
        if count > 56 {
            // Wider than one window reaches: the high part, then 32 bits.
            let high = self.read_bits(count - 32)?;
            return Ok(high << 32 | self.read_bits(32)?);
        }
        if count == 0 {
            return Ok(0);
        }
        // One big-endian 64-bit window from the byte holding the next
        // bit (zero-padded past the end): the up to 7 bits of it already
        // consumed, then at least 57 more.
        let tail = &self.bytes[(self.pos / 8) as usize..];
        let word = match tail.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut chunk = [0u8; 8];
                chunk[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(chunk)
            }
        };
        let value = (word << (self.pos % 8)) >> (64 - u32::from(count));
        self.pos += u64::from(count);
        Ok(value)
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining in the underlying slice (including padding bits).
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }
}

/// Writes bits LSB-first within each byte, as required by DEFLATE.
///
/// Multi-bit values are written least-significant bit first, matching
/// RFC 1951's packing of "non-Huffman" fields; Huffman codes must be fed
/// to [`LsbBitWriter::write_huffman_code`] which reverses them.
#[derive(Debug, Clone, Default)]
pub struct LsbBitWriter {
    bytes: Vec<u8>,
    /// 64-bit accumulator: `used` is always < 8 after a push, so a full
    /// 32-bit value shifted by at most 7 still fits.
    acc: u64,
    used: u8,
}

impl LsbBitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `value`, least significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        if count == 0 {
            return;
        }
        self.acc |= (u64::from(value) & ((1u64 << count) - 1)) << self.used;
        self.used += count;
        while self.used >= 8 {
            self.bytes.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.used -= 8;
        }
    }

    /// Appends a Huffman code of `len` bits: DEFLATE stores Huffman codes
    /// with their first (most significant) bit in the lowest position, so
    /// the code is bit-reversed before packing.
    pub fn write_huffman_code(&mut self, code: u32, len: u8) {
        let mut reversed = 0u32;
        for i in 0..len {
            if (code >> i) & 1 == 1 {
                reversed |= 1 << (len - 1 - i);
            }
        }
        self.write_bits(reversed, len);
    }

    /// Pads to a byte boundary with zero bits.
    pub fn align_to_byte(&mut self) {
        if self.used > 0 {
            self.bytes.push((self.acc & 0xFF) as u8);
            self.acc = 0;
            self.used = 0;
        }
    }

    /// Appends a whole byte (the stream must currently be byte-aligned
    /// only if exact layout matters; bits are packed continuously).
    pub fn write_aligned_bytes(&mut self, data: &[u8]) {
        self.align_to_byte();
        self.bytes.extend_from_slice(data);
    }

    /// Pads the final byte with zeros and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msb_roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values = [
            (0b1u64, 1u8),
            (0b1010, 4),
            (0xDEAD, 16),
            (0x1F2F3F4F5u64, 33),
            (0, 7),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v);
        }
    }

    #[test]
    fn msb_read_bits_matches_a_read_bit_loop() {
        // Every width 0..=64 from every start offset of a 10-byte buffer,
        // including every way of running off the end: same value, same
        // error, same position afterwards.
        let bytes = [0xA5, 0x3C, 0xFF, 0x00, 0x81, 0x7E, 0x12, 0xED, 0x69, 0xC3];
        let total = bytes.len() as u64 * 8;
        for start in 0..=total {
            for count in 0..=64u8 {
                let mut fast = BitReader::new(&bytes);
                let mut slow = BitReader::new(&bytes);
                for _ in 0..start {
                    fast.read_bit().unwrap();
                    slow.read_bit().unwrap();
                }
                let expect = (|| {
                    let mut v = 0u64;
                    for _ in 0..count {
                        v = (v << 1) | u64::from(slow.read_bit()?);
                    }
                    Ok(v)
                })();
                assert_eq!(fast.read_bits(count), expect, "start {start} count {count}");
                assert_eq!(
                    fast.bit_pos(),
                    slow.bit_pos(),
                    "start {start} count {count}"
                );
            }
        }
    }

    #[test]
    fn msb_eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodingError::UnexpectedEof));
    }

    #[test]
    fn msb_bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        w.write_bits(0, 3);
        w.write_bits(1, 9);
        assert_eq!(w.bit_len(), 12);
        assert_eq!(w.finish().len(), 2);
    }

    /// Takes `n` bits LSB-first from bit offset `*pos` of `bytes`.
    fn take_lsb(bytes: &[u8], pos: &mut usize, n: u8) -> u32 {
        let mut v = 0;
        for i in 0..n {
            v |= u32::from(bytes[*pos / 8] >> (*pos % 8) & 1) << i;
            *pos += 1;
        }
        v
    }

    #[test]
    fn lsb_roundtrip_various_widths() {
        let mut w = LsbBitWriter::new();
        let values = [
            (0b1u32, 1u8),
            (0b1010, 4),
            (0xDEAD, 16),
            (0x3F4F5, 20),
            (0, 7),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut pos = 0;
        for &(v, n) in &values {
            assert_eq!(take_lsb(&bytes, &mut pos, n), v);
        }
    }

    #[test]
    fn lsb_wide_pushes_roundtrip_at_exact_boundaries() {
        // The old ceiling was 24 bits; 24, 25 and 32 must all survive,
        // both byte-aligned and at the worst misalignment (7 bits used).
        for lead in [0u8, 7] {
            let mut w = LsbBitWriter::new();
            w.write_bits(0x55, lead);
            w.write_bits(0xAB_CDEF, 24);
            w.write_bits(0x1AB_CDEF, 25);
            w.write_bits(0xDEAD_BEEF, 32);
            w.write_bits(u32::MAX, 32);
            let bytes = w.finish();
            let mut pos = 0;
            let take = |pos: &mut usize, n| take_lsb(&bytes, pos, n);
            assert_eq!(
                take(&mut pos, lead),
                u32::from(0x55 & ((1u16 << lead) - 1) as u8)
            );
            assert_eq!(take(&mut pos, 24), 0xAB_CDEF);
            assert_eq!(take(&mut pos, 25), 0x1AB_CDEF);
            assert_eq!(take(&mut pos, 32), 0xDEAD_BEEF);
            assert_eq!(take(&mut pos, 32), u32::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "more than 32 bits")]
    fn lsb_rejects_33_bit_push() {
        LsbBitWriter::new().write_bits(0, 33);
    }

    #[test]
    fn lsb_bit_order_matches_deflate_convention() {
        // Writing 0b1 as one bit must set the lowest bit of the first byte.
        let mut w = LsbBitWriter::new();
        w.write_bits(1, 1);
        assert_eq!(w.finish(), vec![0x01]);
    }

    #[test]
    fn lsb_huffman_code_is_reversed() {
        // A 3-bit Huffman code 0b110 must appear reversed: 0b011.
        let mut w = LsbBitWriter::new();
        w.write_huffman_code(0b110, 3);
        assert_eq!(w.finish(), vec![0b011]);
    }

    #[test]
    fn lsb_aligned_bytes_roundtrip() {
        let mut w = LsbBitWriter::new();
        w.write_bits(0b101, 3);
        w.write_aligned_bytes(b"hi");
        assert_eq!(w.finish(), [0b101, b'h', b'i']);
    }
}
