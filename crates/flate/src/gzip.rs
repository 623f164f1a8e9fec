//! gzip member framing (RFC 1952).

use crate::crc32::crc32;
use crate::deflate::{deflate_compress, CompressionLevel};
use crate::inflate::{inflate, inflate_budgeted};
use crate::FlateError;
use codecomp_core::Budget;

const MAGIC: [u8; 2] = [0x1F, 0x8B];
const CM_DEFLATE: u8 = 8;

const FTEXT: u8 = 1 << 0;
const FHCRC: u8 = 1 << 1;
const FEXTRA: u8 = 1 << 2;
const FNAME: u8 = 1 << 3;
const FCOMMENT: u8 = 1 << 4;

/// Compresses `data` into a single-member gzip file image.
///
/// # Examples
///
/// ```
/// use codecomp_flate::{gzip_compress, gzip_decompress, CompressionLevel};
///
/// let packed = gzip_compress(b"data data data", CompressionLevel::Best);
/// assert_eq!(gzip_decompress(&packed)?, b"data data data");
/// # Ok::<(), codecomp_flate::FlateError>(())
/// ```
pub fn gzip_compress(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(&MAGIC);
    out.push(CM_DEFLATE);
    out.push(0); // FLG: no extras
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME: unknown
    out.push(match level {
        CompressionLevel::Best => 2,
        CompressionLevel::Default => 0,
        CompressionLevel::Fast => 4,
    }); // XFL
    out.push(255); // OS: unknown
    out.extend_from_slice(&deflate_compress(data, level));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a single-member gzip file image, verifying the trailer.
///
/// # Errors
///
/// [`FlateError::BadHeader`] for malformed headers,
/// [`FlateError::ChecksumMismatch`] when the CRC trailer disagrees, and
/// DEFLATE errors from the body.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, FlateError> {
    gzip_decompress_governed(data, None)
}

/// Budget-governed [`gzip_decompress`]: the DEFLATE body is decoded
/// through [`inflate_budgeted`], so the budget's output ceiling and
/// fuel meter apply.
///
/// # Errors
///
/// As [`gzip_decompress`], plus [`FlateError::LimitExceeded`] when the
/// budget trips.
pub fn gzip_decompress_budgeted(data: &[u8], budget: &Budget) -> Result<Vec<u8>, FlateError> {
    gzip_decompress_governed(data, Some(budget))
}

fn gzip_decompress_governed(data: &[u8], budget: Option<&Budget>) -> Result<Vec<u8>, FlateError> {
    if data.len() < 18 {
        return Err(FlateError::BadHeader(
            "shorter than minimal gzip member".into(),
        ));
    }
    if data[0..2] != MAGIC {
        return Err(FlateError::BadHeader("bad magic".into()));
    }
    if data[2] != CM_DEFLATE {
        return Err(FlateError::BadHeader(format!(
            "unsupported method {}",
            data[2]
        )));
    }
    let flg = data[3];
    if flg & !(FTEXT | FHCRC | FEXTRA | FNAME | FCOMMENT) != 0 {
        return Err(FlateError::BadHeader("reserved flag bits set".into()));
    }
    let mut pos = 10usize;
    if flg & FEXTRA != 0 {
        if pos + 2 > data.len() {
            return Err(FlateError::Truncated);
        }
        let xlen = usize::from(u16::from_le_bytes([data[pos], data[pos + 1]]));
        pos += 2;
        if xlen > data.len() - pos {
            return Err(FlateError::Truncated);
        }
        pos += xlen;
    }
    for flag in [FNAME, FCOMMENT] {
        if flg & flag != 0 {
            let end = data
                .get(pos..)
                .and_then(|rest| rest.iter().position(|&b| b == 0))
                .ok_or(FlateError::Truncated)?;
            pos += end + 1;
        }
    }
    if flg & FHCRC != 0 {
        pos += 2;
    }
    if pos + 8 > data.len() {
        return Err(FlateError::Truncated);
    }
    let body = &data[pos..data.len() - 8];
    let decoded = match budget {
        Some(b) => inflate_budgeted(body, b)?,
        None => inflate(body)?,
    };
    let trailer = &data[data.len() - 8..];
    let stored_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let stored_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let actual_crc = crc32(&decoded);
    if stored_crc != actual_crc {
        return Err(FlateError::ChecksumMismatch {
            expected: stored_crc,
            actual: actual_crc,
        });
    }
    if stored_len != decoded.len() as u32 {
        return Err(FlateError::Corrupt("ISIZE mismatch".into()));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let data = b"gzip framing around deflate".repeat(10);
        let packed = gzip_compress(&data, CompressionLevel::Best);
        assert_eq!(gzip_decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        let packed = gzip_compress(b"", CompressionLevel::Fast);
        assert_eq!(gzip_decompress(&packed).unwrap(), b"");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut packed = gzip_compress(b"x", CompressionLevel::Fast);
        packed[0] = 0;
        assert!(matches!(
            gzip_decompress(&packed),
            Err(FlateError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_method() {
        let mut packed = gzip_compress(b"x", CompressionLevel::Fast);
        packed[2] = 7;
        assert!(matches!(
            gzip_decompress(&packed),
            Err(FlateError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_corrupt_crc() {
        let data = b"checksum protected".repeat(5);
        let mut packed = gzip_compress(&data, CompressionLevel::Best);
        let n = packed.len();
        packed[n - 5] ^= 0xFF; // flip a CRC byte
        assert!(matches!(
            gzip_decompress(&packed),
            Err(FlateError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let data = b"will be truncated".repeat(20);
        let packed = gzip_compress(&data, CompressionLevel::Best);
        assert!(gzip_decompress(&packed[..packed.len() - 9]).is_err());
        assert!(gzip_decompress(&packed[..10]).is_err());
    }

    #[test]
    fn parses_member_with_name_field() {
        // Hand-build a member with FNAME set.
        let data = b"named member";
        let bare = gzip_compress(data, CompressionLevel::Fast);
        let mut with_name = Vec::new();
        with_name.extend_from_slice(&bare[..3]);
        with_name.push(FNAME);
        with_name.extend_from_slice(&bare[4..10]);
        with_name.extend_from_slice(b"file.txt\0");
        with_name.extend_from_slice(&bare[10..]);
        assert_eq!(gzip_decompress(&with_name).unwrap(), data);
    }
}
