//! Light-weight column encodings for the on-disk format.
//!
//! Two classic schemes, chosen because they are what make columnar
//! formats cheap to scan and expensive to *build* — the asymmetry
//! partial loading exploits:
//!
//! * **Dictionary** encoding for strings: distinct values stored once,
//!   rows as u32 codes. Machine logs have tiny per-column cardinality.
//! * **RLE** (run-length) for integers and dictionary codes: logs are
//!   bursty, so long runs are common.
//!
//! Encodings are chosen adaptively per column chunk; a plain encoding
//! backs everything else.

use crate::str_column::StrColumn;
use bytes::{Buf, BufMut, BytesMut};
use std::collections::HashMap;

/// Errors from decoding an encoded column chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended early.
    Truncated,
    /// A dictionary code referenced a missing entry.
    BadDictionaryCode {
        /// The offending code.
        code: u32,
        /// Dictionary size.
        dict_len: usize,
    },
    /// Unknown encoding tag.
    UnknownEncoding(u8),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A string column chunk holds more than [`StrColumn::MAX_TEXT`]
    /// bytes of text.
    TextTooLong,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded column truncated"),
            DecodeError::BadDictionaryCode { code, dict_len } => {
                write!(
                    f,
                    "dictionary code {code} out of range (dict has {dict_len})"
                )
            }
            DecodeError::UnknownEncoding(t) => write!(f, "unknown encoding tag {t}"),
            DecodeError::BadUtf8 => write!(f, "encoded string is not valid UTF-8"),
            DecodeError::TextTooLong => write!(f, "string column chunk text too long"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn get_checked<const N: usize>(buf: &mut impl Buf) -> Result<[u8; N], DecodeError> {
    if buf.remaining() < N {
        return Err(DecodeError::Truncated);
    }
    let mut out = [0u8; N];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

fn get_u32(buf: &mut impl Buf) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(get_checked::<4>(buf)?))
}

fn get_u64(buf: &mut impl Buf) -> Result<u64, DecodeError> {
    Ok(u64::from_le_bytes(get_checked::<8>(buf)?))
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads one length-prefixed string, borrowed from `buf`.
fn get_str<'b>(buf: &mut &'b [u8]) -> Result<&'b str, DecodeError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(DecodeError::Truncated);
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

// --- integer RLE ----------------------------------------------------------

/// Encoding tags for integer columns.
const INT_PLAIN: u8 = 0;
const INT_RLE: u8 = 1;

/// Encodes an i64 column chunk, choosing RLE when it is smaller.
pub fn encode_ints(values: &[i64], out: &mut BytesMut) {
    let runs = count_runs(values);
    // RLE stores (value, run_len) per run at 12 bytes; plain is 8/value.
    let rle_size = runs * 12;
    let plain_size = values.len() * 8;
    if rle_size < plain_size {
        out.put_u8(INT_RLE);
        out.put_u64_le(values.len() as u64);
        let mut i = 0;
        while i < values.len() {
            let v = values[i];
            let mut j = i + 1;
            while j < values.len() && values[j] == v {
                j += 1;
            }
            out.put_i64_le(v);
            out.put_u32_le((j - i) as u32);
            i = j;
        }
    } else {
        out.put_u8(INT_PLAIN);
        out.put_u64_le(values.len() as u64);
        for &v in values {
            out.put_i64_le(v);
        }
    }
}

/// Decodes an i64 column chunk.
pub fn decode_ints(buf: &mut impl Buf) -> Result<Vec<i64>, DecodeError> {
    let tag = get_checked::<1>(buf)?[0];
    let n = get_u64(buf)? as usize;
    match tag {
        INT_PLAIN => {
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(i64::from_le_bytes(get_checked::<8>(buf)?));
            }
            Ok(out)
        }
        INT_RLE => {
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let v = i64::from_le_bytes(get_checked::<8>(buf)?);
                let run = get_u32(buf)? as usize;
                if run == 0 || out.len() + run > n {
                    return Err(DecodeError::Truncated);
                }
                out.extend(std::iter::repeat_n(v, run));
            }
            Ok(out)
        }
        other => Err(DecodeError::UnknownEncoding(other)),
    }
}

fn count_runs(values: &[i64]) -> usize {
    let mut runs = 0;
    let mut prev: Option<i64> = None;
    for &v in values {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
    }
    runs
}

// --- string dictionary -----------------------------------------------------

/// Encoding tags for string columns.
const STR_PLAIN: u8 = 0;
const STR_DICT: u8 = 1;

/// Encodes a string column chunk: dictionary when the distinct count is
/// at most half the row count, plain otherwise.
pub fn encode_strings(values: &StrColumn, out: &mut BytesMut) {
    let mut dict: Vec<&str> = Vec::new();
    let mut codes: Vec<i64> = Vec::with_capacity(values.len());
    let mut index: HashMap<&str, u32> = HashMap::new();
    for v in values.iter() {
        let code = *index.entry(v).or_insert_with(|| {
            dict.push(v);
            (dict.len() - 1) as u32
        });
        codes.push(i64::from(code));
    }

    if !values.is_empty() && dict.len() * 2 <= values.len() {
        out.put_u8(STR_DICT);
        out.put_u64_le(values.len() as u64);
        out.put_u32_le(dict.len() as u32);
        for entry in &dict {
            put_str(out, entry);
        }
        // Codes as RLE-able ints (reuse the int codec).
        encode_ints(&codes, out);
    } else {
        out.put_u8(STR_PLAIN);
        out.put_u64_le(values.len() as u64);
        for v in values.iter() {
            put_str(out, v);
        }
    }
}

/// Appends `s` to `out`, unless that takes `out` past the text a
/// column can hold.
fn push_checked(out: &mut StrColumn, s: &str) -> Result<(), DecodeError> {
    if s.len() > StrColumn::MAX_TEXT - out.text_len() {
        return Err(DecodeError::TextTooLong);
    }
    out.push(s);
    Ok(())
}

/// Decodes a string column chunk straight into one buffer.
pub fn decode_strings(buf: &mut &[u8]) -> Result<StrColumn, DecodeError> {
    let tag = get_checked::<1>(buf)?[0];
    let n = get_u64(buf)? as usize;
    let mut out = StrColumn::new();
    match tag {
        STR_PLAIN => {
            // Every string takes at least its 4-byte length.
            out.reserve(n.min(buf.len() / 4), 0);
            for _ in 0..n {
                push_checked(&mut out, get_str(buf)?)?;
            }
        }
        STR_DICT => {
            let dict_len = get_u32(buf)? as usize;
            // Every entry takes at least its 4-byte length.
            let mut dict = Vec::with_capacity(dict_len.min(buf.len() / 4));
            for _ in 0..dict_len {
                dict.push(get_str(buf)?);
            }
            let codes = decode_ints(buf)?;
            if codes.len() != n {
                return Err(DecodeError::Truncated);
            }
            out.reserve(n, 0);
            for c in codes {
                let c = c as u32;
                let entry = dict.get(c as usize).ok_or(DecodeError::BadDictionaryCode {
                    code: c,
                    dict_len: dict.len(),
                })?;
                push_checked(&mut out, entry)?;
            }
        }
        other => return Err(DecodeError::UnknownEncoding(other)),
    }
    out.shrink_to_fit();
    Ok(out)
}

// --- floats (plain) ---------------------------------------------------------

/// Encodes an f64 column chunk (always plain; floats rarely repeat).
pub fn encode_floats(values: &[f64], out: &mut BytesMut) {
    out.put_u64_le(values.len() as u64);
    for &v in values {
        out.put_f64_le(v);
    }
}

/// Decodes an f64 column chunk.
pub fn decode_floats(buf: &mut impl Buf) -> Result<Vec<f64>, DecodeError> {
    let n = get_u64(buf)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f64::from_le_bytes(get_checked::<8>(buf)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_ints(values: &[i64]) {
        let mut buf = BytesMut::new();
        encode_ints(values, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_ints(&mut bytes).unwrap();
        assert_eq!(back, values);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn int_plain_roundtrip() {
        roundtrip_ints(&[]);
        roundtrip_ints(&[1, 2, 3, -7, i64::MAX, i64::MIN]);
    }

    #[test]
    fn int_rle_roundtrip_and_smaller() {
        let runs: Vec<i64> = std::iter::repeat_n(5, 1000)
            .chain(std::iter::repeat_n(-2, 500))
            .collect();
        let mut buf = BytesMut::new();
        encode_ints(&runs, &mut buf);
        assert_eq!(buf[0], INT_RLE);
        assert!(buf.len() < runs.len() * 8 / 10, "RLE should crush runs");
        let back = decode_ints(&mut buf.freeze()).unwrap();
        assert_eq!(back, runs);
    }

    #[test]
    fn int_random_stays_plain() {
        let vals: Vec<i64> = (0..100).map(|i| i * 37 % 91 - 45).collect();
        let mut buf = BytesMut::new();
        encode_ints(&vals, &mut buf);
        assert_eq!(buf[0], INT_PLAIN);
    }

    fn roundtrip_strings(values: &StrColumn) -> u8 {
        let mut buf = BytesMut::new();
        encode_strings(values, &mut buf);
        let mut rest = &buf[..];
        let back = decode_strings(&mut rest).unwrap();
        assert_eq!(&back, values);
        assert!(rest.is_empty());
        buf[0]
    }

    #[test]
    fn string_dict_roundtrip() {
        let values: StrColumn = (0..300).map(|i| format!("level-{}", i % 4)).collect();
        assert_eq!(roundtrip_strings(&values), STR_DICT);
    }

    #[test]
    fn string_high_cardinality_stays_plain() {
        let values: StrColumn = (0..50).map(|i| format!("unique-{i}")).collect();
        assert_eq!(roundtrip_strings(&values), STR_PLAIN);
    }

    #[test]
    fn string_empty_and_unicode() {
        roundtrip_strings(&["", "héllo 😀", ""].into_iter().collect());
        roundtrip_strings(&StrColumn::new());
    }

    #[test]
    fn bad_dictionary_code_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(STR_DICT);
        buf.put_u64_le(1);
        buf.put_u32_le(1);
        put_str(&mut buf, "only");
        encode_ints(&[1], &mut buf);
        assert_eq!(
            decode_strings(&mut &buf[..]).unwrap_err(),
            DecodeError::BadDictionaryCode {
                code: 1,
                dict_len: 1
            }
        );
    }

    #[test]
    fn float_roundtrip() {
        let values = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, -0.0];
        let mut buf = BytesMut::new();
        encode_floats(&values, &mut buf);
        let back = decode_floats(&mut buf.freeze()).unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let mut buf = BytesMut::new();
        encode_ints(&[1, 2, 3], &mut buf);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert!(decode_ints(&mut slice).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        buf.put_u64_le(1);
        assert_eq!(
            decode_ints(&mut buf.freeze()).unwrap_err(),
            DecodeError::UnknownEncoding(99)
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(STR_PLAIN);
        buf.put_u64_le(1);
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_strings(&mut &buf[..]).unwrap_err(),
            DecodeError::BadUtf8
        );
    }
}
