//! Order-preserving key encodings.
//!
//! The cluster stores HBase-style `(row, column)` cells inside a flat LSM
//! keyspace, and Diff-Index stores `value ⊕ rowkey` concatenations as index
//! row keys (§4, "Remark"). Both need an encoding where the concatenation of
//! variable-length parts still sorts like the tuple of parts — otherwise
//! range scans over a prefix would be wrong.
//!
//! We use terminated escaping: inside a part every `0x00` byte becomes
//! `0x00 0x01`, and the part ends with the terminator `0x00 0x00`. Because
//! the escape's second byte (`0x01`) is strictly greater than the
//! terminator's (`0x00`), lexicographic order of encodings equals
//! lexicographic order of the original byte strings, and a decoded stream is
//! unambiguous.

use bytes::{BufMut, Bytes, BytesMut};

/// Append the escaped, terminated encoding of `part` to `out`.
pub fn encode_part(out: &mut BytesMut, part: &[u8]) {
    for &b in part {
        if b == 0 {
            out.put_u8(0);
            out.put_u8(1);
        } else {
            out.put_u8(b);
        }
    }
    out.put_u8(0);
    out.put_u8(0);
}

/// Encode a single part into a standalone buffer.
pub fn encode_one(part: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(part.len() + 2);
    encode_part(&mut out, part);
    out.freeze()
}

/// Escape `part` WITHOUT the terminator. Because escaping maps each byte
/// independently, `escape_no_term(a ++ b) == escape_no_term(a) ++
/// escape_no_term(b)`; the escaped form of a row-key *prefix* is therefore a
/// byte prefix of the escaped form of every row key extending it — the
/// property Diff-Index's `getByIndex` prefix scans rely on.
pub fn escape_no_term(part: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(part.len());
    for &b in part {
        if b == 0 {
            out.put_u8(0);
            out.put_u8(1);
        } else {
            out.put_u8(b);
        }
    }
    out.freeze()
}

/// Decode one part from the front of `buf`, returning the part and the
/// number of encoded bytes consumed. `None` on malformed input.
pub fn decode_part(buf: &[u8]) -> Option<(Vec<u8>, usize)> {
    let end = part_end(buf)?;
    // Each escape `0x00 0x01` decodes to its first byte: copy the runs up
    // to and including it, then step over the `0x01`.
    let mut out = Vec::with_capacity(end);
    let mut rest = &buf[..end];
    while let Some(zero) = rest.iter().position(|&b| b == 0) {
        out.extend_from_slice(&rest[..=zero]);
        rest = &rest[zero + 2..];
    }
    out.extend_from_slice(rest);
    Some((out, end + 2))
}

/// Offset of the terminator of the part at the front of `buf`. `None` on
/// malformed input.
fn part_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    loop {
        i += buf[i..].iter().position(|&b| b == 0)?;
        match *buf.get(i + 1)? {
            0 => return Some(i),
            1 => i += 2,
            _ => return None,
        }
    }
}

/// The exclusive upper bound for scanning all keys that start with
/// `prefix` (where `prefix` is an encoded part or concatenation of parts):
/// the smallest byte string greater than every extension of `prefix`.
pub fn prefix_end(prefix: &[u8]) -> Option<Bytes> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last < 0xFF {
            *end.last_mut().unwrap() += 1;
            return Some(Bytes::from(end));
        }
        end.pop();
    }
    None // prefix was all 0xFF: unbounded
}

/// Encode an HBase-style cell key: `row` part then raw column bytes.
/// All cells of a row group together, ordered by column.
pub fn cell_key(row: &[u8], column: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(row.len() + column.len() + 2);
    encode_part(&mut out, row);
    out.extend_from_slice(column);
    out.freeze()
}

/// Decode a cell key back into `(row, column)`.
pub fn decode_cell_key(key: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let (row, used) = decode_part(key)?;
    Some((row, key[used..].to_vec()))
}

/// The column of a cell key: the bytes after its row part, found without
/// decoding the row. `None` on malformed input.
pub fn column_of(key: &[u8]) -> Option<&[u8]> {
    Some(&key[part_end(key)? + 2..])
}

/// Start of the cell-key range covering every column of `row`.
pub fn row_start(row: &[u8]) -> Bytes {
    encode_one(row)
}

/// Exclusive end of the cell-key range covering every column of `row`.
pub fn row_end(row: &[u8]) -> Bytes {
    // The terminator is 0x00 0x00; bumping the second byte to 0x01 bounds
    // every possible column suffix.
    let enc = encode_one(row);
    prefix_end(&enc).expect("terminated encoding never ends in 0xFF")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for part in [&b"hello"[..], b"", b"\x00", b"a\x00b", b"\x00\x00", b"\xff\xfe"] {
            let enc = encode_one(part);
            let (dec, used) = decode_part(&enc).unwrap();
            assert_eq!(dec, part);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn encoding_preserves_order() {
        let mut parts: Vec<&[u8]> =
            vec![b"", b"\x00", b"\x00\x00", b"\x01", b"a", b"a\x00", b"a\x00a", b"aa", b"b"];
        parts.sort();
        let encoded: Vec<Bytes> = parts.iter().map(|p| encode_one(p)).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "order broken: {:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn concatenated_parts_sort_tuple_wise() {
        // (a, b) < (aa, a) because "a" < "aa" — even though the raw
        // concatenations "ab" vs "aaa" would sort the other way.
        let mut x = BytesMut::new();
        encode_part(&mut x, b"a");
        encode_part(&mut x, b"b");
        let mut y = BytesMut::new();
        encode_part(&mut y, b"aa");
        encode_part(&mut y, b"a");
        assert!(x.freeze() < y.freeze());
    }

    #[test]
    fn decode_part_roundtrips_and_reports_its_length() {
        let parts: [&[u8]; 7] =
            [b"", b"\x00", b"\x00\x00\x00", b"abc", b"a\x00b\x00", b"\x00ab", b"ab\x00\x00cd"];
        for part in parts {
            let mut enc = BytesMut::new();
            encode_part(&mut enc, part);
            let len = enc.len();
            enc.extend_from_slice(b"tail\x00\x00");
            assert_eq!(decode_part(&enc), Some((part.to_vec(), len)), "part {part:?}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(decode_part(b"").is_none());
        assert!(decode_part(b"abc").is_none(), "missing terminator");
        assert!(decode_part(b"a\x00\x05b\x00\x00").is_none(), "bad escape");
    }

    #[test]
    fn prefix_end_bounds_extensions() {
        let p = encode_one(b"user");
        let end = prefix_end(&p).unwrap();
        let longer = cell_key(b"user", b"col1");
        assert!(longer.as_ref() >= p.as_ref());
        assert!(longer < end);
        // A different row is outside the bound:
        let other = encode_one(b"uses");
        assert!(other >= end || other < p);
    }

    #[test]
    fn prefix_end_all_ff_is_none() {
        assert!(prefix_end(&[0xFF, 0xFF]).is_none());
        assert_eq!(prefix_end(&[0x01, 0xFF]).unwrap(), Bytes::from_static(&[0x02]));
    }

    #[test]
    fn cell_key_roundtrip_and_grouping() {
        let k1 = cell_key(b"row1", b"colA");
        let k2 = cell_key(b"row1", b"colB");
        let k3 = cell_key(b"row2", b"colA");
        assert!(k1 < k2 && k2 < k3);
        assert_eq!(decode_cell_key(&k1).unwrap(), (b"row1".to_vec(), b"colA".to_vec()));
        // Rows with embedded zero bytes stay unambiguous:
        let k = cell_key(b"r\x00w", b"c");
        assert_eq!(decode_cell_key(&k).unwrap(), (b"r\x00w".to_vec(), b"c".to_vec()));
    }

    #[test]
    fn column_of_agrees_with_decode() {
        let cases: [(&[u8], &[u8]); 4] =
            [(b"row1", b"colA"), (b"r\x00w", b"c\x00"), (b"", b""), (b"\x00", b"x")];
        for (row, col) in cases {
            assert_eq!(column_of(&cell_key(row, col)), Some(col));
        }
        assert!(column_of(b"abc").is_none(), "missing terminator");
        assert!(column_of(b"a\x00\x05b\x00\x00c").is_none(), "bad escape");
    }

    #[test]
    fn row_range_covers_exactly_one_row() {
        let start = row_start(b"row1");
        let end = row_end(b"row1");
        for col in [&b""[..], b"a", b"\xff\xff"] {
            let k = cell_key(b"row1", col);
            assert!(k >= start && k < end, "col {col:?} escaped the row range");
        }
        assert!(cell_key(b"row0", b"z") < start);
        assert!(cell_key(b"row11", b"") >= end || cell_key(b"row11", b"") < start);
        // "row11" must be OUTSIDE [start, end): check explicitly.
        assert!(cell_key(b"row11", b"a") >= end);
        assert!(cell_key(b"row2", b"") >= end);
    }
}
