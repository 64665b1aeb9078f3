//! Structure-aware coding for adjacency data: delta-gap id lists and
//! bit-packed weight columns.
//!
//! HybridGraph writes neighbour ids in ascending order (CSR rows and
//! VE-BLOCK fragments are dst-sorted, gather fragments src-sorted), so
//! consecutive ids differ by small gaps — the WebGraph observation. Gaps
//! are zig-zag coded before the varint, so a non-monotone id list still
//! round-trips (it merely compresses worse); monotonicity is an
//! optimization assumption, never a correctness requirement.
//!
//! Weight columns (f32 bit patterns) are bit-packed against their min/max
//! range: the common all-equal case (unit weights in PageRank) packs to a
//! width-0 column — one varint plus one byte regardless of edge count.
//!
//! The decoder reads gaps of one to three bytes several to an 8-byte
//! load, and a packed column a little-endian word per value after one
//! check that the buffer holds the whole column and that no value can
//! overflow `u32`; anything else, including every error, takes the
//! byte-at-a-time path, so the verdicts are those of a plain decoder.

use crate::varint::{read_u64, unzigzag, write_u64, zigzag};
use crate::{CodecError, FragmentColumns};

/// Appends zig-zag delta coding of `ids` (count is *not* written).
fn write_deltas(out: &mut Vec<u8>, ids: &[u32]) {
    let mut prev = 0i64;
    for &id in ids {
        write_u64(out, zigzag(i64::from(id) - prev));
        prev = i64::from(id);
    }
}

/// Reads `count` zig-zag delta coded ids, appending them to `ids`.
fn read_deltas(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    ids: &mut Vec<u32>,
) -> Result<(), CodecError> {
    let mut prev = 0i64;
    let mut push = |z: u64| {
        let id = prev
            .checked_add(unzigzag(z))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(CodecError::Corrupt("delta-coded id out of range"))?;
        ids.push(id);
        prev = i64::from(id);
        Ok(())
    };
    let mut left = count;
    while left > 0 {
        // Gaps of one to three bytes come out of one 8-byte load, which
        // holds the next gap whole while at most five of its bytes are
        // used; a longer one, or the last bytes, go through `read_u64`.
        let mut used = 0;
        if let Some(w) = buf.get(*pos..*pos + 8) {
            let mut w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
            while used <= 5 && left > 0 {
                // The first of three bytes whose continuation bit is clear
                // ends the varint.
                let stop = !w & 0x80_8080;
                if stop == 0 {
                    break;
                }
                let len = (stop.trailing_zeros() + 1) / 8;
                let v = w & 0x7f | (w >> 1) & 0x3f80 | (w >> 2) & 0x1f_c000;
                push(v & ((1 << (7 * len)) - 1))?;
                w >>= 8 * len;
                used += len as usize;
                left -= 1;
            }
            *pos += used;
        }
        if used == 0 {
            push(read_u64(buf, pos)?)?;
            left -= 1;
        }
    }
    Ok(())
}

/// Appends a bit-packed column: `min` varint, `width` byte, then
/// `(v - min)` values at `width` bits each, LSB-first.
fn write_packed(out: &mut Vec<u8>, vals: &[u32]) {
    if vals.is_empty() {
        return;
    }
    let min = *vals.iter().min().expect("non-empty");
    let max = *vals.iter().max().expect("non-empty");
    let range = max - min;
    let width = if range == 0 {
        0u8
    } else {
        (32 - range.leading_zeros()) as u8
    };
    write_u64(out, u64::from(min));
    out.push(width);
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in vals {
        acc |= u64::from(v - min) << nbits;
        nbits += u32::from(width);
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

/// Reads a bit-packed column of `count` values, appending them to `vals`.
fn read_packed(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    vals: &mut Vec<u32>,
) -> Result<(), CodecError> {
    if count == 0 {
        return Ok(());
    }
    let min = u32::try_from(read_u64(buf, pos)?)
        .map_err(|_| CodecError::Corrupt("packed column min out of range"))?;
    let width = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    if width > 32 {
        return Err(CodecError::Corrupt("packed column width > 32"));
    }
    if width == 0 {
        vals.resize(vals.len() + count, min);
        return Ok(());
    }
    let mask = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
    // No value can overflow and the buffer holds the column: one check,
    // then value `i` is the `width` bits at bit `i · width` of the column,
    // cut from the little-endian word at its first byte. Otherwise the
    // byte-at-a-time loop below finds where the column goes wrong.
    let bytes = count
        .checked_mul(usize::from(width))
        .map(|bits| bits.div_ceil(8));
    if let Some(column) = bytes.and_then(|n| buf.get(*pos..*pos + n)) {
        if u64::from(min) + mask <= u64::from(u32::MAX) {
            vals.reserve(count);
            for i in 0..count {
                let bit = i * usize::from(width);
                let word = match column.get(bit / 8..bit / 8 + 8) {
                    Some(w) => u64::from_le_bytes(w.try_into().expect("eight bytes")),
                    None => tail_word(&column[bit / 8..]),
                };
                vals.push(min + ((word >> (bit % 8)) & mask) as u32);
            }
            *pos += column.len();
            return Ok(());
        }
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for _ in 0..count {
        while nbits < u32::from(width) {
            let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
            *pos += 1;
            acc |= u64::from(b) << nbits;
            nbits += 8;
        }
        let delta = (acc & mask) as u32;
        acc >>= width;
        nbits -= u32::from(width);
        let v = min
            .checked_add(delta)
            .ok_or(CodecError::Corrupt("packed column value overflows u32"))?;
        vals.push(v);
    }
    Ok(())
}

/// The last bytes of a column, fewer than eight, as a little-endian word.
#[cold]
fn tail_word(rest: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..rest.len()].copy_from_slice(rest);
    u64::from_le_bytes(word)
}

// Both extent kinds are parsed into and decoded as [`FragmentColumns`];
// an edge list (AdjacencyStore runs) is repeated `id u32 LE | w f32 LE`.

/// Gap-codes a fragment stream's columns, appending to `out`. Layout:
/// `nfrags varint`, zig-zag delta-coded svertex ids, per-fragment edge
/// counts, per-fragment delta-coded neighbour ids, then one bit-packed
/// weight column over all edges.
pub(crate) fn encode_fragments(f: &FragmentColumns, out: &mut Vec<u8>) {
    write_u64(out, f.len() as u64);
    write_deltas(out, &f.svertices);
    for k in 0..f.len() {
        write_u64(out, f.span(k).len() as u64);
    }
    for k in 0..f.len() {
        write_deltas(out, &f.ids[f.span(k)]);
    }
    write_packed(out, &f.weights);
}

/// Decodes an [`encode_fragments`] body into `cols`, which the caller
/// has cleared.
pub(crate) fn decode_fragments(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let nfrags = read_u64(coded, &mut pos)? as usize;
    read_deltas(coded, &mut pos, nfrags, &mut cols.svertices)?;
    let mut total_edges = 0usize;
    for _ in 0..nfrags {
        let c = u32::try_from(read_u64(coded, &mut pos)?)
            .map_err(|_| CodecError::Corrupt("fragment count out of range"))?;
        total_edges += c as usize;
        cols.ends.push(total_edges);
    }
    for k in 0..nfrags {
        read_deltas(coded, &mut pos, cols.span(k).len(), &mut cols.ids)?;
    }
    read_packed(coded, &mut pos, total_edges, &mut cols.weights)
}

/// Gap-codes an edge list's columns, appending to `out`: `count` varint,
/// delta-coded ids, bit-packed weight column.
pub(crate) fn encode_edges(f: &FragmentColumns, out: &mut Vec<u8>) {
    write_u64(out, f.ids.len() as u64);
    write_deltas(out, &f.ids);
    write_packed(out, &f.weights);
}

/// Decodes an [`encode_edges`] body into `cols`' id and weight
/// columns, which the caller has cleared.
pub(crate) fn decode_edges(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    read_deltas(coded, &mut pos, count, &mut cols.ids)?;
    read_packed(coded, &mut pos, count, &mut cols.weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExtentKind;

    /// `raw` gap-coded as `kind`.
    fn code(kind: ExtentKind, raw: &[u8]) -> Result<Vec<u8>, CodecError> {
        let (mut f, mut out) = (FragmentColumns::default(), Vec::new());
        f.parse(kind, raw)?;
        match kind {
            ExtentKind::Fragments => encode_fragments(&f, &mut out),
            ExtentKind::Edges => encode_edges(&f, &mut out),
        }
        Ok(out)
    }

    /// A gaps body of `kind` decoded back into its raw bytes.
    fn back(kind: ExtentKind, coded: &[u8]) -> Result<Vec<u8>, CodecError> {
        let mut cols = FragmentColumns::default();
        match kind {
            ExtentKind::Fragments => decode_fragments(coded, &mut cols)?,
            ExtentKind::Edges => decode_edges(coded, &mut cols)?,
        }
        Ok(cols.to_raw(kind))
    }

    fn raw_edges(edges: &[(u32, f32)]) -> Vec<u8> {
        let mut raw = Vec::new();
        for &(d, w) in edges {
            raw.extend_from_slice(&d.to_le_bytes());
            raw.extend_from_slice(&w.to_le_bytes());
        }
        raw
    }

    #[test]
    fn empty_edge_list_roundtrips() {
        let coded = code(ExtentKind::Edges, &[]).unwrap();
        assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn sorted_unit_weight_edges_shrink() {
        let edges: Vec<(u32, f32)> = (0..1000).map(|i| (1000 + 3 * i, 1.0)).collect();
        let raw = raw_edges(&edges);
        let coded = code(ExtentKind::Edges, &raw).unwrap();
        assert!(
            coded.len() * 4 < raw.len(),
            "expected >4x on gap-1 unit-weight edges: {} vs {}",
            coded.len(),
            raw.len()
        );
        assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), raw);
    }

    #[test]
    fn non_monotone_ids_still_roundtrip() {
        let edges = vec![(900u32, 0.5f32), (3, -1.5), (u32::MAX, 2.0), (0, 0.0)];
        let raw = raw_edges(&edges);
        let coded = code(ExtentKind::Edges, &raw).unwrap();
        assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), raw);
    }

    #[test]
    fn weight_bit_patterns_survive() {
        // NaN and negative zero must round-trip bit-exactly.
        let edges = vec![(1u32, f32::NAN), (2, -0.0), (3, f32::INFINITY)];
        let raw = raw_edges(&edges);
        let coded = code(ExtentKind::Edges, &raw).unwrap();
        assert_eq!(back(ExtentKind::Edges, &coded).unwrap(), raw);
    }

    #[test]
    fn id_delta_overflow_is_corrupt_not_a_panic() {
        // Id 5, then a delta of i64::MAX: the sum leaves i64.
        let mut coded = Vec::new();
        for v in [2, zigzag(5), zigzag(i64::MAX)] {
            write_u64(&mut coded, v);
        }
        assert_eq!(
            back(ExtentKind::Edges, &coded),
            Err(CodecError::Corrupt("delta-coded id out of range"))
        );
    }

    #[test]
    fn empty_fragment_stream_roundtrips() {
        let coded = code(ExtentKind::Fragments, &[]).unwrap();
        assert_eq!(
            back(ExtentKind::Fragments, &coded).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn fragment_stream_roundtrips() {
        // Two fragments, one with zero edges (a vertex whose edges all went
        // elsewhere never emits a fragment, but zero counts must not break).
        let mut raw = Vec::new();
        for (sv, edges) in [
            (5u32, vec![(7u32, 1.0f32), (9, 1.0), (200, 1.0)]),
            (6, vec![]),
            (40, vec![(0, 2.5)]),
        ] {
            raw.extend_from_slice(&sv.to_le_bytes());
            raw.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for (d, w) in edges {
                raw.extend_from_slice(&d.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        let coded = code(ExtentKind::Fragments, &raw).unwrap();
        assert_eq!(back(ExtentKind::Fragments, &coded).unwrap(), raw);
    }

    #[test]
    fn truncated_fragment_stream_errors() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&2u32.to_le_bytes()); // claims 2 edges
        raw.extend_from_slice(&[0u8; 8]); // only 1 present
        assert!(code(ExtentKind::Fragments, &raw).is_err());
    }

    #[test]
    fn packed_column_widths() {
        for vals in [
            vec![7u32; 100],                 // width 0
            vec![1, 2, 3, 4],                // width 2
            vec![0, u32::MAX],               // width 32
            (0..255u32).collect::<Vec<_>>(), // width 8
        ] {
            let mut buf = Vec::new();
            write_packed(&mut buf, &vals);
            let (mut pos, mut back) = (0, Vec::new());
            read_packed(&buf, &mut pos, vals.len(), &mut back).unwrap();
            assert_eq!(back, vals);
            assert_eq!(pos, buf.len());
        }
    }
}
