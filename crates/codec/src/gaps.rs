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
    for _ in 0..count {
        let id = prev
            .checked_add(unzigzag(read_u64(buf, pos)?))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(CodecError::Corrupt("delta-coded id out of range"))?;
        ids.push(id);
        prev = i64::from(id);
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
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mask = if width == 32 {
        u64::from(u32::MAX)
    } else {
        (1u64 << width) - 1
    };
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

// The fragment stream is parsed into and serialised from
// [`FragmentColumns`]; the edge list (AdjacencyStore runs) is repeated
// `id u32 LE | w f32 LE`.

/// Gap-codes a raw fragment stream. Layout: `nfrags varint`, zig-zag
/// delta-coded svertex ids, per-fragment edge counts, per-fragment
/// delta-coded neighbour ids, then one bit-packed weight column over all
/// edges.
pub fn fragments_from_raw(raw: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut f = FragmentColumns::default();
    f.parse_raw(raw)?;
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    write_u64(&mut out, f.len() as u64);
    write_deltas(&mut out, &f.svertices);
    for k in 0..f.len() {
        write_u64(&mut out, f.span(k).len() as u64);
    }
    for k in 0..f.len() {
        write_deltas(&mut out, &f.ids[f.span(k)]);
    }
    write_packed(&mut out, &f.weights);
    Ok(out)
}

/// Decodes a [`fragments_from_raw`] body into `cols` (overwritten).
pub(crate) fn decode_fragments(coded: &[u8], cols: &mut FragmentColumns) -> Result<(), CodecError> {
    cols.clear();
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

/// Inverse of [`fragments_from_raw`]: rebuilds the raw fragment stream.
pub fn raw_from_fragments(coded: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut cols = FragmentColumns::default();
    decode_fragments(coded, &mut cols)?;
    Ok(cols.to_raw())
}

/// Gap-codes a bare edge list (`id u32 LE | w f32 LE` pairs): `count`
/// varint, delta-coded ids, bit-packed weight column.
pub fn edges_from_raw(raw: &[u8]) -> Result<Vec<u8>, CodecError> {
    if !raw.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt("edge list not a multiple of 8 bytes"));
    }
    let count = raw.len() / 8;
    let mut ids = Vec::with_capacity(count);
    let mut weights = Vec::with_capacity(count);
    for e in raw.chunks_exact(8) {
        ids.push(u32::from_le_bytes(e[..4].try_into().expect("width")));
        weights.push(u32::from_le_bytes(e[4..].try_into().expect("width")));
    }
    let mut out = Vec::with_capacity(raw.len() / 4 + 8);
    write_u64(&mut out, count as u64);
    write_deltas(&mut out, &ids);
    write_packed(&mut out, &weights);
    Ok(out)
}

/// Inverse of [`edges_from_raw`].
pub fn raw_from_edges(coded: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let count = read_u64(coded, &mut pos)? as usize;
    let (mut ids, mut weights) = (Vec::new(), Vec::new());
    read_deltas(coded, &mut pos, count, &mut ids)?;
    read_packed(coded, &mut pos, count, &mut weights)?;
    let mut raw = Vec::with_capacity(count * 8);
    for i in 0..count {
        raw.extend_from_slice(&ids[i].to_le_bytes());
        raw.extend_from_slice(&weights[i].to_le_bytes());
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let coded = edges_from_raw(&[]).unwrap();
        assert_eq!(raw_from_edges(&coded).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn sorted_unit_weight_edges_shrink() {
        let edges: Vec<(u32, f32)> = (0..1000).map(|i| (1000 + 3 * i, 1.0)).collect();
        let raw = raw_edges(&edges);
        let coded = edges_from_raw(&raw).unwrap();
        assert!(
            coded.len() * 4 < raw.len(),
            "expected >4x on gap-1 unit-weight edges: {} vs {}",
            coded.len(),
            raw.len()
        );
        assert_eq!(raw_from_edges(&coded).unwrap(), raw);
    }

    #[test]
    fn non_monotone_ids_still_roundtrip() {
        let edges = vec![(900u32, 0.5f32), (3, -1.5), (u32::MAX, 2.0), (0, 0.0)];
        let raw = raw_edges(&edges);
        let coded = edges_from_raw(&raw).unwrap();
        assert_eq!(raw_from_edges(&coded).unwrap(), raw);
    }

    #[test]
    fn weight_bit_patterns_survive() {
        // NaN and negative zero must round-trip bit-exactly.
        let edges = vec![(1u32, f32::NAN), (2, -0.0), (3, f32::INFINITY)];
        let raw = raw_edges(&edges);
        let coded = edges_from_raw(&raw).unwrap();
        assert_eq!(raw_from_edges(&coded).unwrap(), raw);
    }

    #[test]
    fn id_delta_overflow_is_corrupt_not_a_panic() {
        // Id 5, then a delta of i64::MAX: the sum leaves i64.
        let mut coded = Vec::new();
        for v in [2, zigzag(5), zigzag(i64::MAX)] {
            write_u64(&mut coded, v);
        }
        assert_eq!(
            raw_from_edges(&coded),
            Err(CodecError::Corrupt("delta-coded id out of range"))
        );
    }

    #[test]
    fn empty_fragment_stream_roundtrips() {
        let coded = fragments_from_raw(&[]).unwrap();
        assert_eq!(raw_from_fragments(&coded).unwrap(), Vec::<u8>::new());
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
        let coded = fragments_from_raw(&raw).unwrap();
        assert_eq!(raw_from_fragments(&coded).unwrap(), raw);
    }

    #[test]
    fn truncated_fragment_stream_errors() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&2u32.to_le_bytes()); // claims 2 edges
        raw.extend_from_slice(&[0u8; 8]); // only 1 present
        assert!(fragments_from_raw(&raw).is_err());
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
