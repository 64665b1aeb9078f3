//! # hybridgraph-codec
//!
//! Deterministic compression for HybridGraph's on-disk structures,
//! selected per job with `JobConfig::with_codec(CodecChoice)`.
//!
//! The paper's whole analysis (Eqs. 4–11, the `Q_t` switch metric) is in
//! *bytes per I/O class*, so shrinking on-device bytes is the most direct
//! lever on modeled runtime. This crate provides the codecs; the storage
//! crate decides where to apply them and accounts the result as *logical*
//! (uncompressed) vs *physical* (on-device) bytes.
//!
//! Codec families:
//!
//! * [`gaps`] — structure-aware: zig-zag delta-gap coding for sorted
//!   neighbour-id lists (WebGraph-style) plus bit-packed weight columns.
//!   Applied to VE-BLOCK eblocks, adjacency runs, and gather fragments.
//! * [`bv`] on [`bits`] — the WebGraph-class tier of [`CodecChoice::Bv`]:
//!   bit-granular copy-references, intervals and ζ₃ residual gaps.
//! * [`block`] — general-purpose bytes: run-length encoding plus a fixed
//!   greedy LZ pass. Applied under `Bv` to checkpoint bodies, message
//!   spill chunks, and msg-log segments.
//! * [`ef`] — Elias-Fano sequences, the directory of every extent file.
//!
//! Two framings carry them: tagged extents ([`encode_extent`]) for
//! adjacency-structured data and blob frames ([`encode_blob_frame`]) for
//! structureless runs; [`frame`] declares every persisted layout around
//! them. A tagged extent is read back once, by [`decode_columns`], into
//! caller-kept [`FragmentColumns`] — a fragment stream's svertices, ends,
//! ids and weights, or an edge list's ids and weights alone — with no raw
//! stream in between; [`decode_extent`] serialises those columns for a
//! caller that wants the bytes. Everything is deterministic (no RNG, no timestamps) and every coded
//! extent can fall back to raw bytes via a leading tag, so incompressible
//! data never blows up. [`CodecChoice::None`] is special: stores bypass
//! this crate entirely and their on-disk bytes stay byte-for-byte what
//! they were before compression existed.
//!
//! **What the cost model sees.** Everything downstream of bytes reads the
//! *physical* side: modeled time, the semantic quantities (`IO(Ē)`,
//! `IO(E)`, `IO(F)` from the stores' stored bytes, `IO(M_disk)` from the
//! spill file's coded size), and so every Eq. 11 input. A codec changes
//! what the device moves, so it may move the push ↔ b-pull switching
//! point; each `QtAudit` records the superstep's physical/logical ratio,
//! so the explain-switch table shows when it did. Theorem 2's
//! `B⊥ = |E|/2 − f` is *not* rescaled: it compares message counts with
//! logical edge volume at load time, before any coded extent is read.
//! Under `None` both sides of every counter are equal and every decision
//! is the uncompressed one, bit for bit; `tests/codec_roundtrip.rs`
//! checks value bit-identity across codecs.

pub mod bits;
pub mod block;
pub mod bv;
pub mod ef;
pub mod frame;
pub mod gaps;
#[cfg(test)]
mod oracle;
pub mod varint;

use std::fmt;
use std::str::FromStr;

/// Errors from decoding corrupted or truncated coded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside an encoding.
    Truncated,
    /// Structurally invalid input.
    Corrupt(&'static str),
    /// Decoded length disagrees with the recorded logical length.
    LengthMismatch { expected: usize, got: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "coded input truncated"),
            CodecError::Corrupt(why) => write!(f, "coded input corrupt: {why}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "decoded {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Which codec a job applies to its disk-resident structures.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum CodecChoice {
    /// No codec anywhere: on-disk bytes and every I/O counter are
    /// byte-for-byte identical to a build without compression.
    #[default]
    None,
    /// Delta-gap + bit-packed coding for adjacency-structured data;
    /// blob structures (spills, checkpoints, msg logs) stay raw.
    Gaps,
    /// WebGraph-class BV tier: reference-chain copy-lists, interval
    /// coding and ζ residual gaps for adjacency data (`TAG_BV` extents); blobs
    /// get the block codec. Falls back to raw per extent when the BV
    /// structural assumptions don't hold.
    Bv,
}

impl CodecChoice {
    /// All choices, for sweeps.
    pub const ALL: [CodecChoice; 3] = [CodecChoice::None, CodecChoice::Gaps, CodecChoice::Bv];

    /// Stable lowercase name (CLI value and metric label).
    pub fn label(self) -> &'static str {
        match self {
            CodecChoice::None => "none",
            CodecChoice::Gaps => "gaps",
            CodecChoice::Bv => "bv",
        }
    }

    /// True if stores should bypass coding entirely.
    pub fn is_none(self) -> bool {
        self == CodecChoice::None
    }

    /// Stable single-byte tag (record-log headers, catalog payloads and
    /// gateway requests persist it). 2 and 3 belonged to choices that no
    /// longer exist and stay unassigned, so `Bv` keeps its byte.
    pub fn tag(self) -> u8 {
        match self {
            CodecChoice::None => 0,
            CodecChoice::Gaps => 1,
            CodecChoice::Bv => 4,
        }
    }

    /// Inverse of [`CodecChoice::tag`]; `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<CodecChoice> {
        CodecChoice::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

impl FromStr for CodecChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CodecChoice::ALL
            .into_iter()
            .find(|c| c.label() == s)
            .ok_or_else(|| format!("unknown codec '{s}' (expected none|gaps|bv)"))
    }
}

impl fmt::Display for CodecChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The body of a raw (stored, not coded) extent or frame: exactly
/// `logical_len` bytes, or the length it carries is wrong.
fn raw_body(body: &[u8], logical_len: usize) -> Result<Vec<u8>, CodecError> {
    check_len(logical_len, body.len())?;
    Ok(body.to_vec())
}

/// Extent and blob-frame tag: raw bytes follow.
pub const TAG_RAW: u8 = 0;
/// Extent tag: gap-coded adjacency data follows.
pub const TAG_GAPS: u8 = 1;
/// Blob-frame tag: RLE+LZ coded bytes follow. Not an extent tag.
pub const TAG_BLOCK: u8 = 2;
/// Extent tag: BV-coded adjacency data follows. Tags are per extent and
/// a reader accepts all three, so extents written under any
/// [`CodecChoice`] decode with the same [`decode_columns`] call.
pub const TAG_BV: u8 = 3;

/// The record structure inside an adjacency extent, which decides how
/// its raw bytes parse into [`FragmentColumns`] and how each tier codes
/// them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExtentKind {
    /// `svertex | count | edges…` fragment stream (VE-BLOCK eblocks,
    /// gather fragments).
    Fragments,
    /// Bare `(id, weight)` pair list (AdjacencyStore runs).
    Edges,
}

/// One extent as columns, whichever [`ExtentKind`] it holds. A fragment
/// stream — `svertex u32 LE | count u32 LE | count × (id u32 LE, w f32
/// LE)` repeated, what VE-BLOCK Eblocks and gather fragments hold — is
/// fragment `k` = vertex `svertices[k]` with the ids and weight bits at
/// `span(k)`; an edge list (an adjacency run) is `ids` and `weights`
/// alone, with no svertex. Decoders overwrite a caller-owned value, so a
/// scan that decodes extent after extent reuses one set of allocations.
#[derive(Default)]
pub struct FragmentColumns {
    pub svertices: Vec<u32>,
    /// End of each fragment's run in `ids` / `weights`.
    pub ends: Vec<usize>,
    pub ids: Vec<u32>,
    /// `f32` bit patterns.
    pub weights: Vec<u32>,
    /// The BV list decoder's per-list buffers.
    lists: bv::ListScratch,
}

impl FragmentColumns {
    /// Drops every fragment and edge, keeping the allocations.
    pub fn clear(&mut self) {
        self.svertices.clear();
        self.ends.clear();
        self.ids.clear();
        self.weights.clear();
    }

    /// Number of fragments (0 for an edge list).
    pub fn len(&self) -> usize {
        self.svertices.len()
    }

    /// True if there are no fragments.
    pub fn is_empty(&self) -> bool {
        self.svertices.is_empty()
    }

    /// Fragment `k`'s run in `ids` / `weights`.
    pub fn span(&self, k: usize) -> std::ops::Range<usize> {
        (if k == 0 { 0 } else { self.ends[k - 1] })..self.ends[k]
    }

    /// Length of the raw extent these columns stand for: 8 bytes per
    /// fragment header and per edge.
    pub fn raw_len(&self) -> usize {
        8 * (self.svertices.len() + self.ids.len())
    }

    /// Parses a raw extent of `kind` into the columns (overwritten): the
    /// one raw parser of this crate. An edge list must be whole 8-byte
    /// pairs; every fragment header is checked against the bytes that
    /// remain.
    pub fn parse(&mut self, kind: ExtentKind, raw: &[u8]) -> Result<(), CodecError> {
        self.clear();
        if kind == ExtentKind::Edges {
            if !raw.len().is_multiple_of(8) {
                return Err(CodecError::Corrupt("edge list not a multiple of 8 bytes"));
            }
            self.push_edges(raw);
            return Ok(());
        }
        let mut rest = raw;
        while let Some((head, body)) = rest.split_first_chunk::<8>() {
            let sv = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let count = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            let need = (count as usize)
                .checked_mul(8)
                .ok_or(CodecError::Corrupt("fragment edge count overflows"))?;
            let (edges, tail) = body
                .split_at_checked(need)
                .ok_or(CodecError::Corrupt("fragment edges truncated"))?;
            self.svertices.push(sv);
            self.push_edges(edges);
            self.ends.push(self.ids.len());
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(CodecError::Corrupt("fragment header truncated"));
        }
        Ok(())
    }

    /// Appends whole `id | weight` pairs to the id and weight columns.
    fn push_edges(&mut self, pairs: &[u8]) {
        for e in pairs.chunks_exact(8) {
            self.ids.push(u32::from_le_bytes([e[0], e[1], e[2], e[3]]));
            self.weights
                .push(u32::from_le_bytes([e[4], e[5], e[6], e[7]]));
        }
    }

    /// Serialises the columns back into the raw extent of `kind`.
    fn to_raw(&self, kind: ExtentKind) -> Vec<u8> {
        let mut raw = Vec::with_capacity(self.raw_len());
        self.write_raw(kind, &mut raw);
        raw
    }

    /// Appends the raw extent of `kind` the columns stand for to `raw`.
    fn write_raw(&self, kind: ExtentKind, raw: &mut Vec<u8>) {
        let mut at = raw.len();
        raw.resize(at + self.raw_len(), 0);
        let mut put = |a: u32, b: u32| {
            raw[at..at + 4].copy_from_slice(&a.to_le_bytes());
            raw[at + 4..at + 8].copy_from_slice(&b.to_le_bytes());
            at += 8;
        };
        if kind == ExtentKind::Edges {
            self.ids
                .iter()
                .zip(&self.weights)
                .for_each(|(&id, &w)| put(id, w));
        }
        for (k, &sv) in self.svertices.iter().enumerate() {
            let span = self.span(k);
            put(sv, span.len() as u32);
            let pairs = self.ids[span.clone()].iter().zip(&self.weights[span]);
            pairs.for_each(|(&id, &w)| put(id, w));
        }
    }
}

/// Encodes one adjacency-structured extent under `choice`, returning the
/// tagged physical bytes to store. Must not be called with
/// [`CodecChoice::None`] — the raw, untagged path belongs to the caller.
///
/// The choice's one candidate is kept only when strictly smaller than the
/// raw bytes (or when the structure does not parse, raw), so incompressible
/// data never grows by more than the tag.
pub fn encode_extent(choice: CodecChoice, kind: ExtentKind, raw: &[u8]) -> Vec<u8> {
    let mut encoder = ExtentEncoder::default();
    encoder.encode(choice, kind, raw);
    encoder.out
}

/// [`encode_extent`] for a caller that codes extent after extent: the
/// encoder keeps its working buffers and its output buffer, so a store
/// build under either codec allocates only while they grow.
#[derive(Default)]
pub struct ExtentEncoder {
    /// A raw extent parsed into columns.
    cols: FragmentColumns,
    bv: bv::Encoder,
    out: Vec<u8>,
}

impl ExtentEncoder {
    /// The bytes [`encode_extent`] returns for `raw`, valid until the next
    /// call.
    pub fn encode(&mut self, choice: CodecChoice, kind: ExtentKind, raw: &[u8]) -> &[u8] {
        debug_assert!(!choice.is_none(), "None bypasses extent framing");
        let coded = self.cols.parse(kind, raw).is_ok()
            && code(choice, kind, &self.cols, &mut self.bv, &mut self.out);
        // The coded body stays only when strictly shorter than `raw`.
        if !coded || self.out.len() > raw.len() {
            self.out.clear();
            self.out.push(TAG_RAW);
            self.out.extend_from_slice(raw);
        }
        &self.out
    }

    /// The bytes [`ExtentEncoder::encode`] returns for the raw extent of
    /// `kind` that `cols` stand for, coded from the columns as they are:
    /// raw bytes are serialised only for the raw fallback.
    pub fn encode_columns(
        &mut self,
        choice: CodecChoice,
        kind: ExtentKind,
        cols: &FragmentColumns,
    ) -> &[u8] {
        debug_assert!(!choice.is_none(), "None bypasses extent framing");
        let coded = code(choice, kind, cols, &mut self.bv, &mut self.out);
        if !coded || self.out.len() > cols.raw_len() {
            self.out.clear();
            self.out.push(TAG_RAW);
            cols.write_raw(kind, &mut self.out);
        }
        &self.out
    }
}

/// Overwrites `out` with `cols` coded under `choice` behind its tag; false
/// where the tier does not code this structure (then `out` is garbage).
fn code(
    choice: CodecChoice,
    kind: ExtentKind,
    cols: &FragmentColumns,
    bv: &mut bv::Encoder,
    out: &mut Vec<u8>,
) -> bool {
    out.clear();
    match choice {
        CodecChoice::None => false,
        CodecChoice::Gaps => {
            out.push(TAG_GAPS);
            match kind {
                ExtentKind::Fragments => gaps::encode_fragments(cols, out),
                ExtentKind::Edges => gaps::encode_edges(cols, out),
            }
            true
        }
        CodecChoice::Bv => {
            out.push(TAG_BV);
            match kind {
                ExtentKind::Fragments => bv::encode_fragments(cols, bv, out),
                ExtentKind::Edges => bv::encode_edges(cols, bv, out),
            }
            .is_ok()
        }
    }
}

/// Decodes an extent produced by [`encode_extent`] into `cols`
/// (overwritten): the one decode of a stored extent, raw-tagged or coded,
/// with no raw stream in between. The columns must stand for exactly
/// `logical_len` raw bytes.
pub fn decode_columns(
    kind: ExtentKind,
    coded: &[u8],
    logical_len: usize,
    cols: &mut FragmentColumns,
) -> Result<(), CodecError> {
    let (&tag, body) = coded.split_first().ok_or(CodecError::Truncated)?;
    cols.clear();
    match (tag, kind) {
        (TAG_RAW, kind) => {
            check_len(logical_len, body.len())?;
            cols.parse(kind, body)?;
        }
        (TAG_GAPS, ExtentKind::Fragments) => gaps::decode_fragments(body, cols)?,
        (TAG_GAPS, ExtentKind::Edges) => gaps::decode_edges(body, cols)?,
        (TAG_BV, ExtentKind::Fragments) => bv::decode_fragments(body, cols, logical_len / 8)?,
        (TAG_BV, ExtentKind::Edges) => bv::decode_edges(body, cols, logical_len / 8)?,
        _ => return Err(CodecError::Corrupt("unknown extent tag")),
    }
    check_len(logical_len, cols.raw_len())
}

/// Decodes an extent produced by [`encode_extent`] back into its raw
/// `logical_len` bytes: a raw-tagged extent's bytes as stored, a coded
/// one's [`decode_columns`] serialised. The stores read columns; this
/// serves callers that want the bytes.
pub fn decode_extent(
    kind: ExtentKind,
    coded: &[u8],
    logical_len: usize,
) -> Result<Vec<u8>, CodecError> {
    if let Some((&TAG_RAW, body)) = coded.split_first() {
        return raw_body(body, logical_len);
    }
    let mut cols = FragmentColumns::default();
    decode_columns(kind, coded, logical_len, &mut cols)?;
    Ok(cols.to_raw(kind))
}

fn check_len(expected: usize, got: usize) -> Result<(), CodecError> {
    if got != expected {
        return Err(CodecError::LengthMismatch { expected, got });
    }
    Ok(())
}

/// Encodes a self-describing blob frame:
/// `tag u8 | logical varint | payload_len varint | payload`.
///
/// Blobs have no adjacency structure, so gaps never applies; under
/// [`CodecChoice::Gaps`] the payload stays raw (only framed), while
/// [`CodecChoice::Bv`] hands blobs to the block codec — spills and
/// checkpoints are a real share of physical bytes and BV is meant to be
/// the everything-tightened tier. Must not be called with
/// [`CodecChoice::None`].
pub fn encode_blob_frame(choice: CodecChoice, raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_blob_frame_into(choice, raw, &mut out);
    out
}

/// [`encode_blob_frame`], appending the frame to `out`: a caller that
/// frames chunk after chunk keeps one buffer.
pub fn encode_blob_frame_into(choice: CodecChoice, raw: &[u8], out: &mut Vec<u8>) {
    debug_assert!(!choice.is_none(), "None bypasses blob framing");
    let at = out.len();
    if choice == CodecChoice::Bv {
        // Code in place, then rotate the header in front of the payload.
        block::compress(raw, out);
        let coded = out.len() - at;
        if coded < raw.len() {
            out.push(TAG_BLOCK);
            varint::write_u64(out, raw.len() as u64);
            varint::write_u64(out, coded as u64);
            let header = out.len() - at - coded;
            out[at..].rotate_right(header);
            return;
        }
        out.truncate(at);
    }
    out.push(TAG_RAW);
    varint::write_u64(out, raw.len() as u64);
    varint::write_u64(out, raw.len() as u64);
    out.extend_from_slice(raw);
}

/// Decodes one blob frame at `*pos`, advancing past it; returns the raw
/// payload bytes.
pub fn decode_blob_frame(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    decode_blob_frame_into(buf, pos, &mut out)?;
    Ok(out)
}

/// [`decode_blob_frame`], appending the raw payload to `out`; on error
/// `out` is left as it was.
pub fn decode_blob_frame_into(
    buf: &[u8],
    pos: &mut usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    let logical = varint::read_u64(buf, pos)? as usize;
    let payload_len = varint::read_u64(buf, pos)? as usize;
    if payload_len > buf.len() - *pos {
        return Err(CodecError::Truncated);
    }
    let payload = &buf[*pos..*pos + payload_len];
    *pos += payload_len;
    let at = out.len();
    let decoded = match tag {
        TAG_RAW => check_len(logical, payload.len()).map(|()| out.extend_from_slice(payload)),
        TAG_BLOCK => block::decompress(payload, logical, out),
        _ => Err(CodecError::Corrupt("unknown blob frame tag")),
    };
    if decoded.is_err() {
        out.truncate(at);
    }
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_edges(n: u32) -> Vec<u8> {
        let mut raw = Vec::new();
        for i in 0..n {
            raw.extend_from_slice(&(10 + 2 * i).to_le_bytes());
            raw.extend_from_slice(&1.0f32.to_le_bytes());
        }
        raw
    }

    #[test]
    fn choice_parses_and_labels() {
        for c in CodecChoice::ALL {
            assert_eq!(c.label().parse::<CodecChoice>().unwrap(), c);
        }
        for gone in ["block", "auto", "zstd"] {
            let err = gone.parse::<CodecChoice>().unwrap_err();
            assert!(err.contains("none|gaps|bv"), "{err}");
        }
        // The deleted choices' tag bytes stay unassigned.
        assert_eq!(CodecChoice::from_tag(2), None);
        assert_eq!(CodecChoice::from_tag(3), None);
        assert_eq!(CodecChoice::Bv.tag(), 4);
        assert_eq!(CodecChoice::default(), CodecChoice::None);
    }

    #[test]
    fn extent_roundtrips_all_choices_and_kinds() {
        let edges = raw_edges(200);
        let mut frags = Vec::new();
        frags.extend_from_slice(&3u32.to_le_bytes());
        frags.extend_from_slice(&200u32.to_le_bytes());
        frags.extend_from_slice(&edges);
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            for (kind, raw) in [(ExtentKind::Edges, &edges), (ExtentKind::Fragments, &frags)] {
                let coded = encode_extent(choice, kind, raw);
                assert_eq!(
                    &decode_extent(kind, &coded, raw.len()).unwrap(),
                    raw,
                    "{choice:?}/{kind:?}"
                );
            }
        }
    }

    fn raw_frags(frags: &[(u32, &[(u32, f32)])]) -> Vec<u8> {
        let mut raw = Vec::new();
        for &(sv, edges) in frags {
            raw.extend_from_slice(&sv.to_le_bytes());
            raw.extend_from_slice(&(edges.len() as u32).to_le_bytes());
            for (d, w) in edges {
                raw.extend_from_slice(&d.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        raw
    }

    #[test]
    fn fragment_columns_are_what_decode_extent_serialises() {
        let long: Vec<(u32, f32)> = (0..300).map(|i| (7 + 3 * i, 1.0)).collect();
        let streams = [
            Vec::new(),
            raw_frags(&[(5, &[])]),
            // Duplicate ids with different weights, NaN and -0.0 weights.
            raw_frags(&[
                (2, &[(9, 1.0), (9, 2.5), (11, f32::NAN)]),
                (4, &[(0, -0.0)]),
            ]),
            raw_frags(&[(1, &long), (3, &long[..200]), (8, &long[50..])]),
            // A non-monotone list: gap-coded, but raw-tagged under bv.
            raw_frags(&[(6, &[(40, 1.0), (3, 1.0)])]),
        ];
        // The same lists as bare edge runs: every stream's pairs, headers
        // dropped.
        let runs: Vec<Vec<u8>> = [
            &[][..],
            &[(9, 1.0), (9, 2.5), (11, f32::NAN)],
            &long,
            &[(40, 1.0), (3, 1.0)],
        ]
        .iter()
        .map(|edges| raw_frags(&[(0, edges)])[8..].to_vec())
        .collect();
        let cases = streams
            .iter()
            .map(|raw| (ExtentKind::Fragments, raw))
            .chain(runs.iter().map(|raw| (ExtentKind::Edges, raw)));
        // One set of columns for every decode: nothing may leak across.
        let mut cols = FragmentColumns::default();
        for (kind, raw) in cases {
            for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
                let coded = encode_extent(choice, kind, raw);
                decode_columns(kind, &coded, raw.len(), &mut cols).unwrap();
                let at = format!("{choice:?}/{kind:?} tag {}", coded[0]);
                assert_eq!(&cols.to_raw(kind), raw, "{at}");
                assert_eq!(
                    &decode_extent(kind, &coded, raw.len()).unwrap(),
                    raw,
                    "{at}"
                );
                let bad_len = decode_columns(kind, &coded, raw.len() + 8, &mut cols);
                assert!(
                    matches!(bad_len, Err(CodecError::LengthMismatch { .. })),
                    "{at}: {bad_len:?}"
                );
            }
            let mut tagged = vec![TAG_RAW];
            tagged.extend_from_slice(raw);
            decode_columns(kind, &tagged, raw.len(), &mut cols).unwrap();
            assert_eq!(&cols.to_raw(kind), raw);
            if kind == ExtentKind::Edges {
                assert!(
                    cols.is_empty() && cols.ends.is_empty(),
                    "an edge run has no svertex"
                );
            }
        }
        let non_monotone = &streams[4];
        let coded = encode_extent(CodecChoice::Bv, ExtentKind::Fragments, non_monotone);
        assert_eq!(coded[0], TAG_RAW);
        // A header that overruns the raw bytes, a torn edge pair, and a
        // block-codec tag.
        let mut torn = vec![TAG_RAW];
        torn.extend_from_slice(&non_monotone[..non_monotone.len() - 4]);
        for kind in [ExtentKind::Fragments, ExtentKind::Edges] {
            assert!(decode_columns(kind, &torn, torn.len() - 1, &mut cols).is_err());
            assert_eq!(
                decode_columns(kind, &[TAG_BLOCK, 0], 1, &mut cols),
                Err(CodecError::Corrupt("unknown extent tag"))
            );
        }
    }

    #[test]
    fn raw_parse_rejects_what_does_not_fit() {
        let raw = raw_frags(&[(1, &[(2, 1.0)]), (7, &[(8, 1.0), (9, 1.0)])]);
        let mut cols = FragmentColumns::default();
        cols.parse(ExtentKind::Fragments, &raw).unwrap();
        assert_eq!((cols.len(), cols.ids.len()), (2, 3));
        cols.parse(ExtentKind::Fragments, &[]).unwrap();
        assert!(cols.is_empty() && cols.ids.is_empty());
        // Every cut is an error, never a panic, except at a fragment
        // boundary, which is a clean shorter stream; an edge list parses
        // exactly at whole pairs.
        for cut in 1..raw.len() {
            let fragments = cols.parse(ExtentKind::Fragments, &raw[..cut]);
            assert_eq!(fragments.is_ok(), cut == 16, "cut {cut}");
            let edges = cols.parse(ExtentKind::Edges, &raw[..cut]);
            assert_eq!(edges.is_ok(), cut % 8 == 0, "cut {cut}");
        }
        // A count larger than the extent — up to u32::MAX — is an error,
        // not an allocation or an out-of-bounds slice.
        for count in [3u32, 1 << 20, u32::MAX] {
            let mut bad = raw.clone();
            bad[4..8].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    cols.parse(ExtentKind::Fragments, &bad),
                    Err(CodecError::Corrupt(_))
                ),
                "count {count}"
            );
        }
    }

    #[test]
    fn gaps_extent_beats_raw_on_sorted_edges() {
        let raw = raw_edges(1000);
        let coded = encode_extent(CodecChoice::Gaps, ExtentKind::Edges, &raw);
        assert!(
            coded.len() * 3 < raw.len(),
            "{} vs {}",
            coded.len(),
            raw.len()
        );
        assert_eq!(coded[0], TAG_GAPS);
    }

    #[test]
    fn empty_extent_roundtrips() {
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            let coded = encode_extent(choice, ExtentKind::Edges, &[]);
            assert_eq!(decode_extent(ExtentKind::Edges, &coded, 0).unwrap(), vec![]);
        }
    }

    #[test]
    fn bv_extent_beats_gaps_on_sorted_edges() {
        // The tier's reason to exist, at the extent level: bit-granular
        // codes under the same tag framing.
        let raw = raw_edges(1000);
        let gaps = encode_extent(CodecChoice::Gaps, ExtentKind::Edges, &raw);
        let bv = encode_extent(CodecChoice::Bv, ExtentKind::Edges, &raw);
        assert_eq!(bv[0], TAG_BV);
        assert!(
            bv.len() < gaps.len(),
            "bv {} vs gaps {}",
            bv.len(),
            gaps.len()
        );
        assert_eq!(
            decode_extent(ExtentKind::Edges, &bv, raw.len()).unwrap(),
            raw
        );
    }

    #[test]
    fn block_is_a_blob_frame_tag_not_an_extent_tag() {
        let raw = raw_edges(50);
        let mut coded = vec![TAG_BLOCK];
        block::compress(&raw, &mut coded);
        assert_eq!(
            decode_extent(ExtentKind::Edges, &coded, raw.len()),
            Err(CodecError::Corrupt("unknown extent tag"))
        );
    }

    #[test]
    fn bv_blob_frames_use_block_codec() {
        let a = vec![7u8; 4096];
        let framed = encode_blob_frame(CodecChoice::Bv, &a);
        assert!(framed.len() < 64, "{}", framed.len());
        let mut pos = 0;
        assert_eq!(decode_blob_frame(&framed, &mut pos).unwrap(), a);
    }

    #[test]
    fn incompressible_extent_falls_back_to_raw() {
        // Not a valid edge-list length, so the candidate is an error.
        let raw = vec![0xA7u8, 0x13, 0x55];
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            let coded = encode_extent(choice, ExtentKind::Edges, &raw);
            assert_eq!(coded[0], TAG_RAW);
            assert_eq!(decode_extent(ExtentKind::Edges, &coded, 3).unwrap(), raw);
        }
    }

    #[test]
    fn blob_frames_roundtrip_and_concatenate() {
        let a = vec![7u8; 4096];
        let b: Vec<u8> = (0..255u8).collect();
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            let mut stream = encode_blob_frame(choice, &a);
            stream.extend(encode_blob_frame(choice, &b));
            let mut pos = 0;
            assert_eq!(decode_blob_frame(&stream, &mut pos).unwrap(), a);
            assert_eq!(decode_blob_frame(&stream, &mut pos).unwrap(), b);
            assert_eq!(pos, stream.len());
        }
    }

    #[test]
    fn appended_blob_frames_match_fresh_ones() {
        let a = vec![7u8; 4096];
        let b: Vec<u8> = (0..255u8).collect();
        for choice in [CodecChoice::Gaps, CodecChoice::Bv] {
            let mut stream = vec![1, 2, 3];
            encode_blob_frame_into(choice, &a, &mut stream);
            encode_blob_frame_into(choice, &b, &mut stream);
            let fresh = [encode_blob_frame(choice, &a), encode_blob_frame(choice, &b)];
            assert_eq!(stream[3..], fresh.concat(), "{choice:?}");
            let (mut pos, mut out) = (3, vec![9]);
            decode_blob_frame_into(&stream, &mut pos, &mut out).unwrap();
            decode_blob_frame_into(&stream, &mut pos, &mut out).unwrap();
            assert_eq!(out, [&[9][..], &a, &b].concat(), "{choice:?}");
            // A frame cut short leaves `out` as it was.
            let (mut pos, mut out) = (3, vec![9]);
            let cut = &stream[..stream.len() - 1];
            decode_blob_frame_into(cut, &mut pos, &mut out).unwrap();
            assert!(decode_blob_frame_into(cut, &mut pos, &mut out).is_err());
            assert_eq!(out, [&[9][..], &a].concat(), "{choice:?}");
        }
        // A block payload that decodes short of its logical length is an
        // error after bytes were appended: they are taken back.
        let mut short = Vec::new();
        block::compress(&[5u8; 64], &mut short);
        let mut bad = vec![TAG_BLOCK];
        varint::write_u64(&mut bad, 65);
        varint::write_u64(&mut bad, short.len() as u64);
        bad.extend_from_slice(&short);
        let mut out = vec![9];
        assert!(decode_blob_frame_into(&bad, &mut 0, &mut out).is_err());
        assert_eq!(out, [9]);
    }

    #[test]
    fn blob_frame_truncation_errors() {
        let frame = encode_blob_frame(CodecChoice::Bv, &[1u8; 100]);
        let mut pos = 0;
        assert!(decode_blob_frame(&frame[..frame.len() - 1], &mut pos).is_err());
    }
}
