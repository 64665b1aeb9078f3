//! The one extent file under every edge store.
//!
//! An *extent* is a variable-length run of raw bytes — one Eblock's
//! fragment stream, one vertex's edge run, one destination's gather
//! fragment — stored back to back with its neighbours in one file. This
//! module owns everything the edge stores used to repeat:
//!
//! * [`ExtentWriter`] appends extent `i` raw (no codec: bytes on disk
//!   are exactly the caller's) or as one tagged coded extent, accounts
//!   physical and logical bytes, and keeps one cumulative physical
//!   offset per extent — plus one cumulative logical offset when a
//!   codec makes the two differ. Empty extents cost no I/O.
//! * [`ExtentFile`] is the frozen result: the offsets become Elias-Fano
//!   sequences (~2 bytes per extent, always — the directory does not
//!   depend on the codec), any extent is located by one select and read
//!   and decoded alone, and views for other jobs share the directory.
//!   An Eblock scan decodes its extent straight into caller-owned
//!   [`FragmentColumns`], with no raw stream in between.
//! * [`fragments`] walks a raw
//!   `id u32 | count u32 | count × (id u32, weight f32)` stream (a gather
//!   fragment). Every header is checked against the bytes that remain:
//!   the bytes come from disk, raw under [`CodecChoice::None`] and in
//!   raw-tagged extents under a codec.
//!
//! The stores on top own what differs between them: file names, what an
//! extent index means (Eblock column, local vertex, destination key),
//! `X_j`, the gather sweep cursor.

use crate::stats::{AccessClass, IoStats};
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::ef::EliasFano;
use hybridgraph_codec::{
    decode_extent, decode_fragments, CodecChoice, ExtentEncoder, ExtentKind, FragmentColumns,
};
use std::io;
use std::ops::Range;
use std::sync::Arc;

/// Byte cost of one fragment's auxiliary data: vertex id + edge count.
pub const FRAGMENT_AUX_BYTES: u64 = 8;

pub(crate) fn invalid(why: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Accepts extents in index order and accumulates the directory.
pub struct ExtentWriter {
    file: VfsFile,
    codec: CodecChoice,
    kind: ExtentKind,
    extents: usize,
    /// Cumulative physical bytes after each appended extent (`[0]` = 0).
    phys: Vec<u64>,
    /// Cumulative logical bytes; kept only under a codec (without one
    /// they would repeat `phys`).
    logi: Option<Vec<u64>>,
    /// Codes extent after extent in the same buffers.
    encoder: ExtentEncoder,
}

impl ExtentWriter {
    /// Creates (or truncates) `name` for exactly `extents` extents of
    /// record structure `kind`.
    pub fn create(
        vfs: &dyn Vfs,
        name: &str,
        kind: ExtentKind,
        codec: CodecChoice,
        extents: usize,
    ) -> io::Result<ExtentWriter> {
        let offsets = || {
            let mut v = Vec::with_capacity(extents + 1);
            v.push(0);
            v
        };
        Ok(ExtentWriter {
            file: vfs.create(name)?,
            codec,
            kind,
            extents,
            phys: offsets(),
            logi: (!codec.is_none()).then(offsets),
            encoder: ExtentEncoder::default(),
        })
    }

    /// Appends the next extent as one sequential write and returns the
    /// physical bytes it occupies. An empty extent costs zero bytes and
    /// no I/O — only the directory remembers it.
    pub fn append(&mut self, raw: &[u8]) -> io::Result<u64> {
        let stored = if raw.is_empty() {
            0
        } else if self.codec.is_none() {
            self.file.append(AccessClass::SeqWrite, raw)?;
            raw.len() as u64
        } else {
            let coded = self.encoder.encode(self.codec, self.kind, raw);
            self.file
                .append_coded(AccessClass::SeqWrite, coded, raw.len() as u64)?;
            coded.len() as u64
        };
        self.phys.push(self.phys[self.phys.len() - 1] + stored);
        if let Some(logi) = &mut self.logi {
            logi.push(logi[logi.len() - 1] + raw.len() as u64);
        }
        Ok(stored)
    }

    /// Freezes the directory. Errs unless exactly the announced number of
    /// extents was appended.
    pub fn finish(self) -> io::Result<ExtentFile> {
        let appended = self.phys.len() - 1;
        if appended != self.extents {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("wrote {appended} of {} extents", self.extents),
            ));
        }
        let freeze = |offsets: &[u64]| EliasFano::build(offsets).map_err(invalid);
        Ok(ExtentFile {
            file: self.file,
            codec: self.codec,
            kind: self.kind,
            dir: Arc::new(Directory {
                phys: freeze(&self.phys)?,
                logi: self.logi.as_deref().map(freeze).transpose()?,
            }),
        })
    }
}

/// Cumulative offsets, `extents + 1` entries each.
struct Directory {
    phys: EliasFano,
    /// Absent without a codec: logical offsets equal physical ones.
    logi: Option<EliasFano>,
}

impl Directory {
    fn logical(&self) -> &EliasFano {
        self.logi.as_ref().unwrap_or(&self.phys)
    }
}

/// An immutable file of extents plus its resident directory.
pub struct ExtentFile {
    file: VfsFile,
    codec: CodecChoice,
    kind: ExtentKind,
    dir: Arc<Directory>,
}

impl ExtentFile {
    /// Number of extents.
    pub fn len(&self) -> usize {
        self.dir.phys.len() as usize - 1
    }

    /// True if the file holds no extents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The codec extents were written (and are read) with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// Physical byte range of extent `i` in the file (no I/O).
    pub fn range(&self, i: usize) -> Range<u64> {
        let (start, end) = self.dir.phys.pair(i as u64);
        start..end
    }

    /// Physical stored bytes of extent `i` (no I/O).
    pub fn stored_bytes(&self, i: usize) -> u64 {
        let r = self.range(i);
        r.end - r.start
    }

    /// Logical (uncompressed) bytes of extent `i` (no I/O).
    pub fn logical_bytes(&self, i: usize) -> u64 {
        let (start, end) = self.dir.logical().pair(i as u64);
        end - start
    }

    /// Total physical bytes of all extents.
    pub fn total_stored_bytes(&self) -> u64 {
        self.dir.phys.get(self.dir.phys.len() - 1)
    }

    /// Total logical bytes of all extents.
    pub fn total_logical_bytes(&self) -> u64 {
        let logi = self.dir.logical();
        logi.get(logi.len() - 1)
    }

    /// Resident bytes of the directory.
    pub fn memory_bytes(&self) -> u64 {
        self.dir.phys.memory_bytes() + self.dir.logi.as_ref().map_or(0, |l| l.memory_bytes())
    }

    /// Reads extent `i` and returns its raw (decoded) bytes, accounting
    /// the physical extent — and the logical bytes beside it — in `class`.
    /// Only that extent is read and decoded; an empty one costs no I/O.
    pub fn read(&self, i: usize, class: AccessClass) -> io::Result<Vec<u8>> {
        let mut raw = Vec::new();
        self.read_into(i, self.range(i), class, &mut raw)?;
        Ok(raw)
    }

    /// [`ExtentFile::read`] of `at = range(i)` into a caller-owned buffer
    /// (overwritten), so a scan that reads extent after extent reuses one
    /// allocation.
    pub(crate) fn read_into(
        &self,
        i: usize,
        at: Range<u64>,
        class: AccessClass,
        raw: &mut Vec<u8>,
    ) -> io::Result<()> {
        let stored = (at.end - at.start) as usize;
        raw.clear();
        if stored == 0 {
            return Ok(());
        }
        if self.codec.is_none() {
            raw.resize(stored, 0);
            return self.file.read_at(class, at.start, raw);
        }
        let logical = self.logical_bytes(i);
        let coded = self.file.read_vec_coded(class, at.start, stored, logical)?;
        *raw = decode_extent(self.kind, &coded, logical as usize).map_err(invalid)?;
        Ok(())
    }

    /// Reads fragment-stream extent `i` — accounted exactly as
    /// [`ExtentFile::read`] accounts it — and decodes it straight into
    /// `cols`, with no raw stream in between. `bytes` holds what was read;
    /// both buffers are the caller's, reused extent after extent.
    pub(crate) fn read_fragments(
        &self,
        i: usize,
        class: AccessClass,
        bytes: &mut Vec<u8>,
        cols: &mut FragmentColumns,
    ) -> io::Result<()> {
        debug_assert_eq!(self.kind, ExtentKind::Fragments);
        let at = self.range(i);
        bytes.resize((at.end - at.start) as usize, 0);
        let decoded = if bytes.is_empty() {
            cols.parse_raw(&[])
        } else if self.codec.is_none() {
            self.file.read_at(class, at.start, bytes)?;
            cols.parse_raw(bytes)
        } else {
            let logical = self.logical_bytes(i);
            self.file.read_coded_at(class, at.start, bytes, logical)?;
            decode_fragments(bytes, logical as usize, cols)
        };
        decoded.map_err(invalid)
    }

    /// Charges modeled bytes that move no data (seek padding); see
    /// [`VfsFile::charge`].
    pub fn charge(&self, class: AccessClass, bytes: u64) {
        self.file.charge(class, bytes);
    }

    /// A view over the same bytes whose I/O is recorded into `stats`
    /// instead of the builder's sink. The directory is shared; the file
    /// is immutable once finished, so concurrent views are safe.
    pub fn share_view(&self, stats: Arc<IoStats>) -> ExtentFile {
        ExtentFile {
            file: self.file.with_stats(stats),
            codec: self.codec,
            kind: self.kind,
            dir: Arc::clone(&self.dir),
        }
    }
}

/// Appends one fragment header (`id`, `count`) to a raw fragment stream;
/// the caller appends the `count` 8-byte `(id, weight)` pairs.
#[inline]
pub fn push_fragment_header(raw: &mut Vec<u8>, id: u32, count: usize) {
    raw.extend_from_slice(&id.to_le_bytes());
    raw.extend_from_slice(&(count as u32).to_le_bytes());
}

/// Walks a raw fragment stream, yielding each fragment's vertex id and
/// its `count × 8` payload bytes. A header that does not fit the bytes
/// that remain yields one `InvalidData` error and ends the walk.
pub fn fragments(raw: &[u8]) -> Fragments<'_> {
    Fragments { rest: raw }
}

/// Iterator returned by [`fragments`].
pub struct Fragments<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Fragments<'a> {
    type Item = io::Result<(u32, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let parsed = self.rest.split_first_chunk::<8>().and_then(|(head, body)| {
            let id = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            let count = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            let payload = (count as usize).checked_mul(8)?;
            let (payload, rest) = body.split_at_checked(payload)?;
            Some((id, payload, rest))
        });
        Some(match parsed {
            Some((id, payload, rest)) => {
                self.rest = rest;
                Ok((id, payload))
            }
            None => {
                self.rest = &[];
                Err(invalid("fragment header overruns its extent"))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    /// One grid cell: the fragments of a (src block, dst block) Eblock.
    type Cell = Vec<(u32, Vec<(u32, f32)>)>;

    fn raw_cell(frags: &Cell) -> Vec<u8> {
        let mut raw = Vec::new();
        for (sv, edges) in frags {
            push_fragment_header(&mut raw, *sv, edges.len());
            for (d, w) in edges {
                raw.extend_from_slice(&d.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        raw
    }

    fn parse_cell(raw: &[u8]) -> Cell {
        fragments(raw)
            .map(|f| {
                let (sv, payload) = f.unwrap();
                let edges = payload
                    .chunks_exact(8)
                    .map(|p| {
                        (
                            u32::from_le_bytes(p[..4].try_into().unwrap()),
                            f32::from_le_bytes(p[4..].try_into().unwrap()),
                        )
                    })
                    .collect();
                (sv, edges)
            })
            .collect()
    }

    /// A deterministic little grid: block size 4, vertex v = 4·b + k,
    /// each src vertex points at (v·7 mod n) and its successor.
    fn grid_cells(nblocks: u32) -> Vec<Cell> {
        let n = nblocks * 4;
        let mut cells = vec![Vec::new(); (nblocks * nblocks) as usize];
        for v in 0..n {
            let mut dsts = [(v * 7) % n, ((v * 7) % n + 1) % n];
            dsts.sort_unstable();
            for db in 0..nblocks {
                let in_block: Vec<(u32, f32)> = dsts
                    .iter()
                    .filter(|&&d| d / 4 == db)
                    .map(|&d| (d, 1.5 + v as f32))
                    .collect();
                if !in_block.is_empty() {
                    cells[(v / 4 * nblocks + db) as usize].push((v, in_block));
                }
            }
        }
        cells
    }

    fn write(vfs: &MemVfs, codec: CodecChoice, raws: &[Vec<u8>]) -> ExtentFile {
        let mut w =
            ExtentWriter::create(vfs, "x", ExtentKind::Fragments, codec, raws.len()).unwrap();
        for raw in raws {
            w.append(raw).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrips_across_codecs_and_matches_input() {
        let cells = grid_cells(4);
        let raws: Vec<Vec<u8>> = cells.iter().map(raw_cell).collect();
        for codec in CodecChoice::ALL {
            let f = write(&MemVfs::new(), codec, &raws);
            assert_eq!(f.len(), cells.len());
            for (i, (cell, raw)) in cells.iter().zip(&raws).enumerate() {
                let got = f.read(i, AccessClass::SeqRead).unwrap();
                assert_eq!(&got, raw, "{codec:?} extent {i}");
                assert_eq!(&parse_cell(&got), cell, "{codec:?} extent {i}");
                assert_eq!(f.logical_bytes(i), raw.len() as u64);
                assert_eq!(f.range(i).end - f.range(i).start, f.stored_bytes(i));
            }
            assert_eq!(
                f.total_logical_bytes(),
                raws.iter().map(|r| r.len() as u64).sum::<u64>()
            );
            assert_eq!(f.range(cells.len() - 1).end, f.total_stored_bytes());
        }
    }

    /// Decoded columns serialised back into the raw stream.
    fn raw_of(cols: &FragmentColumns) -> Vec<u8> {
        let mut raw = Vec::new();
        for k in 0..cols.len() {
            let span = cols.span(k);
            push_fragment_header(&mut raw, cols.svertices[k], span.len());
            for (id, w) in cols.ids[span.clone()].iter().zip(&cols.weights[span]) {
                raw.extend_from_slice(&id.to_le_bytes());
                raw.extend_from_slice(&w.to_le_bytes());
            }
        }
        raw
    }

    #[test]
    fn fragment_reads_decode_what_read_returns_and_account_the_same() {
        let mut raws: Vec<Vec<u8>> = grid_cells(4).iter().map(raw_cell).collect();
        // Duplicate ids with different weights and a NaN weight; then a
        // non-monotone list, which the bv writer stores raw-tagged.
        raws.push(raw_cell(&vec![(
            3,
            vec![(5, 1.0), (5, -2.0), (6, f32::NAN)],
        )]));
        raws.push(raw_cell(&vec![(9, vec![(40, 1.0), (3, 1.0)])]));
        let last = raws.len() - 1;
        let (mut bytes, mut cols) = (Vec::new(), FragmentColumns::default());
        for codec in CodecChoice::ALL {
            let f = write(&MemVfs::new(), codec, &raws);
            if codec == CodecChoice::Bv {
                assert_eq!(f.stored_bytes(last), f.logical_bytes(last) + 1);
            }
            // Back to front, one set of buffers: empty and small extents
            // follow big ones and must leave nothing of them behind.
            for i in (0..raws.len()).rev() {
                let (by_read, by_cols) = (Arc::new(IoStats::new()), Arc::new(IoStats::new()));
                let raw = f
                    .share_view(Arc::clone(&by_read))
                    .read(i, AccessClass::SeqRead)
                    .unwrap();
                f.share_view(Arc::clone(&by_cols))
                    .read_fragments(i, AccessClass::SeqRead, &mut bytes, &mut cols)
                    .unwrap();
                assert_eq!(raw_of(&cols), raw, "{codec:?} extent {i}");
                assert_eq!(
                    by_cols.snapshot(),
                    by_read.snapshot(),
                    "{codec:?} extent {i}"
                );
            }
        }
    }

    #[test]
    fn wrong_extent_count_is_rejected() {
        let vfs = MemVfs::new();
        let mut w =
            ExtentWriter::create(&vfs, "x", ExtentKind::Fragments, CodecChoice::None, 9).unwrap();
        w.append(&[]).unwrap();
        assert_eq!(
            w.finish().err().map(|e| e.kind()),
            Some(io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn coded_file_shrinks_and_accounts_both_sides() {
        let raws: Vec<Vec<u8>> = grid_cells(4).iter().map(raw_cell).collect();
        let vfs = MemVfs::new();
        let bv = write(&vfs, CodecChoice::Bv, &raws);
        assert!(bv.total_stored_bytes() < bv.total_logical_bytes());
        let snap = vfs.stats().snapshot();
        assert_eq!(snap.seq_write_bytes, bv.total_stored_bytes());
        assert_eq!(snap.seq_write_logical_bytes, bv.total_logical_bytes());
        // A random per-extent read accounts only that extent, both
        // sides — through a shared view, into the view's own sink.
        let stats = Arc::new(IoStats::new());
        let view = bv.share_view(Arc::clone(&stats));
        let i = 2 * 4 + 1;
        assert_eq!(view.read(i, AccessClass::RandRead).unwrap(), raws[i]);
        let d = stats.snapshot();
        assert_eq!(d.rand_read_bytes, bv.stored_bytes(i));
        assert_eq!(d.rand_read_logical_bytes, bv.logical_bytes(i));
        assert_eq!(d.total_bytes(), d.rand_read_bytes);
        assert_eq!(
            vfs.stats().snapshot(),
            snap,
            "view I/O leaked to the builder"
        );
        // Without a codec one directory serves both sides.
        let plain = write(&MemVfs::new(), CodecChoice::None, &raws);
        assert_eq!(plain.total_stored_bytes(), plain.total_logical_bytes());
        assert_eq!(plain.logical_bytes(i), plain.stored_bytes(i));
        assert!(plain.memory_bytes() < bv.memory_bytes());
    }

    #[test]
    fn ef_directory_beats_flat_index_and_empty_extents_are_free() {
        // A sparse 64x64 grid (most cells empty) — EF's home turf.
        let nblocks = 64u32;
        let raws: Vec<Vec<u8>> = (0..nblocks * nblocks)
            .map(|c| {
                let (sb, db) = (c / nblocks, c % nblocks);
                if db == (sb * 7 + 1) % nblocks {
                    raw_cell(&vec![(sb * 4, vec![(db * 4, 1.0), (db * 4 + 1, 1.0)])])
                } else {
                    Vec::new()
                }
            })
            .collect();
        let vfs = MemVfs::new();
        let f = write(&vfs, CodecChoice::Bv, &raws);
        let flat = 16 * u64::from(nblocks) * u64::from(nblocks);
        assert!(
            f.memory_bytes() * 4 < flat,
            "ef {} vs flat {flat}",
            f.memory_bytes()
        );
        assert_eq!(vfs.stats().snapshot().seq_write_ops, u64::from(nblocks));
        let before = vfs.stats().snapshot();
        assert!(f.read(2, AccessClass::SeqRead).unwrap().is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
    }

    #[test]
    fn degenerate_files() {
        for codec in CodecChoice::ALL {
            // Zero extents: a worker with no vertices.
            let vfs = MemVfs::new();
            let f = write(&vfs, codec, &[]);
            assert!(f.is_empty());
            assert_eq!((f.total_stored_bytes(), f.total_logical_bytes()), (0, 0));
            // All-empty grid: a directory, no bytes, no I/O.
            let f = write(&vfs, codec, &vec![Vec::new(); 9]);
            assert_eq!((f.len(), f.total_stored_bytes()), (9, 0));
            for i in 0..9 {
                assert_eq!(f.range(i), 0..0);
                assert!(f.read(i, AccessClass::RandRead).unwrap().is_empty());
            }
            assert_eq!(vfs.stats().snapshot(), IoStats::new().snapshot());
            // Single extent.
            let raw = raw_cell(&vec![(3, vec![(5, 0.5), (9, 2.0)])]);
            let f = write(&vfs, codec, std::slice::from_ref(&raw));
            assert_eq!(f.read(0, AccessClass::SeqRead).unwrap(), raw, "{codec:?}");
            assert_eq!(f.range(0), 0..f.total_stored_bytes());
        }
    }

    #[test]
    fn fragment_walk_rejects_what_does_not_fit() {
        let raw = raw_cell(&vec![(1, vec![(2, 1.0)]), (7, vec![(8, 1.0), (9, 1.0)])]);
        assert_eq!(fragments(&raw).count(), 2);
        assert!(fragments(&[]).next().is_none());
        // Every truncation is an error (or a clean shorter stream at a
        // fragment boundary), never a panic.
        for cut in 1..raw.len() {
            let items: Vec<_> = fragments(&raw[..cut]).collect();
            let clean = cut == 16;
            assert_eq!(items.iter().all(|f| f.is_ok()), clean, "cut {cut}");
            assert!(items.iter().rev().skip(1).all(|f| f.is_ok()), "cut {cut}");
        }
        // A count larger than the extent — up to u32::MAX — is an error,
        // not an allocation or an out-of-bounds slice.
        for count in [3u32, 1 << 20, u32::MAX] {
            let mut bad = raw.clone();
            bad[4..8].copy_from_slice(&count.to_le_bytes());
            let err = fragments(&bad).find_map(|f| f.err()).expect("must err");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "count {count}");
        }
    }
}
