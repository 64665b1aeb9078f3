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
//!   [`ExtentFile::read_columns`] is the one read: it decodes extent `i`,
//!   raw or coded, straight into caller-owned [`FragmentColumns`] with
//!   no raw stream in between — a fragment stream (Eblock, gather
//!   fragment) or a bare edge run (adjacency), whichever `kind` the file
//!   holds. Every header is checked against the bytes that remain: the
//!   bytes come from disk.
//!
//! The stores on top own what differs between them: file names, what an
//! extent index means (Eblock column, local vertex, destination key),
//! `X_j`, the gather sweep cursor.
//!
//! The Elias-Fano directory is what lets the `billion` experiment drive
//! this writer with a src-major `nblocks²` grid and build a ≥10⁹-edge
//! catalog entry in a ~40 MB working set: for a 4096² grid it holds
//! 44.1 MB of index where a flat 16-byte-per-cell directory needs
//! 268.4 MB. The price is that an extent is located by a select, not a
//! `Vec` index.

use crate::stats::{AccessClass, IoStats};
use crate::vfs::{Vfs, VfsFile};
use hybridgraph_codec::ef::EliasFano;
use hybridgraph_codec::{decode_columns, CodecChoice, ExtentEncoder, ExtentKind, FragmentColumns};
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

    /// Swaps the writer's encoder with `encoder`: a build that writes file
    /// after file swaps its one encoder in after `create` and out before
    /// `finish`, so the encoder's buffers grow once, not once a file.
    pub(crate) fn swap_encoder(&mut self, encoder: &mut ExtentEncoder) {
        std::mem::swap(&mut self.encoder, encoder);
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
        Ok(self.record(stored, raw.len() as u64))
    }

    /// [`ExtentWriter::append`] of the raw extent `cols` stand for, coded
    /// from the columns as they are, under a codec only (without one the
    /// raw bytes are what the file holds): raw bytes are serialised only
    /// where the coded extent would not be shorter.
    pub fn append_columns(&mut self, cols: &FragmentColumns) -> io::Result<u64> {
        debug_assert!(!self.codec.is_none(), "None appends raw bytes");
        let logical = cols.raw_len() as u64;
        let stored = if logical == 0 {
            0
        } else {
            let coded = self.encoder.encode_columns(self.codec, self.kind, cols);
            self.file
                .append_coded(AccessClass::SeqWrite, coded, logical)?;
            coded.len() as u64
        };
        Ok(self.record(stored, logical))
    }

    /// Enters the next extent, `stored` physical and `logical` logical
    /// bytes, into the directory; returns `stored`.
    fn record(&mut self, stored: u64, logical: u64) -> u64 {
        self.phys.push(self.phys[self.phys.len() - 1] + stored);
        if let Some(logi) = &mut self.logi {
            logi.push(logi[logi.len() - 1] + logical);
        }
        stored
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

    /// Reads extent `i` as stored into `bytes` (overwritten), accounted as
    /// [`ExtentFile::read_columns`] accounts it. Without a codec `bytes`
    /// is the raw extent, which a caller may take as it stands.
    pub(crate) fn read_stored(
        &self,
        i: usize,
        class: AccessClass,
        bytes: &mut Vec<u8>,
    ) -> io::Result<()> {
        let at = self.range(i);
        bytes.resize((at.end - at.start) as usize, 0);
        if bytes.is_empty() {
            Ok(())
        } else if self.codec.is_none() {
            self.file.read_at(class, at.start, bytes)
        } else {
            let logical = self.logical_bytes(i);
            self.file.read_coded_at(class, at.start, bytes, logical)
        }
    }

    /// Reads extent `i` alone — its physical bytes accounted in `class`,
    /// the logical bytes beside them; an empty extent costs no I/O — and
    /// decodes it once into `cols`. `bytes` holds what was read; both
    /// buffers are the caller's, reused extent after extent. A failed
    /// read leaves `cols` empty; bytes that do not decode as the file's
    /// kind are `InvalidData`.
    pub fn read_columns(
        &self,
        i: usize,
        class: AccessClass,
        bytes: &mut Vec<u8>,
        cols: &mut FragmentColumns,
    ) -> io::Result<()> {
        cols.clear();
        self.read_stored(i, class, bytes)?;
        let decoded = if self.codec.is_none() || bytes.is_empty() {
            cols.parse(self.kind, bytes)
        } else {
            decode_columns(self.kind, bytes, self.logical_bytes(i) as usize, cols)
        };
        decoded.map_err(|e| {
            cols.clear();
            invalid(e)
        })
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

    fn parse_cell(cols: &FragmentColumns) -> Cell {
        (0..cols.len())
            .map(|k| {
                let span = cols.span(k);
                let edges = cols.ids[span.clone()]
                    .iter()
                    .zip(&cols.weights[span])
                    .map(|(&d, &w)| (d, f32::from_bits(w)))
                    .collect();
                (cols.svertices[k], edges)
            })
            .collect()
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

    /// Extent `i` read into fresh columns and serialised back.
    fn read_raw(f: &ExtentFile, i: usize, class: AccessClass) -> Vec<u8> {
        let mut cols = FragmentColumns::default();
        f.read_columns(i, class, &mut Vec::new(), &mut cols)
            .unwrap();
        raw_of(&cols)
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
        let (mut bytes, mut cols) = (Vec::new(), FragmentColumns::default());
        for codec in CodecChoice::ALL {
            let f = write(&MemVfs::new(), codec, &raws);
            assert_eq!(f.len(), cells.len());
            for (i, (cell, raw)) in cells.iter().zip(&raws).enumerate() {
                f.read_columns(i, AccessClass::SeqRead, &mut bytes, &mut cols)
                    .unwrap();
                assert_eq!(&raw_of(&cols), raw, "{codec:?} extent {i}");
                assert_eq!(&parse_cell(&cols), cell, "{codec:?} extent {i}");
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

    #[test]
    fn column_reads_match_input_and_account_one_extent() {
        let mut raws: Vec<Vec<u8>> = grid_cells(4).iter().map(raw_cell).collect();
        // Duplicate ids with different weights and a NaN weight; then a
        // non-monotone list, which the bv writer stores raw-tagged.
        raws.push(raw_cell(&vec![(
            3,
            vec![(5, 1.0), (5, -2.0), (6, f32::NAN)],
        )]));
        raws.push(raw_cell(&vec![(9, vec![(40, 1.0), (3, 1.0)])]));
        let last = raws.len() - 1;
        // The same pairs as bare edge runs, headers dropped.
        let runs: Vec<Vec<u8>> = raws
            .iter()
            .map(|raw| raw.chunks(8).skip(1).flatten().copied().collect())
            .collect();
        let (mut bytes, mut cols) = (Vec::new(), FragmentColumns::default());
        for codec in CodecChoice::ALL {
            for (kind, raws) in [(ExtentKind::Fragments, &raws), (ExtentKind::Edges, &runs)] {
                let vfs = MemVfs::new();
                let mut w = ExtentWriter::create(&vfs, "x", kind, codec, raws.len()).unwrap();
                for raw in raws {
                    w.append(raw).unwrap();
                }
                let f = w.finish().unwrap();
                if codec == CodecChoice::Bv {
                    assert_eq!(f.stored_bytes(last), f.logical_bytes(last) + 1);
                }
                // Back to front, one set of buffers: empty and small
                // extents follow big ones and must leave nothing of them
                // behind.
                for i in (0..raws.len()).rev() {
                    let stats = Arc::new(IoStats::new());
                    f.share_view(Arc::clone(&stats))
                        .read_columns(i, AccessClass::SeqRead, &mut bytes, &mut cols)
                        .unwrap();
                    let at = format!("{codec:?} {kind:?} extent {i}");
                    match kind {
                        ExtentKind::Fragments => assert_eq!(raw_of(&cols), raws[i], "{at}"),
                        ExtentKind::Edges => {
                            assert!(cols.is_empty(), "{at}");
                            let pairs = raws[i].chunks(8);
                            assert!(pairs.eq(cols
                                .ids
                                .iter()
                                .zip(&cols.weights)
                                .map(|(d, w)| { [d.to_le_bytes(), w.to_le_bytes()].concat() })));
                        }
                    }
                    let d = stats.snapshot();
                    assert_eq!(d.seq_read_bytes, f.stored_bytes(i), "{at}");
                    assert_eq!(d.seq_read_logical_bytes, f.logical_bytes(i), "{at}");
                    assert_eq!(d.seq_read_ops, u64::from(f.stored_bytes(i) > 0), "{at}");
                    assert_eq!(d.total_bytes(), d.seq_read_bytes, "{at}");
                }
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
        assert_eq!(read_raw(&view, i, AccessClass::RandRead), raws[i]);
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
        assert!(read_raw(&f, 2, AccessClass::SeqRead).is_empty());
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
                assert!(read_raw(&f, i, AccessClass::RandRead).is_empty());
            }
            assert_eq!(vfs.stats().snapshot(), IoStats::new().snapshot());
            // Single extent.
            let raw = raw_cell(&vec![(3, vec![(5, 0.5), (9, 2.0)])]);
            let f = write(&vfs, codec, std::slice::from_ref(&raw));
            assert_eq!(read_raw(&f, 0, AccessClass::SeqRead), raw, "{codec:?}");
            assert_eq!(f.range(0), 0..f.total_stored_bytes());
        }
    }
}
