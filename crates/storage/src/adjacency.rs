//! Push-side on-disk adjacency layout.
//!
//! Giraph-style systems keep the graph as an adjacency list on disk and
//! read each vertex's out-edges when it computes (paper §3, §5.2 — edges
//! are "organized in an adjacency list, like Giraph, and used in push").
//! Per-vertex edge offsets are kept in memory (as Hama does), so a
//! superstep that computes only a subset of vertices reads only those
//! vertices' edge bytes — this is the paper's `IO(Ē^t)` term, which shrinks
//! with the active set for traversal algorithms.

use crate::extent::{ExtentFile, ExtentWriter};
use crate::record::Record;
use crate::stats::{AccessClass, IoStats};
use crate::vfs::Vfs;
use hybridgraph_codec::{CodecChoice, ExtentKind};
use hybridgraph_graph::{Edge, Graph, VertexId};
use std::io;
use std::ops::Range;
use std::sync::Arc;

impl Record for Edge {
    const BYTES: usize = 8;

    #[inline]
    fn write_to(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.dst.0.to_le_bytes());
        out[4..].copy_from_slice(&self.weight.to_le_bytes());
    }

    #[inline]
    fn read_from(inp: &[u8]) -> Self {
        Edge {
            dst: VertexId(u32::from_le_bytes(inp[..4].try_into().unwrap())),
            weight: f32::from_le_bytes(inp[4..8].try_into().unwrap()),
        }
    }
}

/// On-disk adjacency lists for one worker's contiguous vertex range.
pub struct AdjacencyStore {
    /// Extent `i` is vertex `base + i`'s edge run; its logical length is
    /// `out_degree · 8`, so the directory doubles as the degree column.
    file: ExtentFile,
    base: u32,
}

impl AdjacencyStore {
    /// Builds the store without compression; see
    /// [`AdjacencyStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        range: Range<u32>,
    ) -> io::Result<AdjacencyStore> {
        AdjacencyStore::build_with(vfs, name, graph, range, CodecChoice::None)
    }

    /// Builds the store for the vertices in `range`, writing their edge
    /// runs sequentially (this is the `adj` loading path of Fig. 16).
    /// With a codec, each run is one coded extent — CSR rows are
    /// dst-sorted, so delta-gap coding applies.
    pub fn build_with(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        range: Range<u32>,
        codec: CodecChoice,
    ) -> io::Result<AdjacencyStore> {
        let mut w = ExtentWriter::create(vfs, name, ExtentKind::Edges, codec, range.len())?;
        let mut buf = Vec::new();
        for v in range.clone() {
            buf.clear();
            for e in graph.out_edges(VertexId(v)) {
                e.append_to(&mut buf);
            }
            w.append(&buf)?;
        }
        Ok(AdjacencyStore {
            file: w.finish()?,
            base: range.start,
        })
    }

    /// A read-only view over the same on-disk bytes whose I/O is recorded
    /// into `stats` instead of the builder's sink. The extent directory is
    /// Arc-shared, so views are cheap; the underlying file is immutable
    /// after [`AdjacencyStore::build_with`], so concurrent views from
    /// different jobs are safe.
    pub fn share_view(&self, stats: Arc<IoStats>) -> AdjacencyStore {
        AdjacencyStore {
            file: self.file.share_view(stats),
            base: self.base,
        }
    }

    /// First vertex id owned.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.file.len()
    }

    /// True if the store holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn local(&self, v: VertexId) -> usize {
        debug_assert!(
            v.0 >= self.base && ((v.0 - self.base) as usize) < self.len(),
            "vertex {v} outside store range"
        );
        (v.0 - self.base) as usize
    }

    /// Out-degree of `v` (from the in-memory directory; no I/O).
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.edge_bytes_of(v) / Edge::BYTES as u64) as usize
    }

    /// Logical edge bytes of `v` (`out_degree · 8`; no I/O).
    pub fn edge_bytes_of(&self, v: VertexId) -> u64 {
        self.file.logical_bytes(self.local(v))
    }

    /// Physical bytes `v`'s edge run occupies on disk (no I/O). Equal to
    /// [`AdjacencyStore::edge_bytes_of`] without a codec.
    pub fn stored_bytes_of(&self, v: VertexId) -> u64 {
        self.file.stored_bytes(self.local(v))
    }

    /// Resident bytes of the in-memory extent directory.
    pub fn index_memory_bytes(&self) -> u64 {
        self.file.memory_bytes()
    }

    /// Total logical edge bytes in the store.
    pub fn total_edge_bytes(&self) -> u64 {
        self.file.total_logical_bytes()
    }

    /// Total physical bytes the store's file occupies.
    pub fn total_stored_bytes(&self) -> u64 {
        self.file.total_stored_bytes()
    }

    /// The codec the store was built with.
    pub fn codec(&self) -> CodecChoice {
        self.file.codec()
    }

    /// Reads the out-edges of `v`, decoded into caller-owned `scratch`: a
    /// scan over many vertices allocates nothing per vertex.
    ///
    /// `class` is chosen by the caller: `SeqRead` when visiting vertices in
    /// id order (the push scan), `RandRead` for out-of-order access.
    pub fn read_edges<'a>(
        &self,
        v: VertexId,
        class: AccessClass,
        scratch: &'a mut EdgeScratch,
    ) -> io::Result<&'a [Edge]> {
        let i = self.local(v);
        self.file
            .read_into(i, self.file.range(i), class, &mut scratch.raw)?;
        scratch.edges.clear();
        scratch
            .edges
            .extend(scratch.raw.chunks_exact(Edge::BYTES).map(Edge::read_from));
        Ok(&scratch.edges)
    }
}

/// Reusable buffers behind [`AdjacencyStore::read_edges`]: the raw edge
/// run and the edges decoded from it.
#[derive(Default)]
pub struct EdgeScratch {
    raw: Vec<u8>,
    edges: Vec<Edge>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::gen;

    fn edges(s: &AdjacencyStore, v: VertexId, class: AccessClass) -> Vec<Edge> {
        let mut scratch = EdgeScratch::default();
        s.read_edges(v, class, &mut scratch).unwrap().to_vec()
    }

    #[test]
    fn edge_record_roundtrip() {
        let mut buf = [0u8; 8];
        let e = Edge::weighted(VertexId(9), 2.5);
        e.write_to(&mut buf);
        assert_eq!(Edge::read_from(&buf), e);
    }

    #[test]
    fn build_and_read_back() {
        let g = gen::uniform(40, 200, 3);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 10..30).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.base(), 10);
        for v in 10..30u32 {
            let v = VertexId(v);
            assert_eq!(s.out_degree(v), g.out_degree(v));
            assert_eq!(edges(&s, v, AccessClass::SeqRead), g.out_edges(v));
        }
    }

    #[test]
    fn total_bytes_matches_degrees() {
        let g = gen::uniform(20, 100, 1);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..20).unwrap();
        let expect: u64 = (0..20u32)
            .map(|v| g.out_degree(VertexId(v)) as u64 * 8)
            .sum();
        assert_eq!(s.total_edge_bytes(), expect);
        assert_eq!(vfs.stats().snapshot().seq_write_bytes, expect);
    }

    #[test]
    fn selective_read_accounts_only_touched_bytes() {
        let g = gen::uniform(20, 100, 2);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..20).unwrap();
        let before = vfs.stats().snapshot();
        edges(&s, VertexId(5), AccessClass::SeqRead);
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, s.edge_bytes_of(VertexId(5)));
    }

    #[test]
    fn coded_store_reads_back_identically() {
        let g = gen::uniform(80, 1200, 5);
        let vfs = MemVfs::new();
        let plain = AdjacencyStore::build(&vfs, "adj", &g, 0..80).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let cvfs = MemVfs::new();
            let s = AdjacencyStore::build_with(&cvfs, "adj", &g, 0..80, codec).unwrap();
            assert_eq!(s.total_edge_bytes(), plain.total_edge_bytes());
            for v in 0..80u32 {
                let v = VertexId(v);
                assert_eq!(s.out_degree(v), g.out_degree(v), "{codec:?}");
                assert_eq!(s.edge_bytes_of(v), plain.edge_bytes_of(v));
                assert_eq!(edges(&s, v, AccessClass::SeqRead), g.out_edges(v));
            }
        }
        // Gaps shrinks the file and the coded read accounts both sides.
        let cvfs = MemVfs::new();
        let s = AdjacencyStore::build_with(&cvfs, "adj", &g, 0..80, CodecChoice::Gaps).unwrap();
        assert!(s.total_stored_bytes() * 2 < s.total_edge_bytes());
        let wsnap = cvfs.stats().snapshot();
        assert_eq!(wsnap.seq_write_bytes, s.total_stored_bytes());
        assert_eq!(wsnap.seq_write_logical_bytes, s.total_edge_bytes());
        let v = VertexId(7);
        let before = cvfs.stats().snapshot();
        edges(&s, v, AccessClass::RandRead);
        let d = cvfs.stats().snapshot().delta(&before);
        assert_eq!(d.rand_read_bytes, s.stored_bytes_of(v));
        assert_eq!(d.rand_read_logical_bytes, s.edge_bytes_of(v));
    }

    #[test]
    fn directory_is_elias_fano_under_every_codec() {
        let g = gen::uniform(300, 6000, 9);
        let flat = 301 * 8; // one u64 offset per vertex, plus the end
        for codec in CodecChoice::ALL {
            let vfs = MemVfs::new();
            let s = AdjacencyStore::build_with(&vfs, "a", &g, 0..300, codec).unwrap();
            // Two sequences under a codec (physical + logical offsets,
            // the latter standing in for a 4-byte degree column), one
            // without: either way well under the flat directory.
            assert!(
                s.index_memory_bytes() * 2 < flat + if codec.is_none() { 0 } else { 300 * 4 },
                "{codec:?}: ef {} vs flat {flat}",
                s.index_memory_bytes()
            );
            let view = s.share_view(Arc::new(IoStats::default()));
            for v in (0..300u32).step_by(17) {
                let v = VertexId(v);
                assert_eq!(edges(&s, v, AccessClass::RandRead), g.out_edges(v));
                assert_eq!(edges(&view, v, AccessClass::RandRead), g.out_edges(v));
                assert_eq!(s.stored_bytes_of(v) == 0, g.out_degree(v) == 0);
            }
        }
    }

    #[test]
    fn empty_range_builds_an_empty_store() {
        let g = gen::uniform(10, 30, 1);
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build_with(&vfs, "a", &g, 4..4, CodecChoice::Gaps).unwrap();
        assert!(s.is_empty());
        assert_eq!((s.total_edge_bytes(), s.total_stored_bytes()), (0, 0));
        assert_eq!(vfs.stats().snapshot(), IoStats::default().snapshot());
    }

    #[test]
    fn zero_degree_vertices_are_free() {
        let g = gen::star(10); // only vertex 0 has out-edges
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build(&vfs, "adj", &g, 0..10).unwrap();
        let before = vfs.stats().snapshot();
        assert!(edges(&s, VertexId(5), AccessClass::SeqRead).is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
        assert_eq!(s.out_degree(VertexId(0)), 9);
    }
}
