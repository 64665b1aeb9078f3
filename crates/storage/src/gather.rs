//! Destination-grouped edge store for the per-vertex pull baseline.
//!
//! The disk-extended GraphLab PowerGraph analogue gathers along in-edges:
//! when a destination vertex `v` is pulled, the worker hosting edges
//! `(u → v)` reads `v`'s local in-edge fragment and then each source
//! vertex `u`'s value. Fragments are keyed by destination and accessed in
//! whatever order requests arrive — point lookups, i.e. random reads. This
//! access pattern (together with per-source random value reads through the
//! LRU cache) is what makes the `pull` baseline I/O-hostile on disk, the
//! effect Table 5 and Fig. 10 quantify.

use crate::extent::{self, ExtentFile, ExtentWriter};
use crate::record::Record;
use crate::stats::{seek_pad, AccessClass, IoStats};
use crate::vfs::Vfs;
use hybridgraph_codec::{CodecChoice, ExtentKind};
use hybridgraph_graph::{Graph, VertexId};
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One worker's out-edges regrouped by destination vertex.
pub struct GatherStore {
    /// Extent `v` is the one-fragment stream `v | count | (src, w)…` of
    /// destination vertex `v`, empty (no bytes, no I/O) where `v` has no
    /// local in-edge — the directory is the destination index.
    file: ExtentFile,
    /// Destinations with at least one local in-edge.
    destinations: usize,
    /// End offset of the last fragment read. Requests that sweep the file
    /// in ascending order (a dense gather, e.g. PageRank's every-vertex
    /// superstep) amount to one sequential pass — the paper's ext-edge
    /// observation that "edges are read only once per superstep" — while
    /// backward jumps are genuine seeks. Atomic only so the store is
    /// `Sync` for cross-job sharing; each job's view has its own cursor
    /// and each view is read by one worker thread at a time.
    cursor: AtomicU64,
}

/// An in-edge as seen from the destination: the source and the weight.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct InEdge {
    /// The source vertex (always local to the store's worker).
    pub src: VertexId,
    /// The edge weight.
    pub weight: f32,
}

impl GatherStore {
    /// Builds the store without compression; see
    /// [`GatherStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        local: Range<u32>,
    ) -> io::Result<GatherStore> {
        GatherStore::build_with(vfs, name, graph, local, CodecChoice::None)
    }

    /// Builds the store from the out-edges of the vertices in `local`,
    /// regrouped by destination and written sequentially. With a codec,
    /// each fragment is one coded extent (sources within a fragment are
    /// ascending, so delta-gap coding applies).
    pub fn build_with(
        vfs: &dyn Vfs,
        name: &str,
        graph: &Graph,
        local: Range<u32>,
        codec: CodecChoice,
    ) -> io::Result<GatherStore> {
        // Collect (dst, src, weight) triples for local sources.
        let mut triples: Vec<(u32, u32, f32)> = Vec::new();
        for u in local {
            for e in graph.out_edges(VertexId(u)) {
                triples.push((e.dst.0, u, e.weight));
            }
        }
        // Stable: parallel edges (the generators keep multigraph
        // duplicates) stay in CSR order, so the file bytes are defined.
        triples.sort_by_key(|&(dst, src, _)| (dst, src));

        let n = graph.num_vertices();
        let mut w = ExtentWriter::create(vfs, name, ExtentKind::Fragments, codec, n)?;
        let mut runs = triples.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut destinations = 0;
        let mut buf = Vec::new();
        for dst in 0..n as u32 {
            buf.clear();
            if let Some(run) = runs.next_if(|run| run[0].0 == dst) {
                extent::push_fragment_header(&mut buf, dst, run.len());
                for &(_, src, weight) in run {
                    (src, weight).append_to(&mut buf);
                }
                destinations += 1;
            }
            w.append(&buf)?;
        }
        Ok(GatherStore {
            file: w.finish()?,
            destinations,
            cursor: AtomicU64::new(0),
        })
    }

    /// A read-only view over the same on-disk bytes whose I/O is recorded
    /// into `stats` instead of the builder's sink. The directory is
    /// Arc-shared; the sweep cursor is per-view (each job tracks its own
    /// sequential/seek classification).
    pub fn share_view(&self, stats: Arc<IoStats>) -> GatherStore {
        GatherStore {
            file: self.file.share_view(stats),
            destinations: self.destinations,
            cursor: AtomicU64::new(0),
        }
    }

    /// The physical byte range of `dst`'s fragment; `None` if this worker
    /// hosts no in-edge of it.
    fn locate(&self, dst: VertexId) -> Option<Range<u64>> {
        let at = (dst.index() < self.file.len()).then(|| self.file.range(dst.index()))?;
        (!at.is_empty()).then_some(at)
    }

    /// True if this worker hosts in-edges of `dst` (no I/O).
    pub fn has_in_edges(&self, dst: VertexId) -> bool {
        self.locate(dst).is_some()
    }

    /// In-memory footprint of the fragment index as the pull baseline's
    /// memory curves (Fig. 14(d)) model it: 20 bytes per destination —
    /// key, offset, edge count and stored length held flat, as a
    /// GraphLab-style per-vertex index would. What this store keeps
    /// resident (the Elias-Fano directory) is smaller.
    pub fn index_memory_bytes(&self) -> u64 {
        self.destinations as u64 * 20
    }

    /// Reads the in-edge fragment of `dst`; empty if none.
    pub fn in_edges_of(&self, dst: VertexId) -> io::Result<Vec<InEdge>> {
        let mut scratch = InEdgeScratch::default();
        self.read_in_edges(dst, &mut scratch)?;
        Ok(scratch.edges)
    }

    /// [`GatherStore::in_edges_of`] decoded into caller-owned `scratch`,
    /// so serving request after request allocates nothing per vertex.
    pub fn read_in_edges<'a>(
        &self,
        dst: VertexId,
        scratch: &'a mut InEdgeScratch,
    ) -> io::Result<&'a [InEdge]> {
        scratch.edges.clear();
        let Some(at) = self.locate(dst) else {
            return Ok(&scratch.edges);
        };
        // Forward reads continue a sweep (sequential); backward jumps are
        // scattered seeks charged at sector granularity (on the physical
        // bytes the device actually moves).
        let forward = at.start >= self.cursor.load(Ordering::Relaxed);
        let class = if forward {
            AccessClass::SeqRead
        } else {
            AccessClass::RandRead
        };
        self.file
            .read_into(dst.index(), at.clone(), class, &mut scratch.raw)?;
        if !forward {
            self.file
                .charge(AccessClass::RandRead, seek_pad(at.end - at.start));
        }
        self.cursor.store(at.end, Ordering::Relaxed);
        let mut fragments = extent::fragments(&scratch.raw);
        match (fragments.next().transpose()?, fragments.next()) {
            (Some((id, payload)), None) if id == dst.0 => {
                scratch.edges.extend(payload.chunks_exact(8).map(|pair| {
                    let (src, weight) = <(VertexId, f32)>::read_from(pair);
                    InEdge { src, weight }
                }));
                Ok(&scratch.edges)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("gather extent of {dst} is not one fragment of it"),
            )),
        }
    }
}

/// Reusable buffers behind [`GatherStore::read_in_edges`]: the raw
/// fragment and the in-edges decoded from it.
#[derive(Default)]
pub struct InEdgeScratch {
    raw: Vec<u8>,
    edges: Vec<InEdge>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::gen;

    #[test]
    fn fragments_match_reverse_graph() {
        let g = gen::uniform(30, 200, 8);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..30).unwrap();
        for v in g.vertices() {
            let mut got: Vec<u32> = s
                .in_edges_of(v)
                .unwrap()
                .iter()
                .map(|ie| ie.src.0)
                .collect();
            got.sort();
            let mut want: Vec<u32> = g
                .edges()
                .filter(|(_, e)| e.dst == v)
                .map(|(src, _)| src.0)
                .collect();
            want.sort();
            assert_eq!(got, want, "in-edges of {v}");
        }
    }

    #[test]
    fn partial_range_only_local_sources() {
        let g = gen::uniform(20, 100, 3);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..10).unwrap();
        for v in g.vertices() {
            for ie in s.in_edges_of(v).unwrap() {
                assert!(ie.src.0 < 10, "source must be local");
            }
        }
    }

    #[test]
    fn ascending_reads_are_sequential_backward_jumps_seek() {
        let g = gen::uniform(40, 300, 4);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..40).unwrap();
        // An ascending sweep over all destinations: only sequential reads.
        let before = vfs.stats().snapshot();
        for v in 0..40u32 {
            s.in_edges_of(VertexId(v)).unwrap();
        }
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.rand_read_bytes, 0, "ascending sweep must be sequential");
        assert!(d.seq_read_bytes > 0);
        // A backward jump is a seek, padded to a sector.
        let lo = (0..40u32).find(|&v| s.has_in_edges(VertexId(v))).unwrap();
        let before = vfs.stats().snapshot();
        let edges = s.in_edges_of(VertexId(lo)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        let payload = 8 + edges.len() as u64 * 8;
        assert_eq!(d.rand_read_bytes, payload.max(crate::stats::SECTOR_BYTES));
    }

    #[test]
    fn missing_destination_is_free() {
        let g = gen::chain(5); // edges i -> i+1 only
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..5).unwrap();
        assert!(!s.has_in_edges(VertexId(0)));
        assert!(s.has_in_edges(VertexId(1)));
        let before = vfs.stats().snapshot();
        assert!(s.in_edges_of(VertexId(0)).unwrap().is_empty());
        assert_eq!(vfs.stats().snapshot(), before);
    }

    #[test]
    fn coded_store_reads_back_identically() {
        let g = gen::uniform(50, 700, 6);
        let vfs = MemVfs::new();
        let plain = GatherStore::build(&vfs, "gather", &g, 0..50).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let cvfs = MemVfs::new();
            let s = GatherStore::build_with(&cvfs, "gather", &g, 0..50, codec).unwrap();
            assert_eq!(s.destinations, plain.destinations);
            for v in g.vertices() {
                assert_eq!(
                    s.in_edges_of(v).unwrap(),
                    plain.in_edges_of(v).unwrap(),
                    "{codec:?} dst {v}"
                );
            }
        }
        // Gaps shrinks the file; logical accounting still sees raw bytes.
        let cvfs = MemVfs::new();
        GatherStore::build_with(&cvfs, "gather", &g, 0..50, CodecChoice::Gaps).unwrap();
        let snap = cvfs.stats().snapshot();
        assert!(snap.seq_write_bytes < snap.seq_write_logical_bytes);
    }

    #[test]
    fn weights_preserved() {
        let g = gen::randomize_weights(&gen::cycle(6), 2.0, 3.0, 1);
        let vfs = MemVfs::new();
        let s = GatherStore::build(&vfs, "gather", &g, 0..6).unwrap();
        let ie = s.in_edges_of(VertexId(1)).unwrap();
        assert_eq!(ie.len(), 1);
        assert_eq!(ie[0].src, VertexId(0));
        assert!((2.0..3.0).contains(&ie[0].weight));
    }
}
