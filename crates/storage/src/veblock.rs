//! The VE-BLOCK on-disk graph layout (paper §4.1).
//!
//! VE-BLOCK separates a worker's graph into:
//!
//! * **Vblocks** — fixed-size ranges of vertices (values live in the
//!   [`ValueStore`](crate::value_store::ValueStore), block-aligned),
//! * **Eblocks** `g_{j,i}` — for each local source block `b_j` and each
//!   *global* destination block `b_i`, the edges from `b_j` into `b_i`,
//!   clustered per source vertex into **fragments**
//!   `(svertex id, edge count, edges…)`,
//! * **metadata `X_j`** — per source block: vertex count, total in/out
//!   degree, a bitmap over destination blocks (bit `i` set iff `g_{j,i}` is
//!   non-empty) and the dynamic responding indicator `res` maintained by
//!   the engine.
//!
//! Answering a pull request for block `b_i` reads each non-empty `g_{j,i}`
//! sequentially (edge bytes + per-fragment auxiliary bytes — the paper's
//! `IO(E^t)` and `IO(F^t)`) plus one random svertex-value read per
//! responding fragment (`IO(V^t_rr)`).

use crate::extent::{self, ExtentFile, ExtentWriter};
use crate::record::Record;
use crate::stats::{AccessClass, IoStats};
use crate::vfs::Vfs;
use hybridgraph_codec::{CodecChoice, ExtentEncoder, ExtentKind, FragmentColumns};
use hybridgraph_graph::{BlockId, BlockLayout, Edge, Graph, VertexId, WorkerId};
use std::io;
use std::sync::Arc;

pub use crate::extent::FRAGMENT_AUX_BYTES;

/// Static per-Vblock metadata (the paper's `X_j`, minus the dynamic `res`
/// flag, which the engine owns because it changes every superstep).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Number of vertices in the block (`#`).
    pub vertex_count: u32,
    /// Total in-degree of the block's vertices (`ind`).
    pub in_degree: u64,
    /// Total out-degree of the block's vertices (`outd`).
    pub out_degree: u64,
    /// Bit `i` set iff there are edges from this block to global block `i`.
    bitmap: Vec<u64>,
}

impl BlockMeta {
    fn new(vertex_count: u32, num_blocks: usize) -> Self {
        BlockMeta {
            vertex_count,
            in_degree: 0,
            out_degree: 0,
            bitmap: vec![0; num_blocks.div_ceil(64)],
        }
    }

    fn set_bit(&mut self, i: BlockId) {
        self.bitmap[i.index() / 64] |= 1 << (i.index() % 64);
    }

    /// True if the block has at least one edge into global block `i`.
    pub fn has_edges_to(&self, i: BlockId) -> bool {
        (self.bitmap[i.index() / 64] >> (i.index() % 64)) & 1 == 1
    }

    /// In-memory footprint of this metadata entry in bytes (counted toward
    /// the memory-usage curves of Fig. 14(d) and Fig. 23).
    pub fn memory_bytes(&self) -> u64 {
        4 + 8 + 8 + self.bitmap.len() as u64 * 8 + 1 // fields + res flag
    }
}

/// Where Eblock `g_{j,i}` sits in its block file, computed from the
/// extent directory on request.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EblockInfo {
    /// Byte offset of the Eblock inside the local block's edge file.
    pub offset: u64,
    /// Total *logical* Eblock bytes (edges + fragment auxiliary data,
    /// uncompressed).
    pub bytes: u64,
    /// *Physical* bytes the Eblock occupies on disk. Equal to `bytes`
    /// when the store was built without a codec.
    pub stored_bytes: u64,
}

impl EblockInfo {
    /// Splits the physical extent into (edge, aux) shares proportional to
    /// the logical split, for cost-model terms that want the two
    /// separately (`IO(E^t)` vs `IO(F^t)`). `fragments` is the Eblock's
    /// fragment count — the directory does not keep it; a caller that
    /// just scanned the Eblock has it. The shares always sum to
    /// `stored_bytes`.
    pub fn stored_split(&self, fragments: usize) -> (u64, u64) {
        split_stored(
            self.stored_bytes,
            self.bytes,
            fragments as u64 * FRAGMENT_AUX_BYTES,
        )
    }
}

/// `stored` physical bytes split into (edge, aux) shares in the proportion
/// `aux` has of the `bytes` logical bytes.
fn split_stored(stored: u64, bytes: u64, aux: u64) -> (u64, u64) {
    if bytes == 0 {
        return (0, 0);
    }
    let stored_aux = stored * aux / bytes;
    (stored - stored_aux, stored_aux)
}

/// One decoded fragment: a source vertex and its clustered edges into the
/// requested destination block.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    /// The source vertex.
    pub src: VertexId,
    /// Its edges into the destination block.
    pub edges: Vec<Edge>,
}

/// What a pull request touching one local block scans, summed over all
/// destination blocks once at build.
#[derive(Copy, Clone, Default)]
struct ScanTotals {
    stored_edge: u64,
    stored_aux: u64,
}

/// One Eblock being built: its raw bytes without a codec, which the file
/// stores as they are, or its columns under one, which the encoder codes
/// with no raw bytes in between.
#[derive(Default)]
struct EblockBuf {
    raw: Vec<u8>,
    cols: FragmentColumns,
    fragments: u64,
}

impl EblockBuf {
    fn clear(&mut self) {
        self.raw.clear();
        self.cols.clear();
        self.fragments = 0;
    }

    /// Adds the fragment of `src` with `edges`.
    fn push(&mut self, codec: CodecChoice, src: u32, edges: &[Edge]) {
        if codec.is_none() {
            extent::push_fragment_header(&mut self.raw, src, edges.len());
            edges.iter().for_each(|e| e.append_to(&mut self.raw));
        } else {
            let c = &mut self.cols;
            c.svertices.push(src);
            for e in edges {
                c.ids.push(e.dst.0);
                c.weights.push(e.weight.to_bits());
            }
            c.ends.push(c.ids.len());
        }
        self.fragments += 1;
    }

    /// Logical bytes.
    fn bytes(&self) -> u64 {
        (self.raw.len() + self.cols.raw_len()) as u64
    }

    /// Appends the Eblock as `w`'s next extent; returns its stored bytes.
    fn append_to(&self, w: &mut ExtentWriter, codec: CodecChoice) -> io::Result<u64> {
        if codec.is_none() {
            w.append(&self.raw)
        } else {
            w.append_columns(&self.cols)
        }
    }
}

/// The VE-BLOCK store for one worker's local blocks.
pub struct VeBlockStore {
    /// One extent file per local block, holding its `V` Eblocks back to
    /// back: extent `i` of file `j_local` is `g_{j,i}`.
    files: Vec<ExtentFile>,
    /// `meta[j_local]` — `X_j`. Arc-shared so cross-job views are cheap.
    meta: Arc<Vec<BlockMeta>>,
    /// `scan[j_local]` — the `Q_t` predictor's per-block scan bytes.
    scan: Arc<Vec<ScanTotals>>,
    /// Global id of local block 0 (a worker's blocks are contiguous).
    first_block: u32,
    /// First vertex id covered by the local blocks.
    base_vertex: u32,
    /// `fragment_counts[v - base_vertex]` — how many fragments vertex `v`
    /// appears in (its out-edges span that many Eblocks). Used to estimate
    /// `IO(V^t_rr)` for the hybrid predictor without running b-pull.
    fragment_counts: Arc<Vec<u32>>,
    total_fragments: u64,
    total_edge_bytes: u64,
    /// The codec every Eblock extent was written (and is read) with.
    codec: CodecChoice,
}

impl VeBlockStore {
    /// Builds the VE-BLOCK layout for `worker`'s blocks of `layout` over
    /// `graph` without compression; see [`VeBlockStore::build_with`].
    pub fn build(
        vfs: &dyn Vfs,
        graph: &Graph,
        layout: &BlockLayout,
        worker: WorkerId,
    ) -> io::Result<VeBlockStore> {
        VeBlockStore::build_with(vfs, graph, layout, worker, CodecChoice::None)
    }

    /// Builds the VE-BLOCK layout for `worker`'s blocks of `layout` over
    /// `graph`. Edge and auxiliary bytes are written sequentially (this is
    /// the `VE-BLOCK` loading path measured in Fig. 16). With a codec,
    /// each Eblock is stored as one coded extent (fragment svertex ids and
    /// per-fragment neighbour ids are ascending, so delta-gap coding
    /// applies); logical byte accounting still sees the uncompressed
    /// sizes.
    pub fn build_with(
        vfs: &dyn Vfs,
        graph: &Graph,
        layout: &BlockLayout,
        worker: WorkerId,
        codec: CodecChoice,
    ) -> io::Result<VeBlockStore> {
        let num_blocks = layout.num_blocks();
        let local_blocks: Vec<BlockId> = layout.blocks_of_worker(worker).collect();
        let first_block = local_blocks.first().map_or(0, |b| b.0);
        let base_vertex = local_blocks
            .first()
            .map_or(0, |&b| layout.block_range(b).start);
        let local_vertices = local_blocks
            .iter()
            .map(|&b| layout.block_range(b).len())
            .sum::<usize>();
        let in_degrees = graph.in_degrees();

        let mut files = Vec::with_capacity(local_blocks.len());
        let mut meta = Vec::with_capacity(local_blocks.len());
        let mut scan = Vec::with_capacity(local_blocks.len());
        let mut fragment_counts = vec![0u32; local_vertices];
        let mut total_fragments = 0u64;
        let mut total_edge_bytes = 0u64;
        // One Eblock per destination block, refilled for each local block.
        let mut eblocks: Vec<EblockBuf> = Vec::new();
        eblocks.resize_with(num_blocks, EblockBuf::default);
        // One encoder codes every file.
        let mut encoder = ExtentEncoder::default();

        for &bj in &local_blocks {
            let range = layout.block_range(bj);
            let mut m = BlockMeta::new(range.len() as u32, num_blocks);
            eblocks.iter_mut().for_each(EblockBuf::clear);
            for v in range.clone() {
                let v = VertexId(v);
                m.in_degree += in_degrees[v.index()] as u64;
                let row = graph.out_edges(v);
                m.out_degree += row.len() as u64;
                // CSR rows are sorted by destination, so destination blocks
                // appear in ascending runs: one pass emits each fragment,
                // with one block lookup per run (not per edge).
                let mut k = 0;
                while k < row.len() {
                    let bi = layout.block_of(row[k].dst);
                    let block_end = layout.block_range(bi).end;
                    let mut end = k + 1;
                    while end < row.len() && row[end].dst.0 < block_end {
                        end += 1;
                    }
                    eblocks[bi.index()].push(codec, v.0, &row[k..end]);
                    fragment_counts[(v.0 - base_vertex) as usize] += 1;
                    m.set_bit(bi);
                    k = end;
                }
            }
            // Concatenate the Eblocks into this block's file.
            let name = format!("eblk_{}", bj.0);
            let mut w = ExtentWriter::create(vfs, &name, ExtentKind::Fragments, codec, num_blocks)?;
            w.swap_encoder(&mut encoder);
            let mut totals = ScanTotals::default();
            for eblock in &eblocks {
                let stored = eblock.append_to(&mut w, codec)?;
                let fragments = eblock.fragments;
                let (bytes, aux) = (eblock.bytes(), fragments * FRAGMENT_AUX_BYTES);
                let (stored_edge, stored_aux) = split_stored(stored, bytes, aux);
                total_edge_bytes += bytes - aux;
                totals.stored_edge += stored_edge;
                totals.stored_aux += stored_aux;
                total_fragments += fragments;
            }
            w.swap_encoder(&mut encoder);
            files.push(w.finish()?);
            meta.push(m);
            scan.push(totals);
        }

        Ok(VeBlockStore {
            files,
            meta: Arc::new(meta),
            scan: Arc::new(scan),
            first_block,
            base_vertex,
            fragment_counts: Arc::new(fragment_counts),
            total_fragments,
            total_edge_bytes,
            codec,
        })
    }

    /// A read-only view over the same Eblock files whose I/O is recorded
    /// into `stats` instead of the builder's sink. Directories, metadata
    /// and fragment counts are Arc-shared; the files are immutable after
    /// [`VeBlockStore::build_with`] (vertex *values* live in the per-job
    /// [`ValueStore`](crate::value_store::ValueStore), never here), so
    /// concurrent views from different jobs are safe.
    pub fn share_view(&self, stats: Arc<IoStats>) -> VeBlockStore {
        VeBlockStore {
            files: self
                .files
                .iter()
                .map(|f| f.share_view(Arc::clone(&stats)))
                .collect(),
            meta: Arc::clone(&self.meta),
            scan: Arc::clone(&self.scan),
            first_block: self.first_block,
            base_vertex: self.base_vertex,
            fragment_counts: Arc::clone(&self.fragment_counts),
            total_fragments: self.total_fragments,
            total_edge_bytes: self.total_edge_bytes,
            codec: self.codec,
        }
    }

    /// How many fragments local vertex `v` appears in (no I/O).
    pub fn fragments_of(&self, v: VertexId) -> u32 {
        let i = (v.0 - self.base_vertex) as usize;
        debug_assert!(i < self.fragment_counts.len(), "vertex {v} not local");
        self.fragment_counts[i]
    }

    /// Total *physical* stored bytes a pull request touching local block
    /// `j` scans, `(edge bytes, auxiliary bytes)` summed over all
    /// destinations — what the device actually moves, and therefore what
    /// the `Q_t` predictor should charge for a b-pull scan of block `j`
    /// (each Eblock split as [`EblockInfo::stored_split`] does).
    pub fn block_scan_stored_bytes(&self, j: BlockId) -> (u64, u64) {
        let t = &self.scan[self.local_of(j)];
        (t.stored_edge, t.stored_aux)
    }

    #[inline]
    fn local_of(&self, b: BlockId) -> usize {
        let j = (b.0 - self.first_block) as usize;
        debug_assert!(j < self.meta.len(), "block {b} is not local");
        j
    }

    /// Metadata `X_j` of local block `b`.
    pub fn meta(&self, b: BlockId) -> &BlockMeta {
        &self.meta[self.local_of(b)]
    }

    /// Extent info of Eblock `g_{j,i}` (no I/O).
    pub fn eblock_info(&self, j: BlockId, i: BlockId) -> EblockInfo {
        let file = &self.files[self.local_of(j)];
        let at = file.range(i.index());
        EblockInfo {
            offset: at.start,
            bytes: file.logical_bytes(i.index()),
            stored_bytes: at.end - at.start,
        }
    }

    /// Total fragments across the store (the paper's `f`, used by
    /// Theorem 2's bound `B⊥ = |E|/2 − f`).
    pub fn total_fragments(&self) -> u64 {
        self.total_fragments
    }

    /// Total logical edge payload bytes in the store.
    pub fn total_edge_bytes(&self) -> u64 {
        self.total_edge_bytes
    }

    /// Total physical bytes the store's Eblock files occupy.
    pub fn total_stored_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.total_stored_bytes()).sum()
    }

    /// The codec the store was built with.
    pub fn codec(&self) -> CodecChoice {
        self.codec
    }

    /// In-memory footprint of the `X_j` metadata (what the paper's memory
    /// curves count: `#`, `ind`, `outd`, bitmap, `res` — Fig. 23's
    /// "metadata in VE-BLOCK").
    pub fn metadata_memory_bytes(&self) -> u64 {
        self.meta.iter().map(|m| m.memory_bytes()).sum()
    }

    /// In-memory footprint of the Eblock extent directories (an
    /// implementation detail of this store, reported separately).
    pub fn index_memory_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.memory_bytes()).sum()
    }

    /// Sequentially reads Eblock `g_{j,i}` and decodes it once into
    /// `scratch`, whose [`EblockScratch::fragments`] then walks it in
    /// svertex order.
    ///
    /// Accounts the whole Eblock extent (edges + auxiliary data) as a
    /// sequential read — physical stored bytes on the device, logical
    /// uncompressed bytes beside them; the caller is responsible for the
    /// random svertex value reads. Bytes that do not decode as a fragment
    /// stream are `InvalidData`, and leave `scratch` empty.
    pub fn scan_eblock_into(
        &self,
        j: BlockId,
        i: BlockId,
        scratch: &mut EblockScratch,
    ) -> io::Result<()> {
        self.files[self.local_of(j)].read_columns(
            i.index(),
            AccessClass::SeqRead,
            &mut scratch.bytes,
            &mut scratch.cols,
        )
    }

    /// [`VeBlockStore::scan_eblock_into`] collected into owned fragments.
    pub fn scan_eblock(&self, j: BlockId, i: BlockId) -> io::Result<Vec<Fragment>> {
        let mut scratch = EblockScratch::default();
        self.scan_eblock_into(j, i, &mut scratch)?;
        Ok(scratch
            .fragments()
            .map(|(src, edges)| Fragment {
                src,
                edges: edges.collect(),
            })
            .collect())
    }
}

/// The buffers an Eblock scan decodes into, kept by the caller and reused
/// Eblock after Eblock: the bytes read and their fragment columns.
#[derive(Default)]
pub struct EblockScratch {
    bytes: Vec<u8>,
    cols: FragmentColumns,
}

impl EblockScratch {
    /// The fragments of the Eblock last scanned, in svertex order: each
    /// source vertex with its edges into the destination block, built
    /// from the columns as they are walked.
    pub fn fragments(
        &self,
    ) -> impl ExactSizeIterator<Item = (VertexId, impl Iterator<Item = Edge> + '_)> {
        let c = &self.cols;
        (0..c.len()).map(move |k| {
            let span = c.span(k);
            let edges = c.ids[span.clone()].iter().zip(&c.weights[span]);
            let edges = edges.map(|(&dst, &w)| Edge {
                dst: VertexId(dst),
                weight: f32::from_bits(w),
            });
            (VertexId(c.svertices[k]), edges)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use hybridgraph_graph::{gen, Partition};

    fn layout(n: usize, workers: usize, per_worker: usize) -> (Partition, BlockLayout) {
        let p = Partition::range(n, workers);
        let l = BlockLayout::uniform(&p, per_worker);
        (p, l)
    }

    #[test]
    fn fragments_cover_all_edges() {
        let g = gen::uniform(60, 400, 7);
        let (_, l) = layout(60, 3, 2);
        let vfs = MemVfs::new();
        let mut total_edges = 0usize;
        for w in 0..3 {
            let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(w)).unwrap();
            for j in l.blocks_of_worker(WorkerId(w)) {
                for i in l.block_ids() {
                    for frag in s.scan_eblock(j, i).unwrap() {
                        // Fragment src belongs to block j, dsts to block i.
                        assert_eq!(l.block_of(frag.src), j);
                        for e in &frag.edges {
                            assert_eq!(l.block_of(e.dst), i);
                        }
                        total_edges += frag.edges.len();
                    }
                }
            }
        }
        assert_eq!(total_edges, g.num_edges());
    }

    #[test]
    fn metadata_matches_graph() {
        let g = gen::uniform(40, 200, 1);
        let (_, l) = layout(40, 2, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let ind = g.in_degrees();
        for j in l.blocks_of_worker(WorkerId(0)) {
            let m = s.meta(j);
            let r = l.block_range(j);
            assert_eq!(m.vertex_count, r.len() as u32);
            let want_out: u64 = r.clone().map(|v| g.out_degree(VertexId(v)) as u64).sum();
            let want_in: u64 = r.clone().map(|v| ind[v as usize] as u64).sum();
            assert_eq!(m.out_degree, want_out);
            assert_eq!(m.in_degree, want_in);
        }
    }

    #[test]
    fn bitmap_matches_eblock_contents() {
        let g = gen::uniform(50, 300, 9);
        let (_, l) = layout(50, 2, 3);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(1)).unwrap();
        for j in l.blocks_of_worker(WorkerId(1)) {
            for i in l.block_ids() {
                let has = s.eblock_info(j, i).bytes > 0;
                assert_eq!(s.meta(j).has_edges_to(i), has, "g_{{{j},{i}}}");
            }
        }
    }

    #[test]
    fn fragment_clustering_groups_per_source() {
        // star: all edges come from vertex 0 -> exactly one fragment per
        // non-empty destination block.
        let g = gen::star(32);
        let (_, l) = layout(32, 1, 4);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let b0 = BlockId(0);
        for i in l.block_ids() {
            let frags = s.scan_eblock(b0, i).unwrap();
            assert_eq!(frags.len(), 1, "one fragment per dst block");
        }
        assert_eq!(s.total_fragments(), 4); // vertex 0 reaches all 4 blocks
    }

    #[test]
    fn aux_and_edge_bytes_split() {
        let g = gen::uniform(30, 120, 4);
        let (_, l) = layout(30, 1, 3);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let mut edge_bytes = 0;
        let mut aux_bytes = 0;
        for j in l.block_ids() {
            let mut offset = 0;
            for i in l.block_ids() {
                let info = s.eblock_info(j, i);
                let frags = s.scan_eblock(j, i).unwrap();
                let edges: usize = frags.iter().map(|f| f.edges.len()).sum();
                let aux = frags.len() as u64 * FRAGMENT_AUX_BYTES;
                assert_eq!(info.bytes, edges as u64 * 8 + aux);
                assert_eq!((info.offset, info.stored_bytes), (offset, info.bytes));
                assert_eq!(info.stored_split(frags.len()), (info.bytes - aux, aux));
                offset += info.stored_bytes;
                edge_bytes += info.bytes - aux;
                aux_bytes += aux;
            }
        }
        assert_eq!(edge_bytes, g.num_edges() as u64 * 8);
        assert_eq!(aux_bytes, s.total_fragments() * FRAGMENT_AUX_BYTES);
        assert_eq!(s.total_edge_bytes(), edge_bytes);
    }

    #[test]
    fn scan_accounts_sequential_read() {
        let g = gen::uniform(30, 120, 4);
        let (_, l) = layout(30, 1, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let before = vfs.stats().snapshot();
        let info = s.eblock_info(BlockId(0), BlockId(1));
        s.scan_eblock(BlockId(0), BlockId(1)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        assert_eq!(d.seq_read_bytes, info.bytes);
        assert_eq!(d.rand_read_bytes, 0);
    }

    #[test]
    fn theorem1_fragments_grow_with_block_count() {
        // Theorem 1: E[#fragments] is proportional to (monotone in) V.
        let g = gen::rmat(256, 4096, gen::RmatParams::default(), 5);
        let mut prev = 0u64;
        for per_worker in [1usize, 2, 4, 8, 16] {
            let (_, l) = layout(256, 2, per_worker);
            let vfs = MemVfs::new();
            let mut frags = 0;
            for w in 0..2 {
                frags += VeBlockStore::build(&vfs, &g, &l, WorkerId(w))
                    .unwrap()
                    .total_fragments();
            }
            assert!(
                frags >= prev,
                "fragments must grow with V: {frags} < {prev}"
            );
            prev = frags;
        }
        // And it is bounded by |E|.
        assert!(prev <= g.num_edges() as u64);
    }

    #[test]
    fn per_vertex_fragment_counts() {
        let g = gen::uniform(40, 200, 6);
        let (_, l) = layout(40, 2, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        // Sum of per-vertex counts equals total fragments.
        let sum: u64 = (0..20u32).map(|v| s.fragments_of(VertexId(v)) as u64).sum();
        assert_eq!(sum, s.total_fragments());
        // A vertex's fragment count is bounded by min(out-degree, V).
        for v in 0..20u32 {
            let fc = s.fragments_of(VertexId(v)) as usize;
            assert!(fc <= g.out_degree(VertexId(v)).min(l.num_blocks()));
        }
    }

    #[test]
    fn block_scan_totals() {
        // The totals summed at build are the per-Eblock values summed,
        // as `stored_split` divides each Eblock.
        let g = gen::uniform(30, 150, 2);
        let (_, l) = layout(30, 1, 3);
        for codec in [CodecChoice::None, CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), codec).unwrap();
            for j in l.block_ids() {
                let mut stored = (0, 0);
                for i in l.block_ids() {
                    let info = s.eblock_info(j, i);
                    let frags = s.scan_eblock(j, i).unwrap().len();
                    let (e, a) = info.stored_split(frags);
                    stored = (stored.0 + e, stored.1 + a);
                }
                assert_eq!(s.block_scan_stored_bytes(j), stored, "{codec:?}");
            }
        }
    }

    #[test]
    fn coded_store_decodes_identically_and_shrinks() {
        let g = gen::uniform(120, 2000, 11);
        let (_, l) = layout(120, 2, 3);
        let base_vfs = MemVfs::new();
        let base = VeBlockStore::build(&base_vfs, &g, &l, WorkerId(0)).unwrap();
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), codec).unwrap();
            assert_eq!(s.total_edge_bytes(), base.total_edge_bytes());
            assert_eq!(s.total_fragments(), base.total_fragments());
            for j in l.blocks_of_worker(WorkerId(0)) {
                for i in l.block_ids() {
                    assert_eq!(
                        s.scan_eblock(j, i).unwrap(),
                        base.scan_eblock(j, i).unwrap(),
                        "{codec:?} g_{{{j},{i}}}"
                    );
                }
            }
        }
        // Gaps must clearly beat raw on sorted uniform-graph eblocks.
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), CodecChoice::Gaps).unwrap();
        let logical: u64 = l
            .blocks_of_worker(WorkerId(0))
            .flat_map(|j| l.block_ids().map(move |i| (j, i)))
            .map(|(j, i)| s.eblock_info(j, i).bytes)
            .sum();
        assert!(
            s.total_stored_bytes() * 2 < logical,
            "gaps should at least halve eblock bytes: {} vs {logical}",
            s.total_stored_bytes()
        );
        // And the BV tier must beat gaps on the same eblocks — its
        // bit-granular codes are the whole point of `TAG_BV` extents.
        let bvfs = MemVfs::new();
        let b = VeBlockStore::build_with(&bvfs, &g, &l, WorkerId(0), CodecChoice::Bv).unwrap();
        assert!(
            b.total_stored_bytes() < s.total_stored_bytes(),
            "bv {} not under gaps {}",
            b.total_stored_bytes(),
            s.total_stored_bytes()
        );
    }

    #[test]
    fn coded_scan_accounts_physical_and_logical() {
        let g = gen::uniform(60, 600, 3);
        let (_, l) = layout(60, 1, 2);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(0), CodecChoice::Gaps).unwrap();
        let info = s.eblock_info(BlockId(0), BlockId(1));
        assert!(info.stored_bytes < info.bytes);
        let before = vfs.stats().snapshot();
        let frags = s.scan_eblock(BlockId(0), BlockId(1)).unwrap();
        let d = vfs.stats().snapshot().delta(&before);
        let (se, sa) = info.stored_split(frags.len());
        assert_eq!(se + sa, info.stored_bytes);
        assert!(sa > 0 && sa < se);
        assert_eq!(d.seq_read_bytes, info.stored_bytes);
        assert_eq!(d.seq_read_logical_bytes, info.bytes);
    }

    #[test]
    fn more_workers_than_vertices() {
        let g = gen::uniform(16, 32, 2);
        let p = Partition::range(16, 20); // workers 16..19 own nothing
        let l = BlockLayout::uniform(&p, 1);
        for codec in [CodecChoice::None, CodecChoice::Bv] {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build_with(&vfs, &g, &l, WorkerId(17), codec).unwrap();
            assert_eq!(s.total_fragments(), 0);
            assert_eq!((s.total_stored_bytes(), s.index_memory_bytes()), (0, 0));
            // The one-vertex workers still hold every edge between them.
            let mut edges = 0;
            for w in p.workers() {
                let s = VeBlockStore::build_with(&vfs, &g, &l, w, codec).unwrap();
                for j in l.blocks_of_worker(w) {
                    for i in l.block_ids() {
                        let frags = s.scan_eblock(j, i).unwrap();
                        edges += frags.iter().map(|f| f.edges.len()).sum::<usize>();
                    }
                }
            }
            assert_eq!(edges, g.num_edges(), "{codec:?}");
        }
    }

    /// `g_{j,i}` straight from the graph: each vertex of block `j` with its
    /// CSR out-edges into block `i`, in vertex order.
    fn expected(g: &Graph, l: &BlockLayout, j: BlockId, i: BlockId) -> Vec<(VertexId, Vec<Edge>)> {
        l.block_range(j)
            .map(VertexId)
            .map(|v| {
                let row = g.out_edges(v).iter();
                (v, row.filter(|e| l.block_of(e.dst) == i).copied().collect())
            })
            .filter(|(_, edges): &(_, Vec<Edge>)| !edges.is_empty())
            .collect()
    }

    #[test]
    fn scratch_scans_match_the_graph_under_every_codec() {
        // Seeded RMAT graphs keep multigraph duplicates, here with
        // different weights; three layouts: many blocks (most Eblocks
        // empty), one block, more workers than vertices. One scratch
        // serves every scan, so nothing may leak from one to the next.
        let mut scratch = EblockScratch::default();
        for seed in [1u64, 7, 42] {
            println!("scratch scan seed {seed}");
            let g = gen::rmat(96, 700, gen::RmatParams::default(), seed);
            let g = gen::randomize_weights(&g, 0.5, 4.0, seed);
            let dup = |v| g.out_edges(v).windows(2).any(|p| p[0].dst == p[1].dst);
            assert!(g.vertices().any(dup), "seed {seed}: no duplicate edges");
            for (workers, per_worker) in [(2, 3), (1, 1), (120, 1)] {
                let p = Partition::range(96, workers);
                let l = BlockLayout::uniform(&p, per_worker);
                for codec in CodecChoice::ALL {
                    for w in p.workers() {
                        let vfs = MemVfs::new();
                        let s = VeBlockStore::build_with(&vfs, &g, &l, w, codec).unwrap();
                        for j in l.blocks_of_worker(w) {
                            for i in l.block_ids() {
                                let want = expected(&g, &l, j, i);
                                let before = vfs.stats().snapshot();
                                s.scan_eblock_into(j, i, &mut scratch).unwrap();
                                let d = vfs.stats().snapshot().delta(&before);
                                let got: Vec<(VertexId, Vec<Edge>)> = scratch
                                    .fragments()
                                    .map(|(v, edges)| (v, edges.collect()))
                                    .collect();
                                let at = format!("seed {seed} {workers}w {codec:?} g_{{{j},{i}}}");
                                assert_eq!(got, want, "{at}");
                                let info = s.eblock_info(j, i);
                                assert_eq!(d.seq_read_bytes, info.stored_bytes, "{at}");
                                assert_eq!(d.seq_read_logical_bytes, info.bytes, "{at}");
                                assert_eq!(d.seq_read_ops, u64::from(info.bytes > 0), "{at}");
                                let owned = s.scan_eblock(j, i).unwrap();
                                assert!(owned
                                    .iter()
                                    .map(|f| (f.src, &f.edges))
                                    .eq(want.iter().map(|(v, e)| (*v, e))));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_block_holds_the_whole_graph() {
        let g = gen::uniform(24, 90, 5);
        let (_, l) = layout(24, 1, 1);
        let vfs = MemVfs::new();
        let s = VeBlockStore::build(&vfs, &g, &l, WorkerId(0)).unwrap();
        let frags = s.scan_eblock(BlockId(0), BlockId(0)).unwrap();
        assert_eq!(frags.len() as u64, s.total_fragments());
        for f in &frags {
            assert_eq!(f.edges, g.out_edges(f.src));
        }
        assert_eq!(s.eblock_info(BlockId(0), BlockId(0)).offset, 0);
        assert!(s.index_memory_bytes() > 0);
    }
}
