//! GraphHP-style block classification for the hybrid sync/async mode.
//!
//! The `Async` mode partitions each worker's vertices by the VE-BLOCK
//! layout into **boundary** vertices (at least one in- or out-edge
//! crossing a Vblock border) and **interior** vertices (every edge stays
//! inside their own Vblock). Interior vertices' whole neighborhoods are
//! block-local, so between two global barriers the executor can iterate
//! them in-place — regenerating their inboxes from in-block neighbors'
//! current values — without exchanging a single message. Boundary
//! vertices keep strict BSP semantics: their messages queue for the
//! barrier exactly as in push mode.
//!
//! [`BlockClassification`] is the global, immutable classification built
//! once by the master and shared with every worker.
//! [`InteriorIndex`] is the per-worker in-memory structure the async
//! executor iterates: a per-block reverse adjacency restricted to
//! interior destinations (inbox regeneration) plus the forward lists
//! used for dirty propagation between pseudo-rounds.

use crate::bitset::BitSet;
use hybridgraph_graph::{BlockLayout, Edge, Graph, WorkerId};
use std::ops::Range;

/// Global boundary/interior classification of every vertex under a
/// VE-BLOCK layout. Built once per job (one pass over the edges),
/// immutable afterwards, shared across workers by `Arc`.
#[derive(Clone, Debug)]
pub struct BlockClassification {
    /// Bit `v` set iff vertex `v` has a block-crossing in- or out-edge.
    boundary: BitSet,
    /// Total boundary vertices.
    pub boundary_total: u64,
    /// Total interior vertices.
    pub interior_total: u64,
}

impl BlockClassification {
    /// Classifies every vertex of `g` under `layout`: an edge whose
    /// endpoints live in different Vblocks marks **both** endpoints
    /// boundary (the source must export its message, the destination's
    /// inbox cannot be regenerated locally).
    pub fn classify(g: &Graph, layout: &BlockLayout) -> BlockClassification {
        let n = g.num_vertices();
        let mut boundary = BitSet::new(n);
        if n > 0 && layout.num_blocks() > 0 {
            for (src, e) in g.edges() {
                if layout.block_of(src) != layout.block_of(e.dst) {
                    boundary.set(src.index());
                    boundary.set(e.dst.index());
                }
            }
        }
        let boundary_total = boundary.count() as u64;
        BlockClassification {
            boundary,
            boundary_total,
            interior_total: n as u64 - boundary_total,
        }
    }

    /// True iff `v` (global id) is a boundary vertex.
    #[inline]
    pub fn is_boundary(&self, v: u32) -> bool {
        self.boundary.get(v as usize)
    }
}

/// One Vblock's slice of the interior index.
#[derive(Clone, Debug)]
pub struct InteriorBlock {
    /// Global vertex range of the block.
    pub range: Range<u32>,
    /// Global ids of the block's interior vertices, ascending.
    pub interior: Vec<u32>,
    /// CSR offsets over `interior`: in-block in-edges of interior vertex
    /// `interior[i]` are `rev[rev_offsets[i]..rev_offsets[i+1]]`.
    pub rev_offsets: Vec<u32>,
    /// `(src, edge)` pairs, grouped by interior destination, sources
    /// ascending within a group — the canonical inbox-regeneration order.
    pub rev: Vec<(u32, Edge)>,
    /// CSR offsets over the block's vertices (by in-block position):
    /// interior destinations of vertex `range.start + j` are
    /// `fwd[fwd_offsets[j]..fwd_offsets[j+1]]` (dirty propagation).
    pub fwd_offsets: Vec<u32>,
    /// Positions into `interior` of each source's in-block interior
    /// destinations.
    pub fwd: Vec<u32>,
}

/// The per-worker async iteration structure: one [`InteriorBlock`] per
/// local Vblock, in block order. Built at load time from the global
/// graph (before the worker drops its borrow), held in memory for the
/// whole job like the out-degree metadata.
#[derive(Clone, Debug)]
pub struct InteriorIndex {
    /// One entry per local block, ordered as `layout.blocks_of_worker`.
    pub blocks: Vec<InteriorBlock>,
}

impl InteriorIndex {
    /// Builds the index for worker `id`'s blocks.
    pub fn build(
        g: &Graph,
        layout: &BlockLayout,
        cls: &BlockClassification,
        id: WorkerId,
    ) -> InteriorIndex {
        let mut blocks = Vec::with_capacity(layout.worker_block_count(id));
        for b in layout.blocks_of_worker(id) {
            let range = layout.block_range(b);
            let interior: Vec<u32> = range.clone().filter(|&v| !cls.is_boundary(v)).collect();
            // Position of each interior vertex inside `interior`, by
            // in-block offset (u32::MAX for boundary vertices).
            let mut pos = vec![u32::MAX; range.len()];
            for (i, &v) in interior.iter().enumerate() {
                pos[(v - range.start) as usize] = i as u32;
            }
            // Count in-block edges into interior destinations, then fill
            // both CSRs in one more pass (sources ascending keeps the
            // reverse groups in canonical order).
            let mut rev_counts = vec![0u32; interior.len()];
            let mut fwd_offsets = vec![0u32; range.len() + 1];
            for src in range.clone() {
                for e in g.out_edges(hybridgraph_graph::VertexId(src)) {
                    if range.contains(&e.dst.0) {
                        let p = pos[(e.dst.0 - range.start) as usize];
                        if p != u32::MAX {
                            rev_counts[p as usize] += 1;
                            fwd_offsets[(src - range.start) as usize + 1] += 1;
                        }
                    }
                }
            }
            let mut rev_offsets = vec![0u32; interior.len() + 1];
            for i in 0..interior.len() {
                rev_offsets[i + 1] = rev_offsets[i] + rev_counts[i];
            }
            for j in 0..range.len() {
                fwd_offsets[j + 1] += fwd_offsets[j];
            }
            let total = rev_offsets.last().copied().unwrap_or(0) as usize;
            let mut rev = vec![(0u32, Edge::to(hybridgraph_graph::VertexId(0))); total];
            let mut fwd = vec![0u32; total];
            let mut rev_cursor = rev_offsets[..interior.len()].to_vec();
            let mut fwd_cursor = fwd_offsets[..range.len()].to_vec();
            for src in range.clone() {
                for e in g.out_edges(hybridgraph_graph::VertexId(src)) {
                    if range.contains(&e.dst.0) {
                        let p = pos[(e.dst.0 - range.start) as usize];
                        if p != u32::MAX {
                            let rc = &mut rev_cursor[p as usize];
                            rev[*rc as usize] = (src, *e);
                            *rc += 1;
                            let fc = &mut fwd_cursor[(src - range.start) as usize];
                            fwd[*fc as usize] = p;
                            *fc += 1;
                        }
                    }
                }
            }
            blocks.push(InteriorBlock {
                range,
                interior,
                rev_offsets,
                rev,
                fwd_offsets,
                fwd,
            });
        }
        InteriorIndex { blocks }
    }

    /// In-memory footprint (counts toward the worker's high-water mark).
    pub fn memory_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| {
                (b.interior.len() + b.rev_offsets.len() + b.fwd_offsets.len() + b.fwd.len()) as u64
                    * 4
                    + b.rev.len() as u64 * (4 + Edge::DISK_BYTES)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_graph::{Partition, VertexId};

    /// 8 vertices, 2 workers x 2 blocks of 2. Edges:
    ///   0->1 (in-block), 1->0 (in-block), 0->2 (cross-block),
    ///   2->3 (in-block), 4->5 (in-block), 5->6 (cross-block, cross-worker),
    ///   6->7 (in-block), 7->6 (in-block).
    fn fixture() -> (Graph, Partition, BlockLayout) {
        let edges: Vec<(u32, u32)> = vec![
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 3),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 6),
        ];
        let mut offsets = vec![0u64; 9];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..8 {
            offsets[i + 1] += offsets[i];
        }
        let mut sorted = edges.clone();
        sorted.sort();
        let es: Vec<Edge> = sorted.iter().map(|&(_, d)| Edge::to(VertexId(d))).collect();
        let g = Graph::from_parts(offsets, es);
        let p = Partition::range(8, 2);
        let layout = BlockLayout::uniform(&p, 2);
        (g, p, layout)
    }

    #[test]
    fn classification_marks_both_crossing_endpoints() {
        let (g, _p, layout) = fixture();
        let cls = BlockClassification::classify(&g, &layout);
        // Crossing edges: 0->2 (blocks 0->1) and 5->6 (blocks 2->3).
        for v in [0u32, 2, 5, 6] {
            assert!(cls.is_boundary(v), "vertex {v} should be boundary");
        }
        for v in [1u32, 3, 4, 7] {
            assert!(!cls.is_boundary(v), "vertex {v} should be interior");
        }
        assert_eq!(cls.boundary_total, 4);
        assert_eq!(cls.interior_total, 4);
        assert_eq!(cls.boundary_total + cls.interior_total, 8);
    }

    #[test]
    fn interior_index_reverse_and_forward_agree() {
        let (g, _p, layout) = fixture();
        let cls = BlockClassification::classify(&g, &layout);
        let idx = InteriorIndex::build(&g, &layout, &cls, WorkerId(0));
        assert_eq!(idx.blocks.len(), 2);

        // Block 0 = {0, 1}; interior = {1}; in-block in-edges of 1: 0->1.
        let b0 = &idx.blocks[0];
        assert_eq!(b0.interior, vec![1]);
        assert_eq!(b0.rev_offsets, vec![0, 1]);
        assert_eq!(b0.rev.len(), 1);
        assert_eq!(b0.rev[0].0, 0, "source of 1's only in-block in-edge");
        assert_eq!(b0.rev[0].1.dst, VertexId(1));
        // Forward: vertex 0 targets interior position 0 (vertex 1);
        // vertex 1's in-block edge 1->0 targets a boundary vertex.
        assert_eq!(b0.fwd_offsets, vec![0, 1, 1]);
        assert_eq!(b0.fwd, vec![0]);

        // Block 1 = {2, 3}; interior = {3}; in-edges of 3: 2->3.
        let b1 = &idx.blocks[1];
        assert_eq!(b1.interior, vec![3]);
        assert_eq!(b1.rev[0].0, 2);

        // Worker 1: block {6, 7} has interior = {7} (6 is boundary).
        let idx1 = InteriorIndex::build(&g, &layout, &cls, WorkerId(1));
        let b3 = &idx1.blocks[1];
        assert_eq!(b3.range, 6..8);
        assert_eq!(b3.interior, vec![7]);
        assert_eq!(b3.rev.len(), 1, "7->6 targets a boundary dst, excluded");
        assert_eq!(b3.rev[0].0, 6);
        assert!(idx1.memory_bytes() > 0);
    }

    #[test]
    fn empty_graph_classifies_cleanly() {
        let g = Graph::empty(0);
        let p = Partition::range(0, 1);
        let layout = BlockLayout::uniform(&p, 1);
        let cls = BlockClassification::classify(&g, &layout);
        assert_eq!(cls.boundary_total, 0);
        assert_eq!(cls.interior_total, 0);
        let idx = InteriorIndex::build(&g, &layout, &cls, WorkerId(0));
        assert!(idx.blocks.is_empty());
        assert_eq!(idx.memory_bytes(), 0);
    }
}
