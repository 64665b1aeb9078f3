//! Range partitioning and Vblock layout (paper §4.1, §4.3).
//!
//! Vertices are range-partitioned across workers (the paper partitions "by
//! the range method" for Giraph, MOCgraph and HybridGraph), and each
//! worker's range is further split into fixed-size Vblocks. The number of
//! Vblocks per worker follows Eq. 5 (combinable messages, with pre-pull) or
//! Eq. 6 (concatenate-only messages).

use crate::csr::Graph;
use crate::ids::{BlockId, VertexId, WorkerId};
use std::ops::Range;

/// A contiguous range of vertices assigned to one worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `boundaries[w]..boundaries[w + 1]` is worker `w`'s vertex range.
    boundaries: Vec<u32>,
}

impl Partition {
    /// Evenly range-partitions `n` vertices over `workers` workers.
    ///
    /// Ranges differ in size by at most one vertex, matching the range
    /// partitioner the paper uses for Giraph/MOCgraph/HybridGraph.
    pub fn range(n: usize, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let n = n as u32;
        let w = workers as u32;
        let base = n / w;
        let extra = n % w;
        let mut boundaries = Vec::with_capacity(workers + 1);
        let mut at = 0u32;
        boundaries.push(0);
        for i in 0..w {
            at += base + u32::from(i < extra);
            boundaries.push(at);
        }
        Partition { boundaries }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of vertices.
    pub fn num_vertices(&self) -> usize {
        *self.boundaries.last().unwrap() as usize
    }

    /// The vertex range of worker `w`.
    pub fn worker_range(&self, w: WorkerId) -> Range<u32> {
        self.boundaries[w.index()]..self.boundaries[w.index() + 1]
    }

    /// Number of vertices on worker `w` (the paper's `n_i`).
    pub fn worker_len(&self, w: WorkerId) -> usize {
        self.worker_range(w).len()
    }

    /// Which worker owns vertex `v`.
    pub fn worker_of(&self, v: VertexId) -> WorkerId {
        debug_assert!(v.index() < self.num_vertices(), "vertex out of range");
        // boundaries is sorted; partition_point returns the count of
        // boundaries <= v, so subtracting one gives the owning range.
        let idx = self.boundaries.partition_point(|&b| b <= v.0) - 1;
        WorkerId::from(idx)
    }

    /// Iterator over all worker ids.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.num_workers()).map(WorkerId::from)
    }
}

/// Metadata of one Vblock: its vertex range and owning worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VblockInfo {
    /// Vertices `range.start..range.end` belong to this block.
    pub range: Range<u32>,
    /// Worker storing this block (and its outgoing Eblocks).
    pub owner: WorkerId,
}

/// The global Vblock layout: every worker's range split into Vblocks.
///
/// Blocks are globally numbered `0..V` in vertex order, so a worker's
/// blocks form a contiguous run of `BlockId`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    blocks: Vec<VblockInfo>,
    /// `block_starts[b]` = first vertex of block `b`; sorted.
    block_starts: Vec<u32>,
    /// `worker_blocks[w]` = range of BlockIds owned by worker `w`.
    worker_blocks: Vec<Range<u32>>,
}

impl BlockLayout {
    /// Splits each worker's partition range into `blocks_per_worker[w]`
    /// equal-size Vblocks.
    ///
    /// # Panics
    /// Panics if any worker is given zero blocks while owning vertices.
    pub fn new(partition: &Partition, blocks_per_worker: &[usize]) -> Self {
        assert_eq!(
            blocks_per_worker.len(),
            partition.num_workers(),
            "one block count per worker"
        );
        let mut blocks = Vec::new();
        let mut worker_blocks = Vec::with_capacity(partition.num_workers());
        for w in partition.workers() {
            let range = partition.worker_range(w);
            let len = range.len() as u32;
            let want = blocks_per_worker[w.index()];
            assert!(
                want >= 1 || len == 0,
                "worker {w} owns vertices but was given zero blocks"
            );
            let count = (want as u32).min(len); // zero when the range is empty
            let first = blocks.len() as u32;
            if let Some(base) = len.checked_div(count) {
                let extra = len % count;
                let mut at = range.start;
                for i in 0..count {
                    let sz = base + u32::from(i < extra);
                    blocks.push(VblockInfo {
                        range: at..at + sz,
                        owner: w,
                    });
                    at += sz;
                }
            }
            worker_blocks.push(first..blocks.len() as u32);
        }
        let block_starts = blocks.iter().map(|b| b.range.start).collect();
        BlockLayout {
            blocks,
            block_starts,
            worker_blocks,
        }
    }

    /// Uniform layout: `per_worker` blocks on every worker.
    pub fn uniform(partition: &Partition, per_worker: usize) -> Self {
        BlockLayout::new(partition, &vec![per_worker; partition.num_workers()])
    }

    /// Total number of Vblocks (the paper's `V`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Info for block `b`.
    pub fn block(&self, b: BlockId) -> &VblockInfo {
        &self.blocks[b.index()]
    }

    /// The vertex range of block `b`.
    pub fn block_range(&self, b: BlockId) -> Range<u32> {
        self.blocks[b.index()].range.clone()
    }

    /// The worker owning block `b`.
    pub fn owner(&self, b: BlockId) -> WorkerId {
        self.blocks[b.index()].owner
    }

    /// The block containing vertex `v`.
    pub fn block_of(&self, v: VertexId) -> BlockId {
        debug_assert!(!self.blocks.is_empty());
        let idx = self.block_starts.partition_point(|&s| s <= v.0) - 1;
        debug_assert!(
            self.blocks[idx].range.contains(&v.0),
            "vertex outside layout"
        );
        BlockId(idx as u32)
    }

    /// The contiguous run of BlockIds owned by worker `w`.
    pub fn blocks_of_worker(&self, w: WorkerId) -> impl Iterator<Item = BlockId> {
        let r = self.worker_blocks[w.index()].clone();
        r.map(BlockId)
    }

    /// Number of blocks on worker `w` (the paper's `V_i`).
    pub fn worker_block_count(&self, w: WorkerId) -> usize {
        self.worker_blocks[w.index()].len()
    }

    /// Iterator over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.num_blocks() as u32).map(BlockId)
    }
}

/// Eq. 5 — Vblock count for worker `i` when messages are combinable and
/// pre-pull is enabled: `V_i = (2 n_i + n_i T) / B_i`, at least 1.
///
/// `n_i` = vertices on the worker, `t` = number of workers, `b_i` = message
/// buffer capacity on the worker (in messages).
pub fn vblocks_eq5(n_i: usize, t: usize, b_i: usize) -> usize {
    assert!(b_i > 0, "message buffer must be positive");
    let v = (2 * n_i + n_i * t).div_ceil(b_i);
    v.max(1)
}

/// Eq. 6 — Vblock count for worker `i` when messages only concatenate:
/// `V_i = (Σ_{u ∈ V_i} in-degree(u)) / B_i`, at least 1.
fn vblocks_eq6(sum_in_degree: u64, b_i: usize) -> usize {
    assert!(b_i > 0, "message buffer must be positive");
    let v = (sum_in_degree as usize).div_ceil(b_i);
    v.max(1)
}

/// Computes per-worker Vblock counts for a graph under a partition, using
/// Eq. 5 when `combinable`, otherwise Eq. 6.
pub fn vblock_counts(
    graph: &Graph,
    partition: &Partition,
    buffer_messages: usize,
    combinable: bool,
) -> Vec<usize> {
    let t = partition.num_workers();
    if combinable {
        partition
            .workers()
            .map(|w| vblocks_eq5(partition.worker_len(w), t, buffer_messages))
            .collect()
    } else {
        let ind = graph.in_degrees();
        partition
            .workers()
            .map(|w| {
                let sum: u64 = partition
                    .worker_range(w)
                    .map(|v| ind[v as usize] as u64)
                    .sum();
                vblocks_eq6(sum, buffer_messages)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn even_ranges() {
        let p = Partition::range(10, 3);
        assert_eq!(p.worker_range(WorkerId(0)), 0..4);
        assert_eq!(p.worker_range(WorkerId(1)), 4..7);
        assert_eq!(p.worker_range(WorkerId(2)), 7..10);
        assert_eq!(p.num_vertices(), 10);
    }

    #[test]
    fn worker_of_matches_ranges() {
        let p = Partition::range(10, 3);
        for v in 0..10u32 {
            let w = p.worker_of(VertexId(v));
            assert!(p.worker_range(w).contains(&v));
        }
    }

    #[test]
    fn more_workers_than_vertices() {
        let p = Partition::range(2, 5);
        assert_eq!(p.num_workers(), 5);
        assert_eq!(p.worker_len(WorkerId(0)), 1);
        assert_eq!(p.worker_len(WorkerId(1)), 1);
        assert_eq!(p.worker_len(WorkerId(4)), 0);
    }

    #[test]
    fn layout_splits_evenly() {
        let p = Partition::range(12, 2);
        let l = BlockLayout::uniform(&p, 3);
        assert_eq!(l.num_blocks(), 6);
        assert_eq!(l.block_range(BlockId(0)), 0..2);
        assert_eq!(l.owner(BlockId(0)), WorkerId(0));
        assert_eq!(l.owner(BlockId(3)), WorkerId(1));
        assert_eq!(l.block_range(BlockId(5)), 10..12);
    }

    #[test]
    fn block_of_is_consistent() {
        let p = Partition::range(100, 4);
        let l = BlockLayout::uniform(&p, 5);
        for v in 0..100u32 {
            let b = l.block_of(VertexId(v));
            assert!(l.block_range(b).contains(&v));
            assert_eq!(l.owner(b), p.worker_of(VertexId(v)));
        }
    }

    #[test]
    fn blocks_clamped_to_vertices() {
        let p = Partition::range(3, 1);
        let l = BlockLayout::uniform(&p, 10);
        assert_eq!(l.num_blocks(), 3);
        for b in l.block_ids() {
            assert_eq!(l.block_range(b).len(), 1);
        }
    }

    #[test]
    fn worker_block_runs() {
        let p = Partition::range(20, 2);
        let l = BlockLayout::uniform(&p, 4);
        let w0: Vec<_> = l.blocks_of_worker(WorkerId(0)).collect();
        assert_eq!(w0, vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(l.worker_block_count(WorkerId(1)), 4);
    }

    #[test]
    fn eq5_eq6_formulas() {
        // n_i = 1000, T = 5, B_i = 500 -> (2000 + 5000)/500 = 14
        assert_eq!(vblocks_eq5(1000, 5, 500), 14);
        // rounds up
        assert_eq!(vblocks_eq5(1000, 5, 499), 15);
        // floor of at least one block
        assert_eq!(vblocks_eq5(1, 1, 1_000_000), 1);
        assert_eq!(vblocks_eq6(10_000, 2_500), 4);
        assert_eq!(vblocks_eq6(0, 100), 1);
    }

    #[test]
    fn vblock_counts_combinable_vs_concat() {
        let g = gen::uniform(200, 2000, 3);
        let p = Partition::range(200, 4);
        let comb = vblock_counts(&g, &p, 100, true);
        let conc = vblock_counts(&g, &p, 100, false);
        assert_eq!(comb.len(), 4);
        // Eq 5: (2*50 + 50*4)/100 = 3 per worker
        assert!(comb.iter().all(|&v| v == 3));
        // Eq 6 depends on in-degree mass: total in-degree = 2000 across 4
        // workers at buffer 100 -> ~5 per worker (not exact; just positive)
        assert!(conc.iter().all(|&v| v >= 1));
        // Total in-degree is 2000, buffer 100 -> ~20 blocks overall, with
        // per-worker ceil rounding adding at most one block per worker.
        let total: usize = conc.iter().sum();
        assert!((20..=24).contains(&total), "total blocks {total}");
    }
}
