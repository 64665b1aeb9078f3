//! The three batch workloads: inputs built from the seed, the job each
//! one repeats, and the check of its output against the reference.
//!
//! The engine only ever receives the built [`Graph`]; the seed stays in
//! here. Sizes are constants of the benchmark, chosen for a 2-core box
//! and a 20 s measuring window (see `README.md`).

use crate::engine::{run_timed, JobTimes};
use crate::reference;
use hybridgraph::graph::DatasetSpec;
use hybridgraph::prelude::*;
use std::sync::Arc;

/// Engine workers (the paper's computational nodes) in every batch job
/// and every registered graph. A stated constant, not `nproc`.
pub const WORKERS: usize = 2;

/// PageRank supersteps of the two PageRank workloads.
pub const PAGERANK_STEPS: u64 = 10;

/// `--quick` shrinks every graph by this factor (smoke runs only).
const QUICK_SHRINK: usize = 20;

/// Full-size or `--quick` inputs.
#[derive(Copy, Clone, Debug)]
pub struct Sizing {
    pub quick: bool,
}

impl Sizing {
    /// Scale denominator: `1/full` of the paper's graph, smaller still
    /// under `--quick`.
    pub fn denom(self, full: usize) -> usize {
        if self.quick {
            full * QUICK_SHRINK
        } else {
            full
        }
    }

    /// A message-buffer size that keeps its share of the graph.
    pub fn buffer(self, full: usize) -> usize {
        if self.quick {
            (full / QUICK_SHRINK).max(1)
        } else {
            full
        }
    }
}

fn seeded(dataset: Dataset, seed: u64) -> DatasetSpec {
    let mut spec = dataset.spec();
    spec.seed ^= seed;
    spec
}

/// The LiveJournal stand-in at `1/denom`, reseeded.
pub fn livej(denom: usize, seed: u64) -> Graph {
    seeded(Dataset::LiveJ, seed).build(denom)
}

/// The Wikipedia stand-in at `1/denom` with its diameter-extending chain
/// tail hung off the SSSP source, and that source (the max-out-degree
/// vertex).
///
/// The catalog anchors the tail at a random vertex, which a given source
/// reaches for some seeds and not for others — 1.1k supersteps or a
/// dozen. Attaching the same-length tail to the source keeps the
/// superstep count, and so the workload, the same for every seed.
pub fn wiki_with_tail(denom: usize, seed: u64) -> (Graph, VertexId) {
    let mut spec = seeded(Dataset::Wiki, seed);
    let tail_fraction = spec.tail_fraction;
    spec.tail_fraction = 0.0;
    let core = spec.build(denom);
    let n = core.num_vertices();
    let tail = ((n as f64 * tail_fraction) as usize).max(1);
    let source = core
        .vertices()
        .max_by_key(|&v| (core.out_degree(v), std::cmp::Reverse(v.0)))
        .expect("non-empty graph");
    let mut b = GraphBuilder::new(n + tail).with_edge_capacity(core.num_edges() + tail);
    for (src, e) in core.edges() {
        b.add_weighted(src, e.dst, e.weight);
    }
    let mut prev = source;
    for i in 0..tail {
        let next = VertexId((n + i) as u32);
        b.add_weighted(prev, next, 1.0);
        prev = next;
    }
    (b.build(), source)
}

/// A job a batch workload repeats.
pub trait Batch {
    type Program: VertexProgram;

    fn graph(&self) -> &Graph;
    fn program(&self) -> Arc<Self::Program>;
    fn config(&self) -> JobConfig;

    /// A cut-down job run once, untimed, when the workload is set up, so
    /// the first measured repetition meets warm allocators and caches.
    fn warm_up(&self) -> (Arc<Self::Program>, JobConfig);

    /// How many of `values` disagree with the in-memory reference (plus
    /// any cross-check of the workload's own).
    fn mismatches(&self, values: &[<Self::Program as VertexProgram>::Value]) -> usize;

    /// Runs the warm-up; a set-up that cannot run its job is fatal.
    fn warm(&self) {
        let (program, cfg) = self.warm_up();
        run_job(program, self.graph(), cfg).expect("warm-up job failed");
    }

    /// One timed repetition.
    fn run(&self) -> Result<(JobResult<Self::Program>, JobTimes), JobError> {
        run_timed(self.program(), self.graph(), self.config())
    }
}

/// `pagerank_push` and `pagerank_bpull_bv`: one graph, one program, two
/// ends of the engine.
pub struct PagerankJob {
    graph: Graph,
    cfg: JobConfig,
    /// Also compare against a `Mode::Push` run (the b-pull workload's
    /// cross-check that both modes compute the same ranks).
    cross_check_push: bool,
}

impl PagerankJob {
    const LIVEJ_DENOM: usize = 200;
    const PUSH_BUFFER: usize = 2_500;

    /// Receiver-side: push with a small buffer so most messages spill.
    pub fn push(seed: u64, sizing: Sizing) -> PagerankJob {
        PagerankJob {
            graph: livej(sizing.denom(Self::LIVEJ_DENOM), seed),
            cfg: JobConfig::new(Mode::Push, WORKERS).with_buffer(sizing.buffer(Self::PUSH_BUFFER)),
            cross_check_push: false,
        }
    }

    /// Sender-side: b-pull over bv-compressed VE-BLOCK extents.
    pub fn bpull_bv(seed: u64, sizing: Sizing) -> PagerankJob {
        PagerankJob {
            graph: livej(sizing.denom(Self::LIVEJ_DENOM), seed),
            cfg: JobConfig::new(Mode::BPull, WORKERS).with_codec(CodecChoice::Bv),
            cross_check_push: true,
        }
    }
}

impl Batch for PagerankJob {
    type Program = PageRank;

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn program(&self) -> Arc<PageRank> {
        Arc::new(PageRank::new(PAGERANK_STEPS))
    }

    fn config(&self) -> JobConfig {
        self.cfg.clone()
    }

    fn warm_up(&self) -> (Arc<PageRank>, JobConfig) {
        (Arc::new(PageRank::new(2)), self.cfg.clone())
    }

    fn mismatches(&self, values: &[f64]) -> usize {
        let want = reference::pagerank(&self.graph, PAGERANK_STEPS);
        let mut bad = reference::pagerank_mismatches(values, &want);
        if self.cross_check_push {
            let push = run_job(
                self.program(),
                &self.graph,
                JobConfig::new(Mode::Push, WORKERS),
            )
            .expect("cross-check push job failed");
            bad += reference::pagerank_mismatches(values, &push.values);
        }
        bad
    }
}

/// `sssp_hybrid_ckpt`: a long convergent tail of near-empty supersteps
/// with the write side of storage switched on.
pub struct SsspJob {
    graph: Graph,
    source: VertexId,
    cfg: JobConfig,
}

impl SsspJob {
    const WIKI_DENOM: usize = 100;
    const BUFFER: usize = 5_000;
    const WARM_UP_SUPERSTEPS: u64 = 100;

    pub fn hybrid_ckpt(seed: u64, sizing: Sizing) -> SsspJob {
        let (graph, source) = wiki_with_tail(sizing.denom(Self::WIKI_DENOM), seed);
        let cfg = JobConfig::new(Mode::Hybrid, WORKERS)
            .with_buffer(sizing.buffer(Self::BUFFER))
            .with_codec(CodecChoice::Gaps)
            .with_checkpoint(CheckpointPolicy::EveryK(5))
            .with_message_logging(true);
        SsspJob { graph, source, cfg }
    }
}

impl Batch for SsspJob {
    type Program = Sssp;

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn program(&self) -> Arc<Sssp> {
        Arc::new(Sssp::new(self.source))
    }

    fn config(&self) -> JobConfig {
        self.cfg.clone()
    }

    fn warm_up(&self) -> (Arc<Sssp>, JobConfig) {
        let mut cfg = self.cfg.clone();
        cfg.max_supersteps = Self::WARM_UP_SUPERSTEPS;
        (self.program(), cfg)
    }

    fn mismatches(&self, values: &[f32]) -> usize {
        reference::sssp_mismatches(values, &reference::sssp(&self.graph, self.source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        assert_eq!(livej(20_000, 7), livej(20_000, 7));
        assert_ne!(livej(20_000, 7), livej(20_000, 8));
    }

    #[test]
    fn tail_hangs_off_the_source_for_every_seed() {
        for seed in 0..4 {
            let (g, source) = wiki_with_tail(5_000, seed);
            let last = VertexId(g.num_vertices() as u32 - 1);
            let dist = reference::sssp(&g, source);
            assert!(
                dist[last.index()].is_finite(),
                "seed {seed}: tail unreachable"
            );
            assert_eq!(g.out_degree(last), 0);
        }
    }
}
