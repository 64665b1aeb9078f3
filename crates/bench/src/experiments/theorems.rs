//! Theorem 1 and Theorem 2 — empirical verification tables.
//!
//! Theorem 1: the expected number of VE-BLOCK fragments grows with the
//! Vblock count `V`. Theorem 2: on a broadcast-all workload, whenever the
//! cluster-wide buffer `B ≤ B⊥ = |E|/2 − f`, push's I/O bytes are at
//! least b-pull's.

use crate::report::{Cell, Report, Table};
use crate::{run_algo, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::{partition::vblock_counts, BlockLayout, Dataset, Partition, WorkerId};
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::MemVfs;

/// Theorem 1: fragments vs V over `livej`.
fn theorem1(scale: Scale, rep: &mut Report) {
    let g = scale.build(Dataset::LiveJ);
    let p = Partition::range(g.num_vertices(), 5);
    let mut t = Table::new(
        "Theorem 1 — fragments grow with V (livej)",
        &["Vblocks/worker", "total V", "fragments", "frag/|E|"],
    );
    for per in [1usize, 2, 4, 8, 16, 32, 64] {
        let layout = BlockLayout::uniform(&p, per);
        let vfs = MemVfs::new();
        let mut frags = 0u64;
        for w in 0..5 {
            frags += VeBlockStore::build(&vfs, &g, &layout, WorkerId::from(w))
                .unwrap()
                .total_fragments();
        }
        t.row(vec![
            Cell::Count(per as u64),
            Cell::Count(layout.num_blocks() as u64),
            Cell::Count(frags),
            Cell::Fixed(frags as f64 / g.num_edges() as f64, 3),
        ]);
    }
    rep.add(t);
}

/// Theorem 2: sweep B around B⊥ on PageRank (broadcast-all) and compare
/// measured per-superstep I/O bytes of push vs b-pull.
fn theorem2(scale: Scale, rep: &mut Report) {
    let d = Dataset::LiveJ;
    let g = scale.build(d);
    let workers = 5usize;
    // Determine f for the Eq.5-sized layout at each buffer setting.
    let mut t = Table::new(
        "Theorem 2 — B vs B⊥ and measured Cio (PageRank over livej)",
        &[
            "B (msgs, cluster)",
            "B⊥",
            "B<=B⊥",
            "io push",
            "io b-pull",
            "push>=b-pull",
        ],
    );
    let m_edges = g.num_edges() as u64;
    for per_worker_buf in [64usize, 256, 1024, 4096, 16384, 65536] {
        let b_total = (per_worker_buf * workers) as u64;
        let p = Partition::range(g.num_vertices(), workers);
        let counts = vblock_counts(&g, &p, per_worker_buf, true);
        let layout = BlockLayout::new(&p, &counts);
        let vfs = MemVfs::new();
        let mut f = 0u64;
        for w in 0..workers {
            f += VeBlockStore::build(&vfs, &g, &layout, WorkerId::from(w))
                .unwrap()
                .total_fragments();
        }
        let b_lower = hybridgraph_core::b_lower_bound(m_edges, f);

        let push = run_algo(
            Algo::PageRank,
            &g,
            JobConfig::new(Mode::Push, workers).with_buffer(per_worker_buf),
        );
        let bpull = run_algo(
            Algo::PageRank,
            &g,
            JobConfig::new(Mode::BPull, workers).with_buffer(per_worker_buf),
        );
        let io_push = push.total_io_bytes();
        let io_bpull = bpull.total_io_bytes();
        t.row(vec![
            Cell::Count(b_total),
            // Signed: B⊥ is negative once fragments outnumber |E|/2.
            Cell::text(b_lower.to_string()),
            Cell::text(((b_total as i64) <= b_lower).to_string()),
            Cell::Bytes(io_push),
            Cell::Bytes(io_bpull),
            Cell::text((io_push >= io_bpull).to_string()),
        ]);
    }
    rep.add(t);
}

/// Adds both theorem tables.
pub fn run(scale: Scale, rep: &mut Report) {
    theorem1(scale, rep);
    theorem2(scale, rep);
}
