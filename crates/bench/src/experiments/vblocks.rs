//! Figs. 23–25 (Appendix C) — the impact of the Vblock count `V`:
//! memory requirements drop as `V` grows (smaller receive buffers) while
//! I/O bytes grow (more fragments, Theorem 1); runtime bottoms out in
//! between, with SSSP showing the turning point the appendix discusses.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;

fn sweep(d: Dataset, scale: Scale, rep: &mut Report) {
    let g = scale.build(d);
    let workers = workers_for(d);
    // x-axis of Figs. 23-25: min (1 block/worker) then 50..400 blocks
    // total, scaled to blocks per worker.
    let per_worker: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
    let mut t = Table::new(
        format!("Figs 23-25 — impact of Vblock count over {}", d.name()),
        &[
            "Vblocks/worker",
            "PR mem",
            "PR io",
            "PR time",
            "SSSP mem",
            "SSSP io",
            "SSSP time",
        ],
    );
    for &v in &per_worker {
        let mut row = vec![Cell::Count(v as u64)];
        for algo in [Algo::PageRank, Algo::Sssp] {
            let mut cfg = JobConfig::new(Mode::BPull, workers).with_buffer(buffer_for(d, scale));
            cfg.vblocks_per_worker = Some(v);
            let m = run_algo(algo, &g, cfg);
            // Fig 23(a): average (PR) or max (SSSP) per-superstep memory.
            let mem = if algo == Algo::PageRank {
                let steps = m.steps.len().max(1) as u64;
                m.steps.iter().map(|s| s.memory_bytes).sum::<u64>() / steps
            } else {
                m.peak_memory_bytes()
            };
            row.push(Cell::Bytes(mem));
            row.push(Cell::Bytes(m.total_io_bytes()));
            row.push(Cell::Secs(scale.project_secs(m.modeled_total_secs())));
        }
        t.row(row);
    }
    rep.add(t);
}

/// Adds the V sweep over `livej` and `wiki`.
pub fn run(scale: Scale, rep: &mut Report) {
    sweep(Dataset::LiveJ, scale, rep);
    sweep(Dataset::Wiki, scale, rep);
}
