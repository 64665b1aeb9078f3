//! Fig. 2 — the motivating experiment: Giraph-style push over `wiki`
//! with the message buffer swept from "all in memory" down to 0.5 M
//! messages (scaled). Reports overall runtime and the percentage of
//! messages that hit disk for PageRank (10 supersteps) and SSSP.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo_steps, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;

/// Runs the buffer sweep for one algorithm.
fn sweep(algo: Algo, scale: Scale, rep: &mut Report) {
    let d = Dataset::Wiki;
    let g = scale.build(d);
    let workers = workers_for(d);
    let base = buffer_for(d, scale); // the paper's 0.5 M messages, scaled
                                     // The paper sweeps 0.5 .. 9.5 million messages plus "mem".
    let sweep: Vec<Option<usize>> = vec![
        None, // mem
        Some(base * 19),
        Some(base * 16),
        Some(base * 13),
        Some(base * 10),
        Some(base * 7),
        Some(base * 4),
        Some(base),
    ];
    let mut t = Table::new(
        format!("Fig 2 — push over wiki, {} (buffer sweep)", algo.label()),
        &[
            "buffer (msgs)",
            "runtime (s)",
            "msgs on disk %",
            "supersteps",
        ],
    );
    for buf in sweep {
        let mut cfg = JobConfig::new(Mode::Push, workers);
        if let Some(b) = buf {
            cfg = cfg.with_buffer(b);
        }
        let budget = if algo == Algo::PageRank { 10 } else { 5 };
        let m = run_algo_steps(algo, &g, cfg, budget);
        let total_msgs: u64 = m.steps.iter().map(|s| s.messages_produced).sum();
        // Sm: 4-byte destination id + message payload (f64 for PageRank,
        // f32 for SSSP).
        let sm = if algo == Algo::PageRank { 12 } else { 8 };
        let spill_bytes: u64 = m.steps.iter().map(|s| s.sem.msg_spill_bytes).sum();
        let spilled_msgs = spill_bytes / sm;
        let pct = if total_msgs == 0 {
            0.0
        } else {
            100.0 * spilled_msgs as f64 / total_msgs as f64
        };
        t.row(vec![
            buf.map_or(Cell::text("mem"), |b| Cell::Count(b as u64)),
            Cell::Secs(scale.project_secs(m.modeled_total_secs())),
            Cell::Fixed(pct, 0),
            Cell::Count(m.supersteps()),
        ]);
    }
    rep.add(t);
}

/// Adds Fig. 2 (a) and (b).
pub fn run(scale: Scale, rep: &mut Report) {
    sweep(Algo::PageRank, scale, rep);
    sweep(Algo::Sssp, scale, rep);
}
