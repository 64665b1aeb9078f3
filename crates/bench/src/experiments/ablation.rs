//! Ablations of the design choices DESIGN.md calls out: b-pull's
//! pre-pull pipeline, sender-side combining, and hybrid's switching
//! threshold (0 = the paper's bare `Q_t` sign rule).

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, JobMetrics, Mode};
use hybridgraph_graph::Dataset;

fn base_cfg(d: Dataset, mode: Mode, scale: Scale) -> JobConfig {
    JobConfig::new(mode, workers_for(d)).with_buffer(buffer_for(d, scale))
}

fn row(label: &str, m: &JobMetrics, scale: Scale) -> Vec<Cell> {
    vec![
        Cell::text(label),
        Cell::Secs(scale.project_secs(m.modeled_total_secs())),
        Cell::Bytes(m.total_io_bytes()),
        Cell::Bytes(m.total_net_bytes()),
        Cell::Count(m.peak_memory_bytes()),
        Cell::Count(m.switches.len() as u64),
    ]
}

/// Adds the ablation tables.
pub fn run(scale: Scale, rep: &mut Report) {
    let headers = [
        "variant",
        "runtime (s)",
        "io",
        "net",
        "peak mem B",
        "switches",
    ];

    // (1) b-pull's pre-pull pipeline (PageRank over livej): buys overlap
    // at the price of a second in-flight receive buffer (Eq. 5's 2x).
    let d = Dataset::LiveJ;
    let g = scale.build(d);
    let mut t = Table::new("ablation — b-pull pre-pull (PageRank, livej)", &headers);
    for (label, pre) in [("pre-pull on", true), ("pre-pull off", false)] {
        let mut cfg = base_cfg(d, Mode::BPull, scale);
        cfg.pre_pull = pre;
        t.row(row(label, &run_algo(Algo::PageRank, &g, cfg), scale));
    }
    rep.add(t);

    // (2) b-pull combining vs concatenation vs neither is Fig. 18/26
    // territory; here: combining's effect on bytes AND runtime.
    let mut t = Table::new("ablation — b-pull combining (PageRank, livej)", &headers);
    for (label, combining) in [("combining on", true), ("concatenate only", false)] {
        let mut cfg = base_cfg(d, Mode::BPull, scale);
        cfg.combining = combining;
        t.row(row(label, &run_algo(Algo::PageRank, &g, cfg), scale));
    }
    rep.add(t);

    // (3) hybrid's switching threshold (SSSP over twi, where switching
    // actually fires): 0 restores the paper's bare sign rule.
    let d = Dataset::Twi;
    let g = scale.build(d);
    let mut t = Table::new("ablation — hybrid switch threshold (SSSP, twi)", &headers);
    for (label, thr) in [
        ("threshold 0 (paper)", 0.0),
        ("threshold 0.1 (default)", 0.1),
        ("threshold 1.0", 1.0),
    ] {
        let mut cfg = base_cfg(d, Mode::Hybrid, scale);
        cfg.switch_threshold = thr;
        t.row(row(label, &run_algo(Algo::Sssp, &g, cfg), scale));
    }
    rep.add(t);

    // (4) hybrid's decision interval Δt (paper argues for 2).
    let mut t = Table::new("ablation — hybrid Δt interval (SSSP, twi)", &headers);
    for dt in [1u64, 2, 4] {
        let mut cfg = base_cfg(d, Mode::Hybrid, scale);
        cfg.switch_interval = dt;
        t.row(row(
            &format!("Δt = {dt}"),
            &run_algo(Algo::Sssp, &g, cfg),
            scale,
        ));
    }
    rep.add(t);

    // (5) forcing hybrid's initial mode against Theorem 2's choice.
    let mut t = Table::new("ablation — hybrid initial mode (PageRank, livej)", &headers);
    let gl = scale.build(Dataset::LiveJ);
    for (label, init) in [
        ("Theorem 2 (b-pull)", None),
        ("forced push", Some(Mode::Push)),
        ("forced b-pull", Some(Mode::BPull)),
    ] {
        let mut cfg = base_cfg(Dataset::LiveJ, Mode::Hybrid, scale);
        cfg.initial_mode_override = init;
        t.row(row(label, &run_algo(Algo::PageRank, &gl, cfg), scale));
    }
    rep.add(t);
}
