//! Fig. 26 (Appendix E) — the effectiveness of combining vs the sending
//! threshold: PageRank over `orkut` with pushM, pushM+com (sender-side
//! combining within each flushed buffer) and b-pull, thresholds swept
//! 1–32 MB (scaled). pushM+com's combining ratio collapses with small
//! thresholds because merge partners flush apart; b-pull's is
//! threshold-independent because it generates all messages for a
//! destination together.

use crate::report::{Cell, Report, Table};
use crate::{report_secs, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, JobMetrics, Mode};
use hybridgraph_graph::Dataset;

fn combining_ratio(m: &JobMetrics) -> f64 {
    let raw: u64 = m.steps.iter().map(|s| s.net_raw_messages).sum();
    let saved: u64 = m.steps.iter().map(|s| s.net_saved_messages).sum();
    if raw == 0 {
        0.0
    } else {
        saved as f64 / raw as f64
    }
}

/// Adds Fig. 26 (a) runtime and (b) combining ratio.
pub fn run(scale: Scale, rep: &mut Report) {
    let d = Dataset::Orkut;
    let g = scale.build(d);
    let workers = workers_for(d);
    // Thresholds 1..32 MB at paper scale; scaled down with the data so
    // the buffers hold proportionally as many messages.
    let mbs = [1usize, 2, 4, 8, 16, 32];
    let mut t = Table::new(
        "Fig 26 — combining vs sending threshold (PageRank over orkut)",
        &[
            "threshold",
            "pushM (s)",
            "pushM+com (s)",
            "b-pull (s)",
            "com ratio pushM+com",
            "com ratio b-pull",
        ],
    );
    for &mb in &mbs {
        let threshold = (mb * 1024 * 1024 / scale.0).max(256);
        // Fig. 26 uses the sufficient-memory setting of Fig. 7(a).
        let mem = hybridgraph_storage::DeviceProfile::memory();
        let pushm = run_algo(
            Algo::PageRank,
            &g,
            JobConfig::new(Mode::PushM, workers)
                .with_sending_threshold(threshold)
                .with_profile(mem),
        );
        let mut com_cfg = JobConfig::new(Mode::PushM, workers)
            .with_sending_threshold(threshold)
            .with_profile(mem);
        com_cfg.push_sender_combining = true;
        let pushm_com = run_algo(Algo::PageRank, &g, com_cfg);
        let bpull = run_algo(
            Algo::PageRank,
            &g,
            JobConfig::new(Mode::BPull, workers)
                .with_sending_threshold(threshold)
                .with_profile(mem),
        );
        t.row(vec![
            Cell::text(format!("{mb}MB")),
            Cell::Secs(report_secs(Algo::PageRank, &pushm, scale)),
            Cell::Secs(report_secs(Algo::PageRank, &pushm_com, scale)),
            Cell::Secs(report_secs(Algo::PageRank, &bpull, scale)),
            Cell::ratio(combining_ratio(&pushm_com)),
            Cell::ratio(combining_ratio(&bpull)),
        ]);
    }
    rep.add(t);
}
