//! Fig. 15 — scalability: PageRank with pushM vs hybrid while the number
//! of computational nodes shrinks from 30 to 10. Fewer nodes mean more
//! data (and more spilled messages) per node: pushM degrades
//! super-linearly, hybrid sub-linearly.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, report_secs, run_algo, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;

/// Adds Fig. 15 (a) pushM and (b) hybrid.
pub fn run(scale: Scale, rep: &mut Report) {
    let workers = [10usize, 15, 20, 25, 30];
    for mode in [Mode::PushM, Mode::Hybrid] {
        let mut headers = vec!["graph"];
        let labels: Vec<String> = workers.iter().map(|w| format!("T={w}")).collect();
        headers.extend(labels.iter().map(|s| s.as_str()));
        let mut t = Table::new(
            format!(
                "Fig 15 — PageRank runtime (s, projected) vs nodes, {}",
                mode.label()
            ),
            &headers,
        );
        for d in Dataset::ALL {
            let g = scale.build(d);
            let mut cells = vec![Cell::text(d.name())];
            for &w in &workers {
                let cfg = JobConfig::new(mode, w).with_buffer(buffer_for(d, scale));
                let m = run_algo(Algo::PageRank, &g, cfg);
                cells.push(Cell::Secs(report_secs(Algo::PageRank, &m, scale)));
            }
            t.row(cells);
        }
        rep.add(t);
    }
}
