//! Fig. 17 — blocking (message-exchange) time per superstep for push,
//! pushM and b-pull, PageRank over `wiki` and `orkut`; and
//! Fig. 18 — network traffic of push vs b-pull with b-pull's combining
//! disabled (concatenation only), as a per-superstep in/out series.
//!
//! b-pull exchanges no messages in superstep 1 (its first superstep is
//! local initialization), which Fig. 17 notes.

use crate::report::{Cell, Report, Table};
use crate::{run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;

/// Fig. 17 — modeled network (blocking) seconds per superstep.
pub fn fig17(scale: Scale, rep: &mut Report) {
    for d in [Dataset::Wiki, Dataset::Orkut] {
        let g = scale.build(d);
        let mut t = Table::new(
            format!(
                "Fig 17 — blocking time per superstep (PageRank over {})",
                d.name()
            ),
            &["superstep", "push (s)", "pushM (s)", "b-pull (s)"],
        );
        let runs: Vec<_> = [Mode::Push, Mode::PushM, Mode::BPull]
            .into_iter()
            .map(|mode| {
                let cfg = JobConfig::new(mode, workers_for(d));
                run_algo(Algo::PageRank, &g, cfg)
            })
            .collect();
        let len = runs.iter().map(|m| m.steps.len()).max().unwrap_or(0);
        for i in 0..len {
            let cell = |ri: usize| {
                runs[ri].steps.get(i).map_or(Cell::text("-"), |s| {
                    Cell::Fixed(scale.project_secs(s.modeled_net_secs), 2)
                })
            };
            t.row(vec![Cell::Count(i as u64 + 1), cell(0), cell(1), cell(2)]);
        }
        rep.add(t);
    }
}

/// Fig. 18 — per-superstep network bytes, push vs b-pull
/// (b-pull combining disabled; concatenation alone still roughly halves
/// traffic by sharing destination ids).
pub fn fig18(scale: Scale, rep: &mut Report) {
    for d in [Dataset::Wiki, Dataset::Orkut] {
        let g = scale.build(d);
        let push = run_algo(
            Algo::PageRank,
            &g,
            JobConfig::new(Mode::Push, workers_for(d)),
        );
        let mut cfg = JobConfig::new(Mode::BPull, workers_for(d));
        cfg.combining = false;
        let bpull = run_algo(Algo::PageRank, &g, cfg);
        let mut t = Table::new(
            format!(
                "Fig 18 — network traffic per superstep (PageRank over {})",
                d.name()
            ),
            &["superstep", "push out", "b-pull out", "b-pull/push"],
        );
        let len = push.steps.len().max(bpull.steps.len());
        let mut tot_push = 0u64;
        let mut tot_bpull = 0u64;
        for i in 0..len {
            let p = push.steps.get(i).map(|s| s.net_out_bytes).unwrap_or(0);
            let b = bpull.steps.get(i).map(|s| s.net_out_bytes).unwrap_or(0);
            tot_push += p;
            tot_bpull += b;
            t.row(vec![
                Cell::Count(i as u64 + 1),
                Cell::Bytes(p),
                Cell::Bytes(b),
                if p == 0 {
                    Cell::text("-")
                } else {
                    Cell::ratio(b as f64 / p as f64)
                },
            ]);
        }
        t.row(vec![
            Cell::text("total"),
            Cell::Bytes(tot_push),
            Cell::Bytes(tot_bpull),
            Cell::ratio(tot_bpull as f64 / tot_push.max(1) as f64),
        ]);
        rep.add(t);
    }
}
