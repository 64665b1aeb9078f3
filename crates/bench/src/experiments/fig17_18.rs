//! Fig. 17 — blocking (message-exchange) time per superstep for push,
//! pushM and b-pull, PageRank over `wiki` and `orkut`; and
//! Fig. 18 — network traffic of push vs b-pull with b-pull's combining
//! disabled (concatenation only), as a per-superstep in/out series.
//!
//! b-pull exchanges no messages in superstep 1 (its first superstep is
//! local initialization), which Fig. 17 notes.

use crate::report::{Cell, Report, Table};
use crate::{run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, JobMetrics, Mode};
use hybridgraph_graph::Dataset;

const DATASETS: [Dataset; 2] = [Dataset::Wiki, Dataset::Orkut];

/// The PageRank runs of one stand-in: push, which both figures read, and
/// the others each figure asks for.
struct Runs {
    push: JobMetrics,
    /// pushM and b-pull (Fig. 17).
    fig17: Option<[JobMetrics; 2]>,
    /// b-pull with combining off (Fig. 18).
    fig18: Option<JobMetrics>,
}

/// The runs over wiki and orkut, each graph built once and each job run
/// once.
fn runs(scale: Scale, fig17: bool, fig18: bool) -> [Runs; 2] {
    DATASETS.map(|d| {
        let g = scale.build(d);
        let run = |mode, combining| {
            let mut cfg = JobConfig::new(mode, workers_for(d));
            cfg.combining = combining;
            run_algo(Algo::PageRank, &g, cfg)
        };
        Runs {
            push: run(Mode::Push, true),
            fig17: fig17.then(|| [run(Mode::PushM, true), run(Mode::BPull, true)]),
            fig18: fig18.then(|| run(Mode::BPull, false)),
        }
    })
}

/// Fig. 17 alone.
pub fn fig17(scale: Scale, rep: &mut Report) {
    add_fig17(scale, &runs(scale, true, false), rep);
}

/// Fig. 18 alone.
pub fn fig18(scale: Scale, rep: &mut Report) {
    add_fig18(&runs(scale, false, true), rep);
}

/// Figs. 17 and 18 in order, from one set of runs.
pub fn figs17_18(scale: Scale, rep: &mut Report) {
    let runs = runs(scale, true, true);
    add_fig17(scale, &runs, rep);
    add_fig18(&runs, rep);
}

/// Fig. 17 — modeled network (blocking) seconds per superstep.
fn add_fig17(scale: Scale, runs: &[Runs], rep: &mut Report) {
    for (d, r) in DATASETS.iter().zip(runs) {
        let mut t = Table::new(
            format!(
                "Fig 17 — blocking time per superstep (PageRank over {})",
                d.name()
            ),
            &["superstep", "push (s)", "pushM (s)", "b-pull (s)"],
        );
        let [push_m, b_pull] = r.fig17.as_ref().expect("Fig. 17 runs");
        let runs = [&r.push, push_m, b_pull];
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
fn add_fig18(runs: &[Runs], rep: &mut Report) {
    for (d, r) in DATASETS.iter().zip(runs) {
        let (push, bpull) = (&r.push, r.fig18.as_ref().expect("Fig. 18 run"));
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
