//! Diagnostic: the per-superstep switching trace of a hybrid run, next to
//! pure push and pure b-pull — what Fig. 14 condenses. Useful when
//! judging whether `Q_t`'s sign tracks the actually-cheaper mode.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode, SuperstepMetrics};
use hybridgraph_graph::Dataset;

/// Adds the hybrid trace for `algo` over `d`.
pub fn trace(algo: Algo, d: Dataset, scale: Scale, rep: &mut Report) {
    let g = scale.build(d);
    let mk = |mode| JobConfig::new(mode, workers_for(d)).with_buffer(buffer_for(d, scale));
    let hybrid = run_algo(algo, &g, mk(Mode::Hybrid));
    let push = run_algo(algo, &g, mk(Mode::Push));
    let bpull = run_algo(algo, &g, mk(Mode::BPull));
    let mut t = Table::new(
        format!("switch trace — {} over {}", algo.label(), d.name()),
        &[
            "t",
            "kind",
            "Q_t",
            "msgs",
            "spill B",
            "hy (s)",
            "push (s)",
            "b-pull (s)",
        ],
    );
    let len = hybrid
        .steps
        .len()
        .max(push.steps.len())
        .max(bpull.steps.len());
    let cell = |s: Option<&SuperstepMetrics>, f: fn(&SuperstepMetrics) -> Cell| {
        s.map_or(Cell::text("-"), f)
    };
    let secs = |s: Option<&SuperstepMetrics>| {
        s.map_or(Cell::text("-"), |s| {
            Cell::Secs(scale.project_secs(s.modeled_secs))
        })
    };
    for i in 0..len {
        let h = hybrid.steps.get(i);
        t.row(vec![
            Cell::Count(i as u64 + 1),
            cell(h, |s| Cell::text(s.kind.label())),
            cell(h, |s| Cell::Sci(s.q_metric, 2)),
            cell(h, |s| Cell::Count(s.messages_produced)),
            cell(h, |s| Cell::Count(s.sem.msg_spill_bytes)),
            secs(h),
            secs(push.steps.get(i)),
            secs(bpull.steps.get(i)),
        ]);
    }
    rep.add(t);
    println!(
        "hybrid switches: {:?}; totals: hybrid {:.0}s push {:.0}s b-pull {:.0}s\n",
        hybrid.switches,
        scale.project_secs(hybrid.modeled_total_secs()),
        scale.project_secs(push.modeled_total_secs()),
        scale.project_secs(bpull.modeled_total_secs()),
    );
}

/// SA and SSSP over twi — the cases Fig. 14 and §6.2 discuss.
pub fn run(scale: Scale, rep: &mut Report) {
    trace(Algo::Sa, Dataset::Twi, scale, rep);
    trace(Algo::Sssp, Dataset::Twi, scale, rep);
}
