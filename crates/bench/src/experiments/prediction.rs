//! Figs. 11–13 — prediction accuracy of the switching sub-metrics.
//!
//! With a switching interval of Δt = 2, the value collected at superstep
//! `t` predicts superstep `t + 2`. The figures plot, per superstep, the
//! ratio of the predicted value to the value actually observed two
//! supersteps later, for `M_co` (Fig. 11), `C_io(push)` (Fig. 12) and
//! `C_io(b-pull)` (Fig. 13), running SSSP and SA over every dataset.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode, SuperstepMetrics};
use hybridgraph_graph::Dataset;

/// Which sub-metric a figure plots.
#[derive(Copy, Clone, Debug)]
pub enum Metric {
    /// Fig. 11.
    Mco,
    /// Fig. 12.
    CioPush,
    /// Fig. 13.
    CioBpull,
}

impl Metric {
    fn get(self, s: &SuperstepMetrics) -> f64 {
        match self {
            Metric::Mco => s.qt.mco as f64,
            Metric::CioPush => s.cio_push_bytes() as f64,
            Metric::CioBpull => s.cio_bpull_bytes() as f64,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Metric::Mco => "Mco",
            Metric::CioPush => "Cio(push)",
            Metric::CioBpull => "Cio(b-pull)",
        }
    }
}

/// The algorithms the figures run.
const ALGOS: [Algo; 2] = [Algo::Sssp, Algo::Sa];

/// Per algorithm of [`ALGOS`], per dataset, every superstep's metrics.
type Runs = [Vec<Vec<SuperstepMetrics>>; 2];

/// Runs each algorithm of [`ALGOS`] in hybrid over every dataset once,
/// building each dataset once.
fn runs(scale: Scale) -> Runs {
    let mut runs = Runs::default();
    for d in Dataset::ALL {
        let g = scale.build(d);
        for (algo, per_dataset) in ALGOS.into_iter().zip(&mut runs) {
            let cfg =
                JobConfig::new(Mode::Hybrid, workers_for(d)).with_buffer(buffer_for(d, scale));
            per_dataset.push(run_algo(algo, &g, cfg).steps);
        }
    }
    runs
}

/// Adds, per algorithm, the per-superstep predicted/actual ratios of
/// `metric` across all datasets (columns = datasets, rows = the first 16
/// supersteps that have one).
fn add(metric: Metric, runs: &Runs, rep: &mut Report) {
    for (algo, per_dataset) in ALGOS.into_iter().zip(runs) {
        // ratio(t) = predicted-at-(t-2) / actual-at-t
        let series: Vec<Vec<f64>> = per_dataset
            .iter()
            .map(|steps| {
                let vals: Vec<f64> = steps.iter().map(|s| metric.get(s)).collect();
                let ratio = |t: usize| match (vals[t - 2], vals[t]) {
                    (predicted, actual) if actual != 0.0 => predicted / actual,
                    (0.0, _) => 1.0,
                    _ => f64::INFINITY,
                };
                (2..vals.len()).map(ratio).collect()
            })
            .collect();
        let mut headers = vec!["superstep"];
        headers.extend(Dataset::ALL.iter().map(|d| d.name()));
        let title = format!(
            "prediction accuracy of {} — {}",
            metric.label(),
            algo.label()
        );
        let mut t = Table::new(title, &headers);
        for r in 0..series.iter().map(Vec::len).max().unwrap_or(0).min(16) {
            let mut cells = vec![Cell::Count(r as u64 + 3)];
            cells.extend(
                series
                    .iter()
                    .map(|s| s.get(r).map_or(Cell::text("-"), |&v| Cell::ratio(v))),
            );
            t.row(cells);
        }
        rep.add(t);
    }
}

/// Fig. 11 — `M_co` accuracy for SSSP and SA.
pub fn fig11(scale: Scale, rep: &mut Report) {
    add(Metric::Mco, &runs(scale), rep);
}

/// Fig. 12 — `C_io(push)` accuracy.
pub fn fig12(scale: Scale, rep: &mut Report) {
    add(Metric::CioPush, &runs(scale), rep);
}

/// Fig. 13 — `C_io(b-pull)` accuracy.
pub fn fig13(scale: Scale, rep: &mut Report) {
    add(Metric::CioBpull, &runs(scale), rep);
}

/// Figs. 11–13 in order, from one set of runs.
pub fn figs11_to_13(scale: Scale, rep: &mut Report) {
    let runs = runs(scale);
    for metric in [Metric::Mco, Metric::CioPush, Metric::CioBpull] {
        add(metric, &runs, rep);
    }
}
