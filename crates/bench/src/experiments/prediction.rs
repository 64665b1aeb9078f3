//! Figs. 11–13 — prediction accuracy of the switching sub-metrics.
//!
//! With a switching interval of Δt = 2, the value collected at superstep
//! `t` predicts superstep `t + 2`. The figures plot, per superstep, the
//! ratio of the predicted value to the value actually observed two
//! supersteps later, for `M_co` (Fig. 11), `C_io(push)` (Fig. 12) and
//! `C_io(b-pull)` (Fig. 13), running SSSP and SA over every dataset.

use crate::table::{ratio, Table};
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
            Metric::Mco => s.mco as f64,
            Metric::CioPush => s.cio_push_bytes as f64,
            Metric::CioBpull => s.cio_bpull_bytes as f64,
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

/// Prints the per-superstep predicted/actual ratios of `metric` for one
/// algorithm across all datasets (columns = datasets, rows = supersteps).
fn accuracy(metric: Metric, algo: Algo, scale: Scale, max_rows: usize) {
    let mut series: Vec<Vec<f64>> = Vec::new();
    let mut names = Vec::new();
    for d in Dataset::ALL {
        let g = scale.build(d);
        let cfg = JobConfig::new(Mode::Hybrid, workers_for(d)).with_buffer(buffer_for(d, scale));
        let m = run_algo(algo, &g, cfg);
        let vals: Vec<f64> = m.steps.iter().map(|s| metric.get(s)).collect();
        // ratio(t) = predicted-at-(t-2) / actual-at-t
        let ratios: Vec<f64> = (2..vals.len())
            .map(|t| {
                if vals[t] == 0.0 {
                    if vals[t - 2] == 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    vals[t - 2] / vals[t]
                }
            })
            .collect();
        names.push(d.name());
        series.push(ratios);
    }
    let mut headers = vec!["superstep"];
    headers.extend(names.iter().copied());
    let mut t = Table::new(
        &format!(
            "prediction accuracy of {} — {}",
            metric.label(),
            algo.label()
        ),
        &headers,
    );
    let rows = series.iter().map(Vec::len).max().unwrap_or(0).min(max_rows);
    for r in 0..rows {
        let mut cells = vec![format!("{}", r + 3)];
        for s in &series {
            cells.push(match s.get(r) {
                Some(v) if v.is_finite() => ratio(*v),
                Some(_) => "inf".into(),
                None => "-".into(),
            });
        }
        t.row(cells);
    }
    t.print();
}

/// Fig. 11 — `M_co` accuracy for SSSP and SA.
pub fn fig11(scale: Scale) {
    accuracy(Metric::Mco, Algo::Sssp, scale, 16);
    accuracy(Metric::Mco, Algo::Sa, scale, 16);
}

/// Fig. 12 — `C_io(push)` accuracy.
pub fn fig12(scale: Scale) {
    accuracy(Metric::CioPush, Algo::Sssp, scale, 16);
    accuracy(Metric::CioPush, Algo::Sa, scale, 16);
}

/// Fig. 13 — `C_io(b-pull)` accuracy.
pub fn fig13(scale: Scale) {
    accuracy(Metric::CioBpull, Algo::Sssp, scale, 16);
    accuracy(Metric::CioBpull, Algo::Sa, scale, 16);
}
