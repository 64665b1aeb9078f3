//! Reproduction harness for every table and figure in the paper's
//! evaluation (§6 and appendices).
//!
//! The `repro` binary dispatches to one module per experiment in
//! [`experiments`]; shared machinery lives here:
//!
//! * [`Scale`] — all datasets are generated at `1/denominator` of the
//!   paper's sizes (Table 4). Byte counts and modeled times scale
//!   linearly with size, so reported *modeled* seconds are multiplied
//!   back by the denominator to land in the paper's ballpark; the shapes
//!   (who wins, by what factor, where crossovers fall) are what the
//!   reproduction is judged on.
//! * [`Algo`] — the four evaluated algorithms with the paper's superstep
//!   budgets and per-algorithm reporting convention (PageRank and LPA
//!   report per-superstep averages; SSSP and SA run to convergence).
//! * [`run_algo`] — one job run returning its [`JobMetrics`].
//! * [`report`] — the typed tables every experiment prints, and the
//!   `BENCH_<experiment>.json` file `repro` writes from them.

pub mod experiments;
pub mod gwcli;
pub mod report;

use hybridgraph_algos::{Lpa, PageRank, Sa, Sssp};
use hybridgraph_core::{run_job, JobConfig, JobMetrics};
use hybridgraph_graph::{Dataset, Graph, VertexId};
use std::sync::Arc;

/// The dataset scale denominator (paper size / denominator).
#[derive(Copy, Clone, Debug)]
pub struct Scale(pub usize);

impl Scale {
    /// Default scale: 1/2000 of the paper's graphs.
    pub fn default_scale() -> Scale {
        Scale(2000)
    }

    /// Builds a dataset stand-in at this scale.
    pub fn build(&self, d: Dataset) -> Graph {
        d.build_scaled(self.0)
    }

    /// Scales a paper-sized quantity (e.g. a message-buffer size in
    /// messages) down to this run's size, with a floor of `min`.
    pub fn down(&self, paper_quantity: u64, min: u64) -> usize {
        ((paper_quantity / self.0 as u64).max(min)) as usize
    }

    /// Projects a modeled duration at this scale back to paper scale.
    pub fn project_secs(&self, modeled: f64) -> f64 {
        modeled * self.0 as f64
    }
}

/// Paper worker counts: 5 nodes for small graphs, 30 for large — scaled
/// down to 5/10 here to keep thread counts sane (documented substitution).
pub fn workers_for(d: Dataset) -> usize {
    if Dataset::LARGE.contains(&d) {
        10
    } else {
        5
    }
}

/// The paper's limited-memory buffer `B_i` per dataset (§6: 0.5 M
/// messages for small graphs, 1 M for twi, 2 M for fri/uk), scaled.
pub fn buffer_for(d: Dataset, scale: Scale) -> usize {
    let paper = match d {
        Dataset::LiveJ | Dataset::Wiki | Dataset::Orkut => 500_000u64,
        Dataset::Twi => 1_000_000,
        Dataset::Fri | Dataset::Uk => 2_000_000,
    };
    scale.down(paper, 16)
}

/// The four evaluated algorithms.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Algo {
    /// PageRank, 5 supersteps, per-superstep reporting.
    PageRank,
    /// SSSP to convergence.
    Sssp,
    /// LPA, 5 supersteps, per-superstep reporting.
    Lpa,
    /// SA to convergence.
    Sa,
}

impl Algo {
    /// All four, figure order.
    pub const ALL: [Algo; 4] = [Algo::PageRank, Algo::Sssp, Algo::Lpa, Algo::Sa];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::PageRank => "PageRank",
            Algo::Sssp => "SSSP",
            Algo::Lpa => "LPA",
            Algo::Sa => "SA",
        }
    }

    /// True if messages are commutative (pushM applicable).
    pub fn combinable(self) -> bool {
        matches!(self, Algo::PageRank | Algo::Sssp)
    }

    /// True if the paper reports per-superstep averages for it.
    fn per_superstep(self) -> bool {
        matches!(self, Algo::PageRank | Algo::Lpa)
    }
}

/// A deterministic SSSP source with high reach: the max-out-degree vertex.
fn sssp_source(g: &Graph) -> VertexId {
    g.vertices()
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(VertexId(0))
}

/// Runs one algorithm over `g` under `cfg`, returning the job metrics.
pub fn run_algo(algo: Algo, g: &Graph, cfg: JobConfig) -> JobMetrics {
    run_algo_steps(algo, g, cfg, 5)
}

/// Like [`run_algo`] with an explicit superstep budget for the
/// fixed-budget algorithms (Fig. 2 runs PageRank for 10).
pub fn run_algo_steps(algo: Algo, g: &Graph, cfg: JobConfig, budget: u64) -> JobMetrics {
    match algo {
        Algo::PageRank => {
            run_job(Arc::new(PageRank::new(budget)), g, cfg)
                .expect("job failed")
                .metrics
        }
        Algo::Sssp => {
            run_job(Arc::new(Sssp::new(sssp_source(g))), g, cfg)
                .expect("job failed")
                .metrics
        }
        Algo::Lpa => {
            run_job(Arc::new(Lpa::new(budget)), g, cfg)
                .expect("job failed")
                .metrics
        }
        Algo::Sa => {
            run_job(Arc::new(Sa::new(8, 42)), g, cfg)
                .expect("job failed")
                .metrics
        }
    }
}

/// The headline runtime number for a run: per-superstep average for
/// PageRank/LPA, total for SSSP/SA — projected to paper scale.
pub fn report_secs(algo: Algo, m: &JobMetrics, scale: Scale) -> f64 {
    if algo.per_superstep() {
        scale.project_secs(m.modeled_secs_per_superstep())
    } else {
        scale.project_secs(m.modeled_total_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_core::Mode;

    #[test]
    fn scale_helpers() {
        let s = Scale(1000);
        assert_eq!(s.down(500_000, 16), 500);
        assert_eq!(s.down(1_000, 16), 16);
        assert!((s.project_secs(0.5) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn buffers_match_paper_settings() {
        let s = Scale(1000);
        assert_eq!(buffer_for(Dataset::Wiki, s), 500);
        assert_eq!(buffer_for(Dataset::Twi, s), 1000);
        assert_eq!(buffer_for(Dataset::Uk, s), 2000);
    }

    #[test]
    fn algo_properties() {
        assert!(Algo::PageRank.combinable());
        assert!(!Algo::Lpa.combinable());
        assert!(Algo::PageRank.per_superstep());
        assert!(!Algo::Sssp.per_superstep());
    }

    #[test]
    fn smoke_run_all_algorithms() {
        let g = Dataset::LiveJ.build_scaled(100_000);
        for algo in Algo::ALL {
            let cfg = JobConfig::new(Mode::Hybrid, 2).with_buffer(64);
            let m = run_algo(algo, &g, cfg);
            assert!(m.supersteps() >= 1, "{algo:?}");
        }
    }

    #[test]
    fn source_has_max_degree() {
        let g = hybridgraph_graph::gen::star(10);
        assert_eq!(sssp_source(&g), VertexId(0));
    }
}
