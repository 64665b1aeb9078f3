//! Figs. 7–10 — the overall performance evaluation: all four algorithms,
//! all six datasets, all five strategies, under sufficient memory
//! (Fig. 7), limited memory on the HDD profile (Fig. 8) and on the SSD
//! profile (Fig. 9), plus the I/O byte totals of the limited-memory runs
//! (Fig. 10).
//!
//! Missing bars in the paper (`F` = unsuccessful run) are reproduced as
//! `F` cells: pull on the large graphs (the disk-extended GraphLab
//! analogue does not finish at that scale), and push/pull on `twi` under
//! sufficient memory (out-of-memory in the original evaluation).

use crate::table::{bytes, secs, Table};
use crate::{buffer_for, report_secs, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;
use hybridgraph_storage::DeviceProfile;

/// Which scenario a matrix run uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Fig. 7: everything fits in memory; local cluster.
    Sufficient,
    /// Figs. 8/10: limited memory, HDD profile.
    LimitedHdd,
    /// Fig. 9: limited memory, SSD profile.
    LimitedSsd,
}

impl Scenario {
    fn profile(self) -> DeviceProfile {
        match self {
            Scenario::Sufficient => DeviceProfile::memory(),
            Scenario::LimitedHdd => DeviceProfile::local_hdd(),
            Scenario::LimitedSsd => DeviceProfile::amazon_ssd(),
        }
    }

    fn datasets(self) -> &'static [Dataset] {
        match self {
            // Fig. 7 runs the small graphs plus twi.
            Scenario::Sufficient => &[Dataset::LiveJ, Dataset::Wiki, Dataset::Orkut, Dataset::Twi],
            _ => &Dataset::ALL,
        }
    }

    /// Reproduces the paper's `F` (unsuccessful-run) cells.
    fn failed(self, mode: Mode, d: Dataset) -> bool {
        match self {
            // Fig. 7: push and pull run out of memory on twi.
            Scenario::Sufficient => d == Dataset::Twi && matches!(mode, Mode::Push | Mode::Pull),
            // Figs. 8–10: pull does not finish on the large graphs.
            _ => Dataset::LARGE.contains(&d) && mode == Mode::Pull,
        }
    }
}

fn modes_for(algo: Algo) -> Vec<Mode> {
    if algo.combinable() {
        vec![
            Mode::Push,
            Mode::PushM,
            Mode::Pull,
            Mode::BPull,
            Mode::Hybrid,
        ]
    } else {
        vec![Mode::Push, Mode::Pull, Mode::BPull, Mode::Hybrid]
    }
}

fn print_matrix(title: &str, scenario: Scenario, scale: Scale, io_bytes: bool) {
    for algo in Algo::ALL {
        let modes = modes_for(algo);
        let mut headers = vec!["graph"];
        headers.extend(modes.iter().map(|m| m.label()));
        let mut t = Table::new(&format!("{title} — {}", algo.label()), &headers);
        for &d in scenario.datasets() {
            let g = scale.build(d);
            let mut cells = vec![d.name().to_string()];
            for &mode in &modes {
                if scenario.failed(mode, d) {
                    cells.push("F".into());
                    continue;
                }
                let mut cfg = JobConfig::new(mode, workers_for(d)).with_profile(scenario.profile());
                if scenario != Scenario::Sufficient {
                    cfg = cfg.with_buffer(buffer_for(d, scale));
                }
                let m = run_algo(algo, &g, cfg);
                if io_bytes {
                    cells.push(bytes(m.total_io_bytes() * scale.0 as u64));
                } else {
                    cells.push(secs(report_secs(algo, &m, scale)));
                }
            }
            t.row(cells);
        }
        t.print();
    }
}

/// Fig. 7 — runtime, sufficient memory.
pub fn fig7(scale: Scale) {
    print_matrix(
        "Fig 7 — runtime (s, projected), sufficient memory",
        Scenario::Sufficient,
        scale,
        false,
    );
}

/// Fig. 8 — runtime, limited memory, HDD.
pub fn fig8(scale: Scale) {
    print_matrix(
        "Fig 8 — runtime (s, projected), limited memory, local HDD",
        Scenario::LimitedHdd,
        scale,
        false,
    );
}

/// Fig. 9 — runtime, limited memory, SSD.
pub fn fig9(scale: Scale) {
    print_matrix(
        "Fig 9 — runtime (s, projected), limited memory, amazon SSD",
        Scenario::LimitedSsd,
        scale,
        false,
    );
}

/// Fig. 10 — I/O bytes, limited memory, HDD (projected to paper scale).
pub fn fig10(scale: Scale) {
    print_matrix(
        "Fig 10 — I/O bytes (projected), limited memory, local HDD",
        Scenario::LimitedHdd,
        scale,
        true,
    );
}
