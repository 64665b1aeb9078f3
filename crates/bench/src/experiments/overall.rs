//! Figs. 7–10 — the overall performance evaluation: all four algorithms,
//! all six datasets, all five strategies, under sufficient memory
//! (Fig. 7), limited memory on the HDD profile (Fig. 8) and on the SSD
//! profile (Fig. 9), plus the I/O byte totals of the limited-memory runs
//! (Fig. 10).
//!
//! The limited-memory matrix runs once, on HDD. Fig. 9 prices those same
//! runs under the SSD profile ([`JobMetrics::price`]); only hybrid runs
//! again, because its `Q_t` switch reads the profile and so its bytes
//! depend on it.
//!
//! Missing bars in the paper (`F` = unsuccessful run) are reproduced as
//! `F` cells: pull on the large graphs (the disk-extended GraphLab
//! analogue does not finish at that scale), and push/pull on `twi` under
//! sufficient memory (out-of-memory in the original evaluation).

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, report_secs, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, JobMetrics, Mode};
use hybridgraph_graph::Dataset;
use hybridgraph_storage::DeviceProfile;

/// Reproduces the paper's `F` (unsuccessful-run) cells: with limited
/// memory (Figs. 8–10) pull does not finish on the large graphs; with
/// sufficient memory (Fig. 7) push and pull run out of memory on twi.
fn failed(limited: bool, mode: Mode, d: Dataset) -> bool {
    match limited {
        true => Dataset::LARGE.contains(&d) && mode == Mode::Pull,
        false => d == Dataset::Twi && matches!(mode, Mode::Push | Mode::Pull),
    }
}

/// The strategies the figures compare; pushM needs combinable messages.
fn modes_for(algo: Algo) -> Vec<Mode> {
    use Mode::*;
    let mut modes = vec![Push, PushM, Pull, BPull, Hybrid];
    modes.retain(|&m| m != PushM || algo.combinable());
    modes
}

/// Per algorithm, a matrix's rows: a dataset and, per mode of
/// [`modes_for`], its job's metrics — `None` for an `F` cell.
type Runs = Vec<Vec<(Dataset, Vec<Option<JobMetrics>>)>>;

/// Runs every algorithm × dataset × mode of Fig. 7, or with `limited`
/// of Figs. 8–10, under `profiles[0]`, building each stand-in once, and
/// returns one matrix per profile. Every further profile prices those
/// runs, except hybrid's, which runs again under it.
fn runs(limited: bool, scale: Scale, profiles: &[DeviceProfile]) -> Vec<Runs> {
    let mut out = vec![vec![Vec::new(); Algo::ALL.len()]; profiles.len()];
    let datasets: &[Dataset] = match limited {
        true => &Dataset::ALL,
        // Fig. 7 runs the small graphs plus twi.
        false => &[Dataset::LiveJ, Dataset::Wiki, Dataset::Orkut, Dataset::Twi],
    };
    for &d in datasets {
        let g = scale.build(d);
        let buffer = if limited {
            buffer_for(d, scale)
        } else {
            usize::MAX
        };
        for (a, algo) in Algo::ALL.into_iter().enumerate() {
            let run = |mode, profile| {
                let cfg = JobConfig::new(mode, workers_for(d)).with_profile(profile);
                run_algo(algo, &g, cfg.with_buffer(buffer))
            };
            let mut rows = vec![(d, Vec::new()); profiles.len()];
            for mode in modes_for(algo) {
                let ran = (!failed(limited, mode, d)).then(|| run(mode, profiles[0]));
                for (row, p) in rows[1..].iter_mut().zip(&profiles[1..]) {
                    row.1.push(ran.as_ref().map(|m| match mode {
                        Mode::Hybrid => run(mode, *p),
                        _ => m.price(p),
                    }));
                }
                rows[0].1.push(ran);
            }
            for (matrix, row) in out.iter_mut().zip(rows) {
                matrix[a].push(row);
            }
        }
    }
    out
}

/// Adds one table per algorithm of `runs` to the report, titled
/// `title`: each job's runtime, or with `io` its physical I/O bytes, both
/// projected to paper scale (`F` where no job ran).
fn add(rep: &mut Report, runs: &Runs, title: &str, scale: Scale, io: bool) {
    for (algo, rows) in Algo::ALL.into_iter().zip(runs) {
        let mut headers = vec!["graph"];
        headers.extend(modes_for(algo).iter().map(|m| m.label()));
        let mut t = Table::new(format!("{title} — {}", algo.label()), &headers);
        let cell = |m: &JobMetrics| match io {
            true => Cell::Bytes(m.total_io_bytes() * scale.0 as u64),
            false => Cell::Secs(report_secs(algo, m, scale)),
        };
        for (d, ms) in rows {
            let cells = ms.iter().map(|m| m.as_ref().map_or(Cell::text("F"), cell));
            t.row([Cell::text(d.name())].into_iter().chain(cells).collect());
        }
        rep.add(t);
    }
}

const FIG7: &str = "Fig 7 — runtime (s, projected), sufficient memory";
const FIG8: &str = "Fig 8 — runtime (s, projected), limited memory, local HDD";
const FIG9: &str = "Fig 9 — runtime (s, projected), limited memory, amazon SSD";
const FIG10: &str = "Fig 10 — I/O bytes (projected), limited memory, local HDD";

/// The limited-memory matrix on HDD, and with `ssd` Fig. 9's matrix too.
fn limited(scale: Scale, ssd: bool) -> Vec<Runs> {
    let profiles = [DeviceProfile::local_hdd(), DeviceProfile::amazon_ssd()];
    runs(true, scale, &profiles[..1 + usize::from(ssd)])
}

/// Fig. 7 — runtime, sufficient memory.
pub fn fig7(scale: Scale, rep: &mut Report) {
    let runs = runs(false, scale, &[DeviceProfile::memory()]);
    add(rep, &runs[0], FIG7, scale, false);
}

/// Fig. 8 — runtime, limited memory, HDD.
pub fn fig8(scale: Scale, rep: &mut Report) {
    add(rep, &limited(scale, false)[0], FIG8, scale, false);
}

/// Fig. 9 — runtime, limited memory, SSD.
pub fn fig9(scale: Scale, rep: &mut Report) {
    add(rep, &limited(scale, true)[1], FIG9, scale, false);
}

/// Fig. 10 — I/O bytes, limited memory, HDD (projected to paper scale).
pub fn fig10(scale: Scale, rep: &mut Report) {
    add(rep, &limited(scale, false)[0], FIG10, scale, true);
}

/// Figs. 7–10 in order, Figs. 8–10 from one limited-memory matrix.
pub fn figs7_to_10(scale: Scale, rep: &mut Report) {
    fig7(scale, rep);
    let limited = limited(scale, true);
    add(rep, &limited[0], FIG8, scale, false);
    add(rep, &limited[1], FIG9, scale, false);
    add(rep, &limited[0], FIG10, scale, true);
}
