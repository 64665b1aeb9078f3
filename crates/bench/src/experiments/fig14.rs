//! Fig. 14 — hybrid during iterations: SSSP over `twi`, limited memory.
//!
//! (a) the switching metric `Q_t` per superstep on the HDD and SSD
//! profiles, with the switch points; (b)–(d) per-superstep disk I/O,
//! network messages, and memory usage for push, b-pull and hybrid.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, JobMetrics, Mode, SuperstepMetrics};
use hybridgraph_graph::Dataset;
use hybridgraph_storage::DeviceProfile;

fn run_mode(mode: Mode, profile: DeviceProfile, scale: Scale) -> JobMetrics {
    let d = Dataset::Twi;
    let g = scale.build(d);
    let cfg = JobConfig::new(mode, workers_for(d))
        .with_buffer(buffer_for(d, scale))
        .with_profile(profile);
    run_algo(Algo::Sssp, &g, cfg)
}

/// Adds Fig. 14 (a)–(d).
pub fn run(scale: Scale, rep: &mut Report) {
    let hdd = run_mode(Mode::Hybrid, DeviceProfile::local_hdd(), scale);
    let ssd = run_mode(Mode::Hybrid, DeviceProfile::amazon_ssd(), scale);

    // (a) Q_t per superstep and switch points.
    let mut t = Table::new(
        "Fig 14(a) — Q_t per superstep (SSSP over twi)",
        &["superstep", "mode", "Q_t HDD (s)", "Q_t SSD (s)", "switch"],
    );
    let switches: Vec<u64> = hdd.switches.iter().map(|(s, _, _)| *s).collect();
    for (i, s) in hdd.steps.iter().enumerate() {
        let ssd_q = ssd.steps.get(i).map(|x| x.q_metric).unwrap_or(f64::NAN);
        let mark = hdd
            .switches
            .iter()
            .find(|(at, _, _)| *at == s.superstep)
            .map(|(_, from, to)| format!("{} -> {}", from.label(), to.label()))
            .unwrap_or_default();
        t.row(vec![
            Cell::Count(s.superstep),
            Cell::text(s.kind.label()),
            Cell::Sci(s.q_metric * scale.0 as f64, 3),
            Cell::Sci(ssd_q * scale.0 as f64, 3),
            Cell::Text(mark),
        ]);
    }
    rep.add(t);
    println!(
        "switch points (HDD): {:?}; (SSD): {:?}\n",
        switches,
        ssd.switches.iter().map(|(s, _, _)| *s).collect::<Vec<_>>()
    );

    // (b)-(d): per-superstep resources for push, b-pull, hybrid.
    let push = run_mode(Mode::Push, DeviceProfile::local_hdd(), scale);
    let bpull = run_mode(Mode::BPull, DeviceProfile::local_hdd(), scale);
    let mut t = Table::new(
        "Fig 14(b-d) — per-superstep resources (HDD)",
        &[
            "superstep",
            "io push",
            "io b-pull",
            "io hybrid",
            "msgs push",
            "msgs b-pull",
            "msgs hybrid",
            "mem push",
            "mem b-pull",
            "mem hybrid",
        ],
    );
    let len = push.steps.len().max(bpull.steps.len()).max(hdd.steps.len());
    let cell = |m: &JobMetrics, i: usize, f: fn(&SuperstepMetrics) -> Cell| {
        m.steps.get(i).map_or(Cell::text("-"), f)
    };
    for i in 0..len {
        t.row(vec![
            Cell::Count(i as u64 + 1),
            cell(&push, i, |s| Cell::Bytes(s.io.total_bytes())),
            cell(&bpull, i, |s| Cell::Bytes(s.io.total_bytes())),
            cell(&hdd, i, |s| Cell::Bytes(s.io.total_bytes())),
            cell(&push, i, |s| Cell::Count(s.net_raw_messages)),
            cell(&bpull, i, |s| Cell::Count(s.net_raw_messages)),
            cell(&hdd, i, |s| Cell::Count(s.net_raw_messages)),
            cell(&push, i, |s| Cell::Bytes(s.memory_bytes)),
            cell(&bpull, i, |s| Cell::Bytes(s.memory_bytes)),
            cell(&hdd, i, |s| Cell::Bytes(s.memory_bytes)),
        ]);
    }
    rep.add(t);
}
