//! Table 5 (Appendix F) — the modified-GraphLab scenarios: how the pull
//! baseline degrades as its data moves to disk.
//!
//! | scenario        | edges  | vertex cache                       |
//! |-----------------|--------|------------------------------------|
//! | original        | memory | all vertices                       |
//! | ext-mem         | memory | all vertices (disk-extension code) |
//! | ext-edge        | disk   | all vertices                       |
//! | ext-edge-v3     | disk   | 3 M vertices (scaled)              |
//! | ext-edge-v2.5   | disk   | 2.5 M vertices (scaled)            |
//!
//! The paper's punchline: with edges on disk the slowdown is modest, but
//! shrinking the vertex cache below the working set collapses performance
//! by two orders of magnitude (random value reads on every gather).

use crate::report::{Cell, Report, Table};
use crate::{run_algo, workers_for, Algo, Scale};
use hybridgraph_core::{JobConfig, Mode};
use hybridgraph_graph::Dataset;
use hybridgraph_storage::DeviceProfile;

struct ScenarioSpec {
    name: &'static str,
    memory_profile: bool,
    /// Vertex-cache capacity as a fraction of the per-task population.
    /// The paper caps caches at 3 M / 2.5 M vertices per task against a
    /// per-task working set (locals + vertex-cut mirrors) of ~2.9 M for
    /// the small graphs — i.e. slightly above and slightly below the
    /// working set. We reproduce the same relation directly.
    cache_fraction: Option<f64>,
}

const SCENARIOS: [ScenarioSpec; 5] = [
    ScenarioSpec {
        name: "original",
        memory_profile: true,
        cache_fraction: None,
    },
    ScenarioSpec {
        name: "ext-mem",
        memory_profile: true,
        cache_fraction: None,
    },
    ScenarioSpec {
        name: "ext-edge",
        memory_profile: false,
        cache_fraction: None,
    },
    ScenarioSpec {
        name: "ext-edge-v3",
        memory_profile: false,
        cache_fraction: Some(1.0),
    },
    ScenarioSpec {
        name: "ext-edge-v2.5",
        memory_profile: false,
        cache_fraction: Some(0.85),
    },
];

/// Adds Table 5: pull-baseline runtime per scenario over the small
/// graphs, all four algorithms. Each graph is built once. "ext-mem" runs
/// the same job as "original", and "ext-edge" differs from it only in the
/// device profile, which pull reads only to price a run: both are the
/// "original" run, priced under their profile.
pub fn run(scale: Scale, rep: &mut Report) {
    // secs[algo][scenario][dataset]
    let mut secs = [[[0.0; 3]; SCENARIOS.len()]; Algo::ALL.len()];
    for (di, d) in Dataset::SMALL.into_iter().enumerate() {
        let g = scale.build(d);
        let config = |sc: &ScenarioSpec| {
            let mut cfg = JobConfig::new(Mode::Pull, workers_for(d));
            if sc.memory_profile {
                cfg = cfg.with_profile(DeviceProfile::memory());
            }
            cfg.lru_capacity = Some(match sc.cache_fraction {
                Some(frac) => {
                    let per_task = g.num_vertices() / workers_for(d);
                    ((per_task as f64 * frac) as usize).max(8)
                }
                None => g.num_vertices() + 1,
            });
            // Table 5 never spills messages; only vertex residency
            // varies, so leave the message buffer unlimited.
            cfg
        };
        for (ai, algo) in Algo::ALL.into_iter().enumerate() {
            let original = run_algo(algo, &g, config(&SCENARIOS[0]));
            for (si, sc) in SCENARIOS.iter().enumerate() {
                let m = match sc.cache_fraction {
                    Some(_) => run_algo(algo, &g, config(sc)),
                    None => original.price(&config(sc).profile),
                };
                secs[ai][si][di] = scale.project_secs(m.modeled_total_secs());
            }
        }
    }
    for (algo, secs) in Algo::ALL.into_iter().zip(&secs) {
        let mut t = Table::new(
            format!(
                "Table 5 — modified GraphLab scenarios, {} (s, projected)",
                algo.label()
            ),
            &["scenario", "livej", "wiki", "orkut"],
        );
        for (sc, secs) in SCENARIOS.iter().zip(secs) {
            let mut cells = vec![Cell::text(sc.name)];
            cells.extend(secs.iter().map(|&s| Cell::Secs(s)));
            t.row(cells);
        }
        rep.add(t);
    }
}
