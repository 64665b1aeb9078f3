//! Fig. 16 — graph loading cost of the three storage layouts: `adj`
//! (push's adjacency list), `VE-BLOCK` (b-pull's layout, which must parse
//! adjacency lists into fragments and write auxiliary data), and
//! `adj+VE-BLOCK` (hybrid's double storage). Reported as ratios to `adj`,
//! like the paper's y-axis. The runtime table has two rows per graph: the
//! modeled ratio, a function of bytes alone (so two runs print the same
//! numbers), and the measured build-CPU ratio, which varies run to run.

use crate::table::{ratio, Table};
use crate::{buffer_for, workers_for, Scale};
use hybridgraph_graph::{partition::vblock_counts, BlockLayout, Dataset, Partition, WorkerId};
use hybridgraph_storage::adjacency::AdjacencyStore;
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::{MemVfs, Vfs};
use std::time::Instant;

struct LoadCost {
    wall_secs: f64,
    write_bytes: u64,
}

/// Bytes of the raw text input every layout must read and parse first
/// ("src dst" per edge, ~14 characters) — the common loading term the
/// paper's runtimes include.
fn raw_input_bytes(edges: usize) -> u64 {
    edges as u64 * 14
}

/// Modeled loading seconds: raw input scan + layout writes (HDD
/// sequential throughput).
fn modeled_secs(raw: u64, c: &LoadCost) -> f64 {
    let p = hybridgraph_storage::DeviceProfile::local_hdd();
    p.seq_read_secs(raw) + p.seq_write_secs(c.write_bytes)
}

fn build_adj(d: Dataset, scale: Scale) -> LoadCost {
    let g = scale.build(d);
    let p = Partition::range(g.num_vertices(), workers_for(d));
    let vfs = MemVfs::new();
    let t = Instant::now();
    for w in p.workers() {
        AdjacencyStore::build(&vfs, &format!("adj{w}"), &g, p.worker_range(w)).unwrap();
    }
    LoadCost {
        wall_secs: t.elapsed().as_secs_f64(),
        write_bytes: vfs.stats().snapshot().seq_write_bytes,
    }
}

fn build_ve(d: Dataset, scale: Scale) -> LoadCost {
    let g = scale.build(d);
    let p = Partition::range(g.num_vertices(), workers_for(d));
    let counts = vblock_counts(&g, &p, buffer_for(d, scale), true);
    let layout = BlockLayout::new(&p, &counts);
    let vfs = MemVfs::new();
    let t = Instant::now();
    for w in 0..p.num_workers() {
        VeBlockStore::build(&vfs, &g, &layout, WorkerId::from(w)).unwrap();
    }
    LoadCost {
        wall_secs: t.elapsed().as_secs_f64(),
        write_bytes: vfs.stats().snapshot().seq_write_bytes,
    }
}

/// Prints Fig. 16 (a) runtime ratios and (b) written-byte ratios.
pub fn run(scale: Scale) {
    let mut rt = Table::new(
        "Fig 16(a) — loading runtime ratio vs adj",
        &["graph", "ratio of", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
    );
    let mut iot = Table::new(
        "Fig 16(b) — loading write-byte ratio vs adj",
        &["graph", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
    );
    for d in Dataset::ALL {
        let adj = build_adj(d, scale);
        let ve = build_ve(d, scale);
        let raw = raw_input_bytes(scale.build(d).num_edges());
        let both = LoadCost {
            wall_secs: adj.wall_secs + ve.wall_secs,
            write_bytes: adj.write_bytes + ve.write_bytes,
        };
        let modeled = |c: &LoadCost| modeled_secs(raw, c) / modeled_secs(raw, &adj);
        let cpu = |c: &LoadCost| c.wall_secs / adj.wall_secs;
        for (label, ve_ratio, both_ratio) in [
            ("modeled (input + writes)", modeled(&ve), modeled(&both)),
            ("build CPU (measured)", cpu(&ve), cpu(&both)),
        ] {
            rt.row(vec![
                d.name().into(),
                label.into(),
                "1.00".into(),
                ratio(ve_ratio),
                ratio(both_ratio),
            ]);
        }
        iot.row(vec![
            d.name().into(),
            "1.00".into(),
            ratio(ve.write_bytes as f64 / adj.write_bytes as f64),
            ratio(both.write_bytes as f64 / adj.write_bytes as f64),
        ]);
    }
    rt.print();
    iot.print();
}
