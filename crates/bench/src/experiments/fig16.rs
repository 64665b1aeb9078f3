//! Fig. 16 — graph loading cost of the three storage layouts: `adj`
//! (push's adjacency list), `VE-BLOCK` (b-pull's layout, which must parse
//! adjacency lists into fragments and write auxiliary data), and
//! `adj+VE-BLOCK` (hybrid's double storage). Reported as ratios to `adj`,
//! like the paper's y-axis. The runtime ratio is modeled, a function of
//! bytes alone (so two runs print the same numbers); the measured
//! build-CPU ratio, which varies run to run, prints beside it.

use crate::report::{Cell, Report, Table};
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

/// Adds Fig. 16 (a) modeled runtime ratios and (b) written-byte ratios.
/// The measured build-CPU ratios print in a table of their own, which
/// stays out of the report: it varies run to run.
pub fn run(scale: Scale, rep: &mut Report) {
    let mut rt = Table::new(
        "Fig 16(a) — loading runtime ratio vs adj",
        &["graph", "ratio of", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
    );
    let mut cpu = Table::new(
        "Fig 16(a) — build CPU ratio vs adj (measured, not in the report)",
        &["graph", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
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
        rt.row(vec![
            Cell::text(d.name()),
            Cell::text("modeled (input + writes)"),
            Cell::ratio(1.0),
            Cell::ratio(modeled(&ve)),
            Cell::ratio(modeled(&both)),
        ]);
        let measured = |c: &LoadCost| Cell::ratio(c.wall_secs / adj.wall_secs);
        cpu.row(vec![
            Cell::text(d.name()),
            Cell::ratio(1.0),
            measured(&ve),
            measured(&both),
        ]);
        let written = |c: &LoadCost| Cell::ratio(c.write_bytes as f64 / adj.write_bytes as f64);
        iot.row(vec![
            Cell::text(d.name()),
            Cell::ratio(1.0),
            written(&ve),
            written(&both),
        ]);
    }
    rep.add(rt);
    cpu.print();
    rep.add(iot);
}
