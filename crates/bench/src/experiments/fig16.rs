//! Fig. 16 — graph loading cost of the three storage layouts: `adj`
//! (push's adjacency list), `VE-BLOCK` (b-pull's layout, which must parse
//! adjacency lists into fragments and write auxiliary data), and
//! `adj+VE-BLOCK` (hybrid's double storage). Reported as ratios to `adj`,
//! like the paper's y-axis. The runtime ratio is modeled, a function of
//! bytes alone (so two runs print the same numbers); the measured
//! build-CPU ratio, which varies run to run, prints beside it, uncoded
//! and under `bv` (each layout's bv build against the bv adjacency
//! build), and so does the measured CPU of scanning the VE-BLOCK build's
//! Eblocks under each codec: b-pull's Pull-Respond reads every Eblock
//! with responders once a superstep, so under a codec that decode is
//! what a superstep pays for the smaller bytes.

use crate::report::{Cell, Report, Table};
use crate::{buffer_for, workers_for, Scale};
use hybridgraph_graph::{
    partition::vblock_counts, BlockId, BlockLayout, Dataset, Graph, Partition,
};
use hybridgraph_storage::adjacency::AdjacencyStore;
use hybridgraph_storage::veblock::{EblockScratch, VeBlockStore};
use hybridgraph_storage::vfs::{MemVfs, Vfs};
use hybridgraph_storage::CodecChoice;
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

fn build_adj(d: Dataset, g: &Graph, codec: CodecChoice) -> LoadCost {
    let p = Partition::range(g.num_vertices(), workers_for(d));
    let vfs = MemVfs::new();
    let t = Instant::now();
    for w in p.workers() {
        AdjacencyStore::build_with(&vfs, &format!("adj{w}"), g, p.worker_range(w), codec).unwrap();
    }
    LoadCost {
        wall_secs: t.elapsed().as_secs_f64(),
        write_bytes: vfs.stats().snapshot().seq_write_bytes,
    }
}

/// The VE-BLOCK build's cost, and the measured CPU of one scan of every
/// Eblock it wrote, in nanoseconds per edge.
fn build_ve(d: Dataset, scale: Scale, g: &Graph, codec: CodecChoice) -> (LoadCost, f64) {
    let p = Partition::range(g.num_vertices(), workers_for(d));
    let counts = vblock_counts(g, &p, buffer_for(d, scale), true);
    let layout = BlockLayout::new(&p, &counts);
    let vfs = MemVfs::new();
    let t = Instant::now();
    let stores: Vec<_> = p
        .workers()
        .map(|w| VeBlockStore::build_with(&vfs, g, &layout, w, codec).unwrap())
        .collect();
    let cost = LoadCost {
        wall_secs: t.elapsed().as_secs_f64(),
        write_bytes: vfs.stats().snapshot().seq_write_bytes,
    };
    let mut scratch = EblockScratch::default();
    let t = Instant::now();
    for (w, store) in p.workers().zip(&stores) {
        for j in layout.blocks_of_worker(w) {
            for i in 0..layout.num_blocks() {
                let i = BlockId(i as u32);
                store.scan_eblock_into(j, i, &mut scratch).unwrap();
            }
        }
    }
    let scan_ns = t.elapsed().as_secs_f64() * 1e9 / g.num_edges().max(1) as f64;
    (cost, scan_ns)
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
        &["graph", "codec", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
    );
    let mut scan = Table::new(
        "Eblock scan CPU (ns/edge, measured, not in the report)",
        &["graph", "none", "gaps", "bv"],
    );
    let mut iot = Table::new(
        "Fig 16(b) — loading write-byte ratio vs adj",
        &["graph", "adj", "VE-BLOCK", "adj+VE-BLOCK"],
    );
    for d in Dataset::ALL {
        let g = scale.build(d);
        let adj = build_adj(d, &g, CodecChoice::None);
        let (ve, scan_none) = build_ve(d, scale, &g, CodecChoice::None);
        let raw = raw_input_bytes(g.num_edges());
        let both = |adj: &LoadCost, ve: &LoadCost| LoadCost {
            wall_secs: adj.wall_secs + ve.wall_secs,
            write_bytes: adj.write_bytes + ve.write_bytes,
        };
        let modeled = |c: &LoadCost| modeled_secs(raw, c) / modeled_secs(raw, &adj);
        rt.row(vec![
            Cell::text(d.name()),
            Cell::text("modeled (input + writes)"),
            Cell::ratio(1.0),
            Cell::ratio(modeled(&ve)),
            Cell::ratio(modeled(&both(&adj, &ve))),
        ]);
        // The same ratios of build CPU, uncoded and under bv.
        let (ve_bv, scan_bv) = build_ve(d, scale, &g, CodecChoice::Bv);
        let bv = (build_adj(d, &g, CodecChoice::Bv), ve_bv);
        for (codec, (adj, ve)) in [
            (CodecChoice::None, (&adj, &ve)),
            (CodecChoice::Bv, (&bv.0, &bv.1)),
        ] {
            let measured = |c: &LoadCost| Cell::ratio(c.wall_secs / adj.wall_secs);
            cpu.row(vec![
                Cell::text(d.name()),
                Cell::text(codec.label()),
                Cell::ratio(1.0),
                measured(ve),
                measured(&both(adj, ve)),
            ]);
        }
        let (_, scan_gaps) = build_ve(d, scale, &g, CodecChoice::Gaps);
        let ns = |v: f64| Cell::Fixed(v, 1);
        scan.row(vec![
            Cell::text(d.name()),
            ns(scan_none),
            ns(scan_gaps),
            ns(scan_bv),
        ]);
        let written = |c: &LoadCost| Cell::ratio(c.write_bytes as f64 / adj.write_bytes as f64);
        iot.row(vec![
            Cell::text(d.name()),
            Cell::ratio(1.0),
            written(&ve),
            written(&both(&adj, &ve)),
        ]);
    }
    rep.add(rt);
    cpu.print();
    scan.print();
    rep.add(iot);
}
