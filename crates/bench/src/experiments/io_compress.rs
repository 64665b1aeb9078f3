//! `io_compress` — the on-disk codec sweep.
//!
//! Runs hybrid PageRank on LiveJ under every [`CodecChoice`] and tabulates
//! logical vs physical classified I/O, the compression ratio, and modeled
//! runtime. Two invariants are checked and reported:
//!
//! * every codec produces bit-identical final vertex values (compression
//!   is transparent to computation), and
//! * `Gaps` cuts total physical bytes substantially below `None` while
//!   logical bytes stay equal — the cost model charges what the device
//!   actually moves, not what the application asked for, and
//! * `Bv` cuts physical bytes substantially below `Gaps` again — the
//!   WebGraph-class tier (bit-granular ids, intervals, references,
//!   block-coded blobs) is what the billion-edge path rides on.
//!
//! Every cell is deterministic (modeled time, byte counts, switch
//! decisions), so `repro` writes the table to `BENCH_io_compress.json`
//! and CI compares it byte for byte with the committed copy.

use crate::report::{switches, Cell, Report, Table};
use crate::{buffer_for, workers_for, Scale};
use hybridgraph_algos::PageRank;
use hybridgraph_core::{run_job, JobConfig, JobMetrics, Mode};
use hybridgraph_graph::Dataset;
use hybridgraph_storage::CodecChoice;
use std::sync::Arc;

fn run_with(codec: CodecChoice, scale: Scale) -> (Vec<u64>, JobMetrics) {
    let d = Dataset::LiveJ;
    // PageRank never reads edge weights, and the real LiveJournal graph is
    // unweighted — the stand-in's randomized weights exist for SSSP. Strip
    // them to unit so the sweep measures adjacency-structure compression
    // (both codecs collapse a constant weight column) instead of drowning
    // the id stream in ~25 bits/edge of incompressible float entropy.
    let g = hybridgraph_graph::gen::randomize_weights(&scale.build(d), 1.0, 1.0, 0);
    let cfg = JobConfig::new(Mode::Hybrid, workers_for(d))
        .with_buffer(buffer_for(d, scale))
        .with_codec(codec);
    let r = run_job(Arc::new(PageRank::new(5)), &g, cfg).expect("job failed");
    let bits = r.values.iter().map(|v| v.to_bits()).collect();
    (bits, r.metrics)
}

/// Runs the sweep and adds the comparison table.
pub fn run(scale: Scale, rep: &mut Report) {
    println!("## io_compress: codec sweep, hybrid PageRank on LiveJ");
    let mut t = Table::new(
        "logical vs physical classified I/O per codec",
        &[
            "codec",
            "logical",
            "physical",
            "p/l",
            "seq_rd",
            "seq_wr",
            "rand_rd",
            "rand_wr",
            "modeled_s",
            "supersteps",
            "switches",
            "values",
        ],
    );
    let mut baseline: Option<(Vec<u64>, u64)> = None;
    let mut gaps_physical = None;
    let mut bv_physical = None;
    for codec in CodecChoice::ALL {
        let (bits, m) = run_with(codec, scale);
        let (physical, logical) = (m.total_io_bytes(), m.total_io_logical_bytes());
        let identical = match &baseline {
            None => {
                baseline = Some((bits, logical));
                true
            }
            Some((b, _)) => *b == bits,
        };
        if codec == CodecChoice::Gaps {
            gaps_physical = Some(physical);
        }
        if codec == CodecChoice::Bv {
            bv_physical = Some(physical);
        }
        let sum = |f: fn(&hybridgraph_storage::IoSnapshot) -> u64| -> u64 {
            m.steps.iter().map(|s| f(&s.io)).sum()
        };
        t.row(vec![
            Cell::text(codec.label()),
            Cell::Bytes(logical),
            Cell::Bytes(physical),
            Cell::ratio(m.io_compression_ratio()),
            Cell::Bytes(sum(|io| io.seq_read_bytes)),
            Cell::Bytes(sum(|io| io.seq_write_bytes)),
            Cell::Bytes(sum(|io| io.rand_read_bytes)),
            Cell::Bytes(sum(|io| io.rand_write_bytes)),
            Cell::Secs(scale.project_secs(m.modeled_total_secs())),
            Cell::Count(m.supersteps()),
            switches(&m),
            Cell::text(if identical { "identical" } else { "DIFFER" }),
        ]);
    }
    rep.add(t);
    let (_, none_logical) = baseline.expect("sweep ran");
    if let Some(gp) = gaps_physical {
        let saved = 100.0 * (1.0 - gp as f64 / none_logical.max(1) as f64);
        println!("gaps vs none: physical I/O reduced {saved:.1}%");
        if let Some(bp) = bv_physical {
            let saved = 100.0 * (1.0 - bp as f64 / gp.max(1) as f64);
            println!("bv vs gaps:   physical I/O reduced {saved:.1}% further");
        }
    }
}
