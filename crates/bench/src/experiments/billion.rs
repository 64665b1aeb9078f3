//! `billion` — the streaming billion-edge catalog entry, end to end.
//!
//! Builds the `twi-stream` entry ([`StreamSpec::twitter`]) block-at-a-time
//! through the storage crate's [`ExtentWriter`] — the writer under every
//! edge store — under the BV codec: Eblocks are appended source-major
//! (extent `src block · nblocks + dst block`), so the generator never
//! holds more than one source block's edges. Then runs a b-pull PageRank
//! superstep sweep where every `g_{j,i}` read is served by the
//! Elias-Fano extent directory — per-block random access, never a
//! whole-extent or whole-directory decode.
//!
//! At the default `--scale 2000` this is a fast smoke of the same code
//! path (~17 K vertices, ~0.5 M edges, in-memory VFS). The acceptance
//! run is `repro --scale 1 billion`: ≥1 B edges generated streaming,
//! spilled through a directory-backed VFS, with the resident set bounded
//! by one source block plus the EF directory and the rank/degree
//! columns — the edge list itself never exists in memory.

use crate::report::{Cell, Report, Table};
use crate::Scale;
use hybridgraph_graph::StreamSpec;
use hybridgraph_storage::extent::{self, ExtentFile, ExtentWriter};
use hybridgraph_storage::{
    AccessClass, CodecChoice, DirVfs, ExtentKind, FragmentColumns, MemVfs, Vfs,
};
use std::sync::Arc;

/// A built store plus the sweep-side per-vertex state.
struct Built {
    /// The `nblocks × nblocks` Eblock grid, source-major.
    store: ExtentFile,
    nblocks: u32,
    deg: Vec<u32>,
    edges: u64,
    /// Largest per-source-block working set during the build (bytes).
    peak_block_bytes: u64,
}

/// Streams the entry into `vfs`: for each source block, generate its
/// adjacency (the only edges ever resident), bucket fragments per
/// destination block, and append the row of Eblocks in index order.
fn build(spec: &StreamSpec, vfs: &dyn Vfs, codec: CodecChoice) -> Built {
    let nblocks = spec.nblocks();
    let bs = u64::from(spec.block_size());
    let n = spec.vertices;
    let cells_total = nblocks as usize * nblocks as usize;
    let mut w = ExtentWriter::create(vfs, "billion", ExtentKind::Fragments, codec, cells_total)
        .expect("create store");
    let mut deg = vec![0u32; n as usize];
    let mut dsts: Vec<u32> = Vec::new();
    let mut cells: Vec<Vec<u8>> = vec![Vec::new(); nblocks as usize];
    let mut edges = 0u64;
    let mut peak = 0u64;
    for sb in 0..nblocks {
        let lo = u64::from(sb) * bs;
        let hi = (lo + bs).min(n);
        for cell in &mut cells {
            cell.clear();
        }
        for v in lo..hi {
            spec.out_dsts(v, &mut dsts);
            deg[v as usize] = dsts.len() as u32;
            edges += dsts.len() as u64;
            // A sorted list splits into contiguous per-destination-block
            // runs; each run is one fragment of Eblock g_{sb,db}.
            let mut i = 0;
            while i < dsts.len() {
                let db = dsts[i] / bs as u32;
                let mut j = i + 1;
                while j < dsts.len() && dsts[j] / bs as u32 == db {
                    j += 1;
                }
                let cell = &mut cells[db as usize];
                extent::push_fragment_header(cell, v as u32, j - i);
                for &d in &dsts[i..j] {
                    cell.extend_from_slice(&d.to_le_bytes());
                    cell.extend_from_slice(&1.0f32.to_le_bytes());
                }
                i = j;
            }
        }
        peak = peak.max(cells.iter().map(|c| c.capacity() as u64).sum());
        for cell in &cells {
            w.append(cell).expect("append eblock");
        }
    }
    Built {
        store: w.finish().expect("finish store"),
        nblocks,
        deg,
        edges,
        peak_block_bytes: peak,
    }
}

/// One b-pull PageRank superstep sweep: destination blocks pull their
/// Eblock column via EF random access. Returns the final rank sum (a
/// deterministic checksum of the whole computation).
fn sweep(b: &Built, n: usize, supersteps: u32) -> f64 {
    let nblocks = b.nblocks as usize;
    let mut rank = vec![1.0 / n as f64; n];
    let (mut bytes, mut cols) = (Vec::new(), FragmentColumns::default());
    for _ in 0..supersteps {
        let mut next = vec![0.15 / n as f64; n];
        for db in 0..nblocks {
            for sb in 0..nblocks {
                b.store
                    .read_columns(
                        sb * nblocks + db,
                        AccessClass::RandRead,
                        &mut bytes,
                        &mut cols,
                    )
                    .expect("read eblock");
                for (k, &src) in cols.svertices.iter().enumerate() {
                    let contr = 0.85 * rank[src as usize] / f64::from(b.deg[src as usize]);
                    for &dst in &cols.ids[cols.span(k)] {
                        next[dst as usize] += contr;
                    }
                }
            }
        }
        rank = next;
    }
    rank.iter().sum()
}

/// What one run of the entry measures. Everything but
/// `peak_block_bytes` (a capacity high-water mark) is a function of the
/// spec alone: `det_probe`'s `billion` row holds those fields to the byte.
pub struct Outcome {
    /// Edges generated.
    pub edges: u64,
    /// Raw bytes behind the coded Eblocks.
    pub logical: u64,
    /// Stored (bv-coded) bytes.
    pub physical: u64,
    /// Resident bytes of the Elias-Fano extent directory.
    pub directory: u64,
    /// Largest per-source-block working set during the build (bytes).
    pub peak_block_bytes: u64,
    /// Physical bytes the sweep read.
    pub sweep_physical: u64,
    /// Logical bytes the sweep read.
    pub sweep_logical: u64,
    /// Supersteps the sweep ran.
    pub supersteps: u32,
    /// The final rank sum, a checksum of the whole computation.
    pub rank_sum: f64,
}

/// Builds `spec` under bv and sweeps it (anything past ~100 M edges
/// spills through a directory VFS).
pub fn measure(spec: &StreamSpec) -> Outcome {
    let big = spec.expected_edges() > 100_000_000;
    let tmp = std::env::temp_dir().join("hybridgraph-billion");
    let vfs: Arc<dyn Vfs> = if big {
        std::fs::create_dir_all(&tmp).expect("create spill dir");
        Arc::new(DirVfs::new(&tmp).expect("open spill dir"))
    } else {
        Arc::new(MemVfs::new())
    };
    let b = build(spec, vfs.as_ref(), CodecChoice::Bv);
    if spec.vertices >= StreamSpec::twitter().vertices {
        assert!(b.edges >= 1_000_000_000, "full entry must be ≥1B edges");
    }
    let (logical, physical) = (b.store.total_logical_bytes(), b.store.total_stored_bytes());
    let supersteps = 3u32;
    let before = vfs.stats().snapshot();
    let rank_sum = sweep(&b, spec.vertices as usize, supersteps);
    let io = vfs.stats().snapshot().delta(&before);
    // The sweep must have read every extent per superstep — via EF
    // random access, whole extents only, no directory I/O.
    assert_eq!(
        io.rand_read_logical_bytes,
        u64::from(supersteps) * logical,
        "sweep logical bytes must be supersteps × catalog logical bytes"
    );
    if big {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    Outcome {
        edges: b.edges,
        logical,
        physical,
        directory: b.store.memory_bytes(),
        peak_block_bytes: b.peak_block_bytes,
        sweep_physical: io.rand_read_bytes,
        sweep_logical: io.rand_read_logical_bytes,
        supersteps,
        rank_sum,
    }
}

/// Runs the entry at `1/scale` of billion scale (`--scale 1` = the real
/// thing).
pub fn run(scale: Scale, rep: &mut Report) {
    let spec = StreamSpec::twitter().scaled(scale.0);
    println!(
        "## billion: streaming {} build + b-pull sweep ({} vertices, {} blocks)",
        spec.name,
        spec.vertices,
        spec.nblocks()
    );
    let o = measure(&spec);
    let flat_index = 16 * u64::from(spec.nblocks()) * u64::from(spec.nblocks());
    let mut t = Table::new(
        "streaming build + EF-served b-pull sweep (codec bv)",
        &["metric", "value"],
    );
    let p_over_l = o.physical as f64 / o.logical.max(1) as f64;
    for (metric, value) in [
        ("edges", Cell::Count(o.edges)),
        ("logical bytes", Cell::Bytes(o.logical)),
        ("physical bytes", Cell::Bytes(o.physical)),
        ("p/l ratio", Cell::ratio(p_over_l)),
        ("ef directory", Cell::Bytes(o.directory)),
        ("flat directory would be", Cell::Bytes(flat_index)),
        ("peak build block set", Cell::Bytes(o.peak_block_bytes)),
        ("sweep rand reads (physical)", Cell::Bytes(o.sweep_physical)),
        ("sweep rand reads (logical)", Cell::Bytes(o.sweep_logical)),
        ("supersteps", Cell::Count(o.supersteps.into())),
        ("rank sum", Cell::Fixed(o.rank_sum, 12)),
    ] {
        t.row(vec![Cell::text(metric), value]);
    }
    rep.add(t);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_builds_and_sweeps() {
        let spec = StreamSpec::twitter().scaled(8192);
        let vfs = MemVfs::new();
        let b = build(&spec, &vfs, CodecChoice::Bv);
        assert!(b.edges > 0);
        assert!(b.store.total_stored_bytes() < b.store.total_logical_bytes());
        let sum = sweep(&b, spec.vertices as usize, 2);
        // Rank mass stays near 1: 0.15 base + 0.85 × (retained mass).
        assert!(sum > 0.5 && sum < 1.01, "rank sum {sum}");
    }

    #[test]
    fn sweep_is_deterministic_across_codecs() {
        let spec = StreamSpec::twitter().scaled(8192);
        let run_with = |codec| {
            let vfs = MemVfs::new();
            let b = build(&spec, &vfs, codec);
            sweep(&b, spec.vertices as usize, 2).to_bits()
        };
        let none = run_with(CodecChoice::None);
        for codec in [CodecChoice::Gaps, CodecChoice::Bv] {
            assert_eq!(run_with(codec), none, "{codec:?} changed the values");
        }
    }
}
