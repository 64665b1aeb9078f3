//! Corruption fuzz for the extent files under the three edge stores.
//!
//! Per store (VE-BLOCK, adjacency, gather) and codec (none, gaps, bv):
//! truncate one extent file at every length, and flip every bit of its
//! first eight bytes — the first fragment header under
//! `CodecChoice::None`, the tag and coded header under a codec. Reading
//! every extent back must then give an error or the pristine content,
//! never a panic. (A flipped bit no check can see — an id or weight bit
//! in raw bytes — may instead change the content of the extents those
//! eight bytes belong to, but never their size.) The VE-BLOCK scan into a
//! reused scratch gets the same treatment, and then a flip of every bit
//! of the file.

use hybridgraph_graph::{gen, BlockLayout, Edge, Graph, Partition, VertexId, WorkerId};
use hybridgraph_storage::adjacency::{AdjacencyStore, EdgeScratch};
use hybridgraph_storage::gather::GatherStore;
use hybridgraph_storage::veblock::{EblockScratch, VeBlockStore};
use hybridgraph_storage::{AccessClass, CodecChoice, MemVfs, Vfs};
use std::cell::RefCell;
use std::fmt::Debug;
use std::io;

const SEED: u64 = 0xe47e;
const CODECS: [CodecChoice; 3] = [CodecChoice::None, CodecChoice::Gaps, CodecChoice::Bv];

fn graph() -> Graph {
    gen::randomize_weights(
        &gen::rmat(64, 360, gen::RmatParams::default(), SEED),
        0.5,
        2.0,
        SEED,
    )
}

/// Damages `file` and re-reads every extent through `read` (one result
/// per extent; `size` is an extent's content size).
fn fuzz<T: PartialEq + Debug>(
    what: &str,
    vfs: &MemVfs,
    file: &str,
    read: impl Fn() -> Vec<io::Result<T>>,
    size: impl Fn(&T) -> usize,
) {
    let pristine: Vec<T> = read()
        .into_iter()
        .map(|r| r.expect("pristine read"))
        .collect();
    let f = vfs.open(file).expect("open");
    let bytes = f.read_all(AccessClass::SeqRead).expect("read");
    assert!(bytes.len() > 8, "{what}: file too small to fuzz");

    let mut failed_cuts = 0;
    for cut in (0..bytes.len()).rev() {
        f.truncate_to(cut as u64).expect("truncate");
        let got = read();
        failed_cuts += got.iter().any(|r| r.is_err()) as usize;
        for (k, (got, want)) in got.iter().zip(&pristine).enumerate() {
            if let Ok(got) = got {
                assert_eq!(got, want, "{what}: cut {cut}, extent {k}");
            }
        }
    }
    assert_eq!(
        failed_cuts,
        bytes.len(),
        "{what}: a truncation went unnoticed"
    );
    f.append(AccessClass::SeqWrite, &bytes).expect("restore");
    assert_eq!(f.len(), bytes.len() as u64);

    for bit in 0..64 {
        let at = bit / 8;
        f.write_at(
            AccessClass::RandWrite,
            at as u64,
            &[bytes[at] ^ (1 << (bit % 8))],
        )
        .expect("flip");
        let mut changed = 0;
        for (k, (got, want)) in read().iter().zip(&pristine).enumerate() {
            match got {
                Ok(got) if got == want => {}
                Ok(got) => {
                    assert_eq!(size(got), size(want), "{what}: bit {bit}, extent {k}");
                    changed += 1;
                }
                Err(_) => changed += 1,
            }
        }
        assert!(changed <= 8, "{what}: bit {bit} damaged {changed} extents");
        f.write_at(AccessClass::RandWrite, at as u64, &bytes[at..at + 1])
            .expect("restore");
    }
    let back: Vec<T> = read().into_iter().map(|r| r.expect("restored")).collect();
    assert_eq!(back, pristine, "{what}: restore");
}

#[test]
fn veblock_files_survive_truncation_and_header_flips() {
    let g = graph();
    let p = Partition::range(64, 2);
    let l = BlockLayout::uniform(&p, 3);
    let w = WorkerId(1);
    for codec in CODECS {
        println!("extent fuzz: veblock, {codec:?}, seed {SEED:#x}");
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, w, codec).unwrap();
        let first = l.blocks_of_worker(w).next().unwrap();
        fuzz(
            &format!("veblock/{codec:?}"),
            &vfs,
            &format!("eblk_{}", first.0),
            || {
                l.blocks_of_worker(w)
                    .flat_map(|j| l.block_ids().map(move |i| (j, i)))
                    .map(|(j, i)| s.scan_eblock(j, i))
                    .collect()
            },
            |frags| frags.iter().map(|f| 8 + 8 * f.edges.len()).sum(),
        );
    }
}

#[test]
fn veblock_scratch_scans_survive_truncation_and_bit_flips() {
    let g = graph();
    let p = Partition::range(64, 2);
    let l = BlockLayout::uniform(&p, 3);
    let w = WorkerId(1);
    type Scan = Vec<(VertexId, Vec<Edge>)>;
    let size = |frags: &Scan| frags.iter().map(|(_, e)| 8 + 8 * e.len()).sum::<usize>();
    for codec in CODECS {
        println!("extent fuzz: veblock scratch scan, {codec:?}, seed {SEED:#x}");
        let vfs = MemVfs::new();
        let s = VeBlockStore::build_with(&vfs, &g, &l, w, codec).unwrap();
        let name = format!("eblk_{}", l.blocks_of_worker(w).next().unwrap().0);
        // One scratch for every scan, damaged or not; a failed scan must
        // leave it empty.
        let scratch = RefCell::new(EblockScratch::default());
        let read = || -> Vec<io::Result<Scan>> {
            let mut scratch = scratch.borrow_mut();
            l.blocks_of_worker(w)
                .flat_map(|j| l.block_ids().map(move |i| (j, i)))
                .map(|(j, i)| {
                    let scanned = s.scan_eblock_into(j, i, &mut scratch);
                    let frags: Scan = scratch.fragments().map(|(v, e)| (v, e.to_vec())).collect();
                    assert!(scanned.is_ok() || frags.is_empty(), "g_{{{j},{i}}}");
                    scanned.map(|()| frags)
                })
                .collect()
        };
        fuzz(&format!("veblock scan/{codec:?}"), &vfs, &name, read, size);

        let pristine: Vec<Scan> = read().into_iter().map(|r| r.unwrap()).collect();
        let f = vfs.open(&name).expect("open");
        let bytes = f.read_all(AccessClass::SeqRead).expect("read");
        for bit in 0..bytes.len() * 8 {
            let at = bit / 8;
            let flipped = [bytes[at] ^ (1 << (bit % 8))];
            f.write_at(AccessClass::RandWrite, at as u64, &flipped)
                .expect("flip");
            for (k, (got, want)) in read().iter().zip(&pristine).enumerate() {
                if let Ok(got) = got {
                    assert_eq!(size(got), size(want), "{codec:?}: bit {bit}, extent {k}");
                }
            }
            f.write_at(AccessClass::RandWrite, at as u64, &bytes[at..at + 1])
                .expect("restore");
        }
        let back: Vec<Scan> = read().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(back, pristine, "{codec:?}: restore");
    }
}

#[test]
fn adjacency_files_survive_truncation_and_header_flips() {
    let g = graph();
    for codec in CODECS {
        println!("extent fuzz: adjacency, {codec:?}, seed {SEED:#x}");
        let vfs = MemVfs::new();
        let s = AdjacencyStore::build_with(&vfs, "adj", &g, 16..64, codec).unwrap();
        fuzz(
            &format!("adjacency/{codec:?}"),
            &vfs,
            "adj",
            || {
                let mut scratch = EdgeScratch::default();
                (16..64)
                    .map(|v| {
                        s.read_edges(VertexId(v), AccessClass::RandRead, &mut scratch)
                            .map(<[Edge]>::to_vec)
                    })
                    .collect()
            },
            |edges| edges.len(),
        );
    }
}

#[test]
fn gather_files_survive_truncation_and_header_flips() {
    let g = graph();
    for codec in CODECS {
        println!("extent fuzz: gather, {codec:?}, seed {SEED:#x}");
        let vfs = MemVfs::new();
        let s = GatherStore::build_with(&vfs, "gather", &g, 16..64, codec).unwrap();
        fuzz(
            &format!("gather/{codec:?}"),
            &vfs,
            "gather",
            || g.vertices().map(|v| s.in_edges_of(v)).collect(),
            |edges| edges.len(),
        );
    }
}
