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
//!
//! `extent_file_bytes_are_pinned` holds the bytes themselves: an
//! encoder change that moves no byte count can still move a byte.

use hybridgraph_graph::{gen, BlockLayout, Dataset, Edge, Graph, Partition, VertexId, WorkerId};
use hybridgraph_storage::adjacency::{AdjacencyStore, EdgeScratch};
use hybridgraph_storage::gather::{GatherStore, InEdgeScratch};
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
                    let frags: Scan = scratch.fragments().map(|(v, e)| (v, e.collect())).collect();
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
            || {
                let mut scratch = InEdgeScratch::default();
                g.vertices()
                    .map(|v| {
                        s.read_in_edges(v, &mut scratch)
                            .map(|(srcs, weights)| (srcs.to_vec(), weights.to_vec()))
                    })
                    .collect()
            },
            |(srcs, _)| srcs.len(),
        );
    }
}

/// FNV-1a 64 over a whole file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a of every file the VE-BLOCK (1 and 4 Vblocks per worker),
/// adjacency and gather builds write for livej at 1/2000 on 2 workers,
/// under each codec. Only the stores' byte counts were pinned before
/// (`BENCH_io_compress.json`); an encoder that picks another copy
/// reference at the same length moves one of these.
#[test]
fn extent_file_bytes_are_pinned() {
    const PINNED: &[(&str, u64)] = &[
        ("none/ve1/eblk_0", 0xe95d7225be9cf181),
        ("none/ve1/eblk_1", 0xfdf60454572ed6fc),
        ("none/ve4/eblk_0", 0x436ee64db44c59ef),
        ("none/ve4/eblk_1", 0xbbbd1c18c7a53786),
        ("none/ve4/eblk_2", 0x9922592335f831d2),
        ("none/ve4/eblk_3", 0x3cc36616766f7674),
        ("none/ve4/eblk_4", 0x8832d07d90f614b2),
        ("none/ve4/eblk_5", 0xbd2c505befc40ca8),
        ("none/ve4/eblk_6", 0x18e5b6d266b07b4b),
        ("none/ve4/eblk_7", 0x044d5d66751e39c5),
        ("none/adj0", 0x6bfcddb4908a9bb9),
        ("none/gather0", 0x2dab00c02055e3bd),
        ("none/adj1", 0x3b23ae5bb9d0bb5b),
        ("none/gather1", 0x5175d1ae22a3a85c),
        ("gaps/ve1/eblk_0", 0x139e45cf611886c9),
        ("gaps/ve1/eblk_1", 0xec3f097038c7a35c),
        ("gaps/ve4/eblk_0", 0xf9acd194afbbdbfd),
        ("gaps/ve4/eblk_1", 0x9cb4b6c5179953df),
        ("gaps/ve4/eblk_2", 0x99991799bbb81f4c),
        ("gaps/ve4/eblk_3", 0x11385cf768543138),
        ("gaps/ve4/eblk_4", 0x54697a6954f84d0d),
        ("gaps/ve4/eblk_5", 0x02530622f5ae9d59),
        ("gaps/ve4/eblk_6", 0xdd116dcca10e1c9b),
        ("gaps/ve4/eblk_7", 0x277880884d494ac6),
        ("gaps/adj0", 0x2b619d6c7574f1b4),
        ("gaps/gather0", 0xd419da55e127c95e),
        ("gaps/adj1", 0x4084d5f17ad4e282),
        ("gaps/gather1", 0xbc88cc7d9eb30d88),
        ("bv/ve1/eblk_0", 0x1ccbb999f7bbb462),
        ("bv/ve1/eblk_1", 0xec3bb2a32004c2a3),
        ("bv/ve4/eblk_0", 0x9fdd3f655c94c3ff),
        ("bv/ve4/eblk_1", 0x99a9be68016f6d79),
        ("bv/ve4/eblk_2", 0x6fc7cf1849a1e5d4),
        ("bv/ve4/eblk_3", 0xafe1f6d4289f5fbe),
        ("bv/ve4/eblk_4", 0x1154d81c7fe162ae),
        ("bv/ve4/eblk_5", 0x61eacc04520bf72a),
        ("bv/ve4/eblk_6", 0xe44f5f790295174e),
        ("bv/ve4/eblk_7", 0xcc65a7edf8116c49),
        ("bv/adj0", 0x4a7335195de812fd),
        ("bv/gather0", 0xa8da1e6f81c9cf99),
        ("bv/adj1", 0xedb4237e6c3f4ac0),
        ("bv/gather1", 0x9f6b137db3e1807e),
    ];
    let g = Dataset::LiveJ.build_scaled(2_000);
    let p = Partition::range(g.num_vertices(), 2);
    let mut got = Vec::new();
    for codec in CodecChoice::ALL {
        let vfs = MemVfs::new();
        let mut pin = |name: &str, tag: String| {
            let bytes = vfs
                .open(name)
                .unwrap()
                .read_all(AccessClass::SeqRead)
                .unwrap();
            got.push((tag, fnv1a(&bytes)));
        };
        for per_worker in [1, 4] {
            let l = BlockLayout::uniform(&p, per_worker);
            for w in p.workers() {
                VeBlockStore::build_with(&vfs, &g, &l, w, codec).unwrap();
                for j in l.blocks_of_worker(w) {
                    let name = format!("eblk_{}", j.0);
                    pin(&name, format!("{codec}/ve{per_worker}/{name}"));
                }
            }
        }
        for w in p.workers() {
            let (adj, gather) = (format!("adj{}", w.0), format!("gather{}", w.0));
            AdjacencyStore::build_with(&vfs, &adj, &g, p.worker_range(w), codec).unwrap();
            GatherStore::build_with(&vfs, &gather, &g, p.worker_range(w), codec).unwrap();
            for name in [adj, gather] {
                pin(&name, format!("{codec}/{name}"));
            }
        }
    }
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    if got != PINNED {
        for (name, hash) in &got {
            println!("    (\"{name}\", {hash:#018x}),");
        }
        panic!("extent file bytes moved (the table above is what this tree writes)");
    }
}
