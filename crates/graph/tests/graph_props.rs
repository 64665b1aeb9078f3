//! Randomized (seeded, reproducible) tests for the graph substrate.
//!
//! Formerly proptest-based; rewritten as plain seeded loops over a
//! [`SplitMix64`] stream so the workspace builds offline with no external
//! crates. Every case derives all of its parameters from the loop's RNG,
//! so a failure reproduces exactly from the fixed seed.

use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{gen, partition, BlockLayout, GraphBuilder, Partition, VertexId};
use hybridgraph_storage::{decode_graph, encode_graph};

/// Every vertex is owned by exactly one worker, ranges are contiguous
/// and cover 0..n.
#[test]
fn partition_covers_all_vertices() {
    let mut r = SplitMix64::new(0xA11CE);
    for _ in 0..64 {
        let n = r.range_usize(1, 500);
        let t = r.range_usize(1, 40);
        let p = Partition::range(n, t);
        assert_eq!(p.num_vertices(), n);
        assert_eq!(p.num_workers(), t);
        let mut covered = 0usize;
        let mut at = 0u32;
        for w in p.workers() {
            let range = p.worker_range(w);
            assert_eq!(range.start, at);
            at = range.end;
            covered += range.len();
            for v in range {
                assert_eq!(p.worker_of(VertexId(v)), w);
            }
        }
        assert_eq!(covered, n);
    }
}

/// Range sizes differ by at most one vertex.
#[test]
fn partition_is_balanced() {
    let mut r = SplitMix64::new(0xBA1A);
    for _ in 0..64 {
        let n = r.range_usize(1, 1000);
        let t = r.range_usize(1, 50);
        let p = Partition::range(n, t);
        let sizes: Vec<usize> = p.workers().map(|w| p.worker_len(w)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }
}

/// Block layout covers every vertex exactly once and block_of agrees.
#[test]
fn layout_partitions_vertices() {
    let mut r = SplitMix64::new(0x1A01);
    for _ in 0..64 {
        let n = r.range_usize(1, 300);
        let t = r.range_usize(1, 8);
        let per = r.range_usize(1, 10);
        let p = Partition::range(n, t);
        let l = BlockLayout::uniform(&p, per);
        let mut covered = 0usize;
        for b in l.block_ids() {
            let range = l.block_range(b);
            covered += range.len();
            for v in range {
                assert_eq!(l.block_of(VertexId(v)), b);
            }
        }
        assert_eq!(covered, n);
    }
}

/// Eq. 5 monotonicity: more buffer, fewer blocks; never zero.
#[test]
fn eq5_monotone_in_buffer() {
    let mut r = SplitMix64::new(0xE05);
    for _ in 0..64 {
        let n = r.range_usize(1, 100_000);
        let t = r.range_usize(1, 64);
        let b = r.range_usize(1, 1_000_000);
        let v1 = partition::vblocks_eq5(n, t, b);
        let v2 = partition::vblocks_eq5(n, t, b * 2);
        assert!(v1 >= v2);
        assert!(v2 >= 1);
    }
}

/// The graph blob round-trips arbitrary random graphs.
#[test]
fn binary_io_roundtrip() {
    let mut r = SplitMix64::new(0xB10);
    for case in 0..48 {
        let n = r.range_usize(2, 60);
        let m = r.range_usize(1, 300);
        let seed = r.next_u64() % 1000;
        let g = gen::randomize_weights(&gen::uniform(n, m, seed), 0.5, 9.5, seed);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g, back, "case {case}");
    }
}

/// The builder is insensitive to edge insertion order.
#[test]
fn builder_order_insensitive() {
    let mut r = SplitMix64::new(0x0DE);
    for _ in 0..64 {
        let len = r.range_usize(0, 200);
        let mut edges: Vec<(u32, u32)> = (0..len)
            .map(|_| (r.below_u32(50), r.below_u32(50)))
            .collect();
        let build = |pairs: &[(u32, u32)]| {
            let mut b = GraphBuilder::new(50);
            for &(s, d) in pairs {
                b.add(VertexId(s), VertexId(d));
            }
            b.build()
        };
        let forward = build(&edges);
        edges.reverse();
        let backward = build(&edges);
        assert_eq!(forward, backward);
    }
}

/// localize preserves vertex count, edge count and out-degrees.
#[test]
fn localize_preserves_degrees() {
    let mut r = SplitMix64::new(0x10CA);
    for _ in 0..48 {
        let n = r.range_usize(4, 80);
        let m = r.range_usize(1, 300);
        let frac = r.next_f64();
        let seed = r.next_u64() % 500;
        let g = gen::uniform(n, m, seed);
        let l = gen::localize(&g, frac, n / 8 + 1, seed);
        assert_eq!(l.num_vertices(), g.num_vertices());
        assert_eq!(l.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(l.out_degree(v), g.out_degree(v));
        }
    }
}

/// Generators honour exact edge counts and never emit self-loops.
#[test]
fn rmat_no_self_loops() {
    let mut r = SplitMix64::new(0x53ED);
    for _ in 0..48 {
        let n = r.range_usize(3, 200);
        let m = r.range_usize(1, 500);
        let seed = r.next_u64() % 500;
        let g = gen::rmat(n, m, gen::RmatParams::default(), seed);
        assert_eq!(g.num_edges(), m);
        for (s, e) in g.edges() {
            assert_ne!(s, e.dst);
        }
    }
}
