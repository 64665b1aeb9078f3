//! Randomized (seeded, reproducible) tests for the storage substrate.
//!
//! Formerly proptest-based; rewritten as plain seeded loops over a
//! [`SplitMix64`] stream so the workspace builds offline.

use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{gen, BlockLayout, Partition, VertexId, WorkerId};
use hybridgraph_storage::lru::LruCache;
use hybridgraph_storage::msg_store::SpillBuffer;
use hybridgraph_storage::record::encode_slice;
use hybridgraph_storage::value_store::ValueStore;
use hybridgraph_storage::veblock::VeBlockStore;
use hybridgraph_storage::vfs::MemVfs;
use hybridgraph_storage::{CodecChoice, Record};
use std::collections::HashMap;

/// SpillBuffer delivers exactly what was pushed, grouped by dst,
/// regardless of capacity.
#[test]
fn spill_buffer_delivers_everything() {
    let mut r = SplitMix64::new(0x5B1);
    for _ in 0..48 {
        let len = r.range_usize(0, 300);
        let msgs: Vec<(u32, u32)> = (0..len)
            .map(|_| (r.below_u32(64), r.below_u32(1000)))
            .collect();
        let capacity = r.range_usize(0, 64);
        let vfs = MemVfs::new();
        let mut buf: SpillBuffer<u32> = SpillBuffer::new(&vfs, "s", capacity).unwrap();
        for &(dst, m) in &msgs {
            buf.push(VertexId(dst), m).unwrap();
        }
        assert_eq!(buf.total(), msgs.len() as u64);
        assert_eq!(buf.spilled() as usize, msgs.len().saturating_sub(capacity));
        let delivered = buf.drain().unwrap();
        assert_eq!(delivered.messages(), msgs.len());
        // Multiset equality per destination.
        let mut want: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(dst, m) in &msgs {
            want.entry(dst).or_default().push(m);
        }
        for (dst, mut vals) in want {
            let mut got = delivered.for_vertex(VertexId(dst)).to_vec();
            got.sort();
            vals.sort();
            assert_eq!(got, vals);
        }
    }
}

/// Encoded bytes of one message: what the order checks compare.
fn encoded<M: Record>(m: &M) -> Vec<u8> {
    let mut bytes = vec![0u8; M::BYTES];
    m.write_to(&mut bytes);
    bytes
}

/// Pushes `msgs` (as single messages and as runs) and checks the drained
/// inbox against the reference order, staged order: a stable sort by
/// destination, each destination's messages in arrival order.
fn check_canonical_order<M: Record>(msgs: &[(u32, M)], what: &str) {
    let n = msgs.len();
    let mut want: Vec<(u32, Vec<u8>)> = msgs.iter().map(|(d, m)| (*d, encoded(m))).collect();
    want.sort_by_key(|(d, _)| *d);
    let distinct = {
        let mut dsts: Vec<u32> = msgs.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts
    };
    for capacity in [0, 1, n / 2, n + 7] {
        for codec in [CodecChoice::None, CodecChoice::Gaps] {
            let vfs = MemVfs::new();
            let mut buf: SpillBuffer<M> =
                SpillBuffer::with_codec(&vfs, "s", capacity, codec).unwrap();
            // First half message by message, second half as one run.
            let (single, run) = msgs.split_at(n / 2);
            for (dst, m) in single {
                buf.push(VertexId(*dst), m.clone()).unwrap();
            }
            let records: Vec<(VertexId, M)> =
                run.iter().map(|(d, m)| (VertexId(*d), m.clone())).collect();
            buf.push_encoded(&encode_slice(&records)).unwrap();
            assert_eq!(buf.total(), n as u64, "{what} cap {capacity} {codec:?}");
            assert_eq!(buf.spilled() as usize, n.saturating_sub(capacity));

            let inbox = buf.drain().unwrap();
            let got: Vec<(u32, Vec<u8>)> = inbox
                .iter()
                .flat_map(|(d, ms)| ms.iter().map(move |m| (d, encoded(m))))
                .collect();
            assert_eq!(got, want, "{what} cap {capacity} {codec:?}");
            assert_eq!(inbox.messages(), n);
            assert_eq!(inbox.destinations(), distinct.len());
            assert_eq!(inbox.is_empty(), n == 0);
            let dsts: Vec<u32> = inbox.iter().map(|(d, _)| d).collect();
            assert_eq!(dsts, distinct, "{what}: destinations ascend, once each");
            for (d, ms) in inbox.iter() {
                assert!(!ms.is_empty());
                let by_vertex: Vec<Vec<u8>> =
                    inbox.for_vertex(VertexId(d)).iter().map(encoded).collect();
                let by_iter: Vec<Vec<u8>> = ms.iter().map(encoded).collect();
                assert_eq!(by_vertex, by_iter);
            }
            let absent = distinct.last().map_or(0, |d| d + 1);
            assert!(inbox.for_vertex(VertexId(absent)).is_empty());
        }
    }
}

/// The inbox order is the canonical one — destination, then arrival —
/// for every message width and every awkward float, whatever was
/// resident, spilled or coded.
#[test]
fn inbox_order_is_destination_then_arrival() {
    let awkward = [
        0.0f64,
        -0.0,
        1.0,
        -1.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001), // NaN with a payload
        f64::from_bits(0xfff0_0000_dead_beef), // signalling, negative
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0, // subnormal
        -f64::MIN_POSITIVE / 1024.0,
        f64::MAX,
        f64::EPSILON,
    ];
    for seed in [1u64, 42, 0xdead_beef] {
        let mut r = SplitMix64::new(seed);
        let n = r.range_usize(300, 700);
        let base = r.below_u32(1 << 20);
        let dst = |r: &mut SplitMix64| base + r.below_u32(48);
        // Few distinct destinations and a small value pool: many
        // duplicates, long per-destination runs.
        let f64s: Vec<(u32, f64)> = (0..n)
            .map(|_| {
                let m = if r.next_bool() {
                    awkward[r.range_usize(0, awkward.len())]
                } else {
                    f64::from_bits(r.next_u64())
                };
                (dst(&mut r), m)
            })
            .collect();
        check_canonical_order(&f64s, &format!("f64 seed {seed}"));
        let f32s: Vec<(u32, f32)> = (0..n)
            .map(|_| {
                (
                    dst(&mut r),
                    f32::from_bits(r.next_u64() as u32 & 0xff80_00ff),
                )
            })
            .collect();
        check_canonical_order(&f32s, &format!("f32 seed {seed}"));
        let u32s: Vec<(u32, u32)> = (0..n).map(|_| (dst(&mut r), r.below_u32(6))).collect();
        check_canonical_order(&u32s, &format!("u32 seed {seed}"));
        let tuples: Vec<(u32, (u32, f64))> = (0..n)
            .map(|_| {
                let m = (r.below_u32(3), awkward[r.range_usize(0, awkward.len())]);
                (dst(&mut r), m)
            })
            .collect();
        check_canonical_order(&tuples, &format!("(u32, f64) seed {seed}"));
    }
}

/// Inbox shapes at the edges: nothing, one message, one destination
/// taking every message, and every message its own destination.
#[test]
fn inbox_edge_shapes() {
    check_canonical_order::<f64>(&[], "empty");
    check_canonical_order(&[(9, 2.5f64)], "single message");
    let one_dst: Vec<(u32, f64)> = (0..200).map(|i| (77, f64::from(i % 13) - 6.0)).collect();
    check_canonical_order(&one_dst, "every message one destination");
    let all_distinct: Vec<(u32, u32)> = (0..200).rev().map(|i| (3 * i, i)).collect();
    check_canonical_order(&all_distinct, "every destination one message");
    check_canonical_order(&[(3, ()), (1, ()), (3, ())], "zero-width messages");
}

/// The LRU cache agrees with a naive model on hits and never exceeds
/// capacity; every dirty value is eventually reported exactly once.
#[test]
fn lru_matches_model() {
    let mut r = SplitMix64::new(0x12C);
    for _ in 0..48 {
        let n_ops = r.range_usize(1, 200);
        let ops: Vec<(u32, bool)> = (0..n_ops)
            .map(|_| (r.below_u32(32), r.next_bool()))
            .collect();
        let capacity = r.range_usize(1, 16);
        let mut lru: LruCache<u32, u32> = LruCache::new(capacity);
        let mut dirty_out: Vec<u32> = Vec::new();
        // Model: recency list of keys.
        let mut recency: Vec<u32> = Vec::new();
        for (i, &(key, write)) in ops.iter().enumerate() {
            let val = i as u32;
            let modeled_hit = recency.contains(&key);
            let got_hit = if write {
                lru.get_mut(&key).map(|v| *v = val).is_some()
            } else {
                lru.get(&key).is_some()
            };
            assert_eq!(got_hit, modeled_hit, "op {}", i);
            if modeled_hit {
                recency.retain(|&k| k != key);
                recency.insert(0, key);
            } else {
                if let Some((k, _, d)) = lru.insert(key, val, false) {
                    if d {
                        dirty_out.push(k);
                    }
                    let evicted = recency.pop().unwrap();
                    assert_eq!(k, evicted);
                }
                recency.insert(0, key);
            }
            assert!(lru.len() <= capacity);
            assert_eq!(lru.len(), recency.len());
        }
    }
}

/// ValueStore point/range operations agree with a plain vector.
#[test]
fn value_store_matches_vec() {
    let mut r = SplitMix64::new(0x7A1E);
    for _ in 0..48 {
        let n = r.range_usize(1, 64);
        let n_ops = r.range_usize(0, 100);
        let vfs = MemVfs::new();
        let init: Vec<i64> = (0..n as i64).collect();
        let store = ValueStore::create(&vfs, "v", 0, &init).unwrap();
        let mut model = init.clone();
        for _ in 0..n_ops {
            let idx = r.range_usize(0, 64) % n;
            let val = r.range_i64_inclusive(-1000, 1000);
            store.write_one(VertexId(idx as u32), &val).unwrap();
            model[idx] = val;
            assert_eq!(store.read_one(VertexId(idx as u32)).unwrap(), val);
        }
        assert_eq!(store.read_range(0..n as u32).unwrap(), model);
    }
}

/// VE-BLOCK fragments partition the edge set exactly, for arbitrary
/// random graphs, partitions and block granularities.
#[test]
fn veblock_partitions_edges() {
    let mut r = SplitMix64::new(0xEB10);
    for _ in 0..32 {
        let n = r.range_usize(4, 80);
        let m = r.range_usize(1, 400);
        let t = r.range_usize(1, 6);
        let per = r.range_usize(1, 6);
        let seed = r.next_u64() % 500;
        let g = gen::uniform(n, m, seed);
        let p = Partition::range(n, t);
        let l = BlockLayout::uniform(&p, per);
        let mut seen = 0usize;
        let mut total_frags = 0u64;
        for w in 0..t {
            let vfs = MemVfs::new();
            let s = VeBlockStore::build(&vfs, &g, &l, WorkerId::from(w)).unwrap();
            total_frags += s.total_fragments();
            for j in l.blocks_of_worker(WorkerId::from(w)) {
                for i in l.block_ids() {
                    for frag in s.scan_eblock(j, i).unwrap() {
                        assert!(!frag.edges.is_empty(), "empty fragment");
                        seen += frag.edges.len();
                        // Fragment edges must exist in the graph.
                        for e in &frag.edges {
                            assert!(g.out_edges(frag.src).iter().any(|ge| ge.dst == e.dst));
                        }
                    }
                }
            }
        }
        assert_eq!(seen, m);
        // Theorem 1 sanity: fragments bounded by edges and by vertices x V.
        assert!(total_frags <= m as u64);
    }
}
