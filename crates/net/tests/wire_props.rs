//! Randomized (seeded, reproducible) tests for the wire encodings.
//!
//! Formerly proptest-based; rewritten as plain seeded loops over a
//! [`SplitMix64`] stream so the workspace builds offline.

use hybridgraph_graph::rng::SplitMix64;
use hybridgraph_graph::{VertexId, WorkerId};
use hybridgraph_net::combine::{MinCombiner, SumCombiner};
use hybridgraph_net::flow::{ThresholdBuffer, DEFAULT_SENDING_THRESHOLD};
use hybridgraph_net::wire::{
    combined_payload, decode_batch, encode_batch, encode_payloads, messages, BatchKind, WireStats,
};
use hybridgraph_net::Combiner;
use hybridgraph_storage::inbox::{FoldBuf, Inbox};
use hybridgraph_storage::record::encode_slice;
use hybridgraph_storage::Record;
use std::borrow::Cow;
use std::collections::HashMap;

fn batch(r: &mut SplitMix64) -> Vec<(VertexId, u32)> {
    let len = r.range_usize(0, 200);
    (0..len)
        .map(|_| (VertexId(r.below_u32(40)), r.below_u32(10_000)))
        .collect()
}

const CASES: usize = 128;

/// Plain encoding round-trips exactly, in order.
#[test]
fn plain_roundtrip() {
    let mut r = SplitMix64::new(0x71A1);
    for _ in 0..CASES {
        let msgs = batch(&mut r);
        let mut input = msgs.clone();
        let (bytes, stats) = encode_batch(BatchKind::Plain, &mut input, None);
        assert_eq!(stats.raw_messages as usize, msgs.len());
        assert_eq!(stats.wire_bytes as usize, bytes.len());
        assert_eq!(stats.saved_messages, 0);
        let back: Vec<(VertexId, u32)> = decode_batch(BatchKind::Plain, &bytes).unwrap();
        assert_eq!(back, msgs);
    }
}

/// Concatenated encoding preserves the multiset of messages.
#[test]
fn concat_preserves_multiset() {
    let mut r = SplitMix64::new(0xC0CA);
    for _ in 0..CASES {
        let msgs = batch(&mut r);
        let mut input = msgs.clone();
        let (bytes, stats) = encode_batch(BatchKind::Concatenated, &mut input, None);
        assert_eq!(stats.wire_bytes as usize, bytes.len());
        let back: Vec<(VertexId, u32)> = decode_batch(BatchKind::Concatenated, &bytes).unwrap();
        assert_eq!(back.len(), msgs.len());
        let key = |v: &[(VertexId, u32)]| {
            let mut s: Vec<(u32, u32)> = v.iter().map(|(d, m)| (d.0, *m)).collect();
            s.sort();
            s
        };
        assert_eq!(key(&back), key(&msgs));
        // Savings equal messages minus distinct destinations.
        let distinct: std::collections::HashSet<u32> = msgs.iter().map(|(d, _)| d.0).collect();
        assert_eq!(
            stats.saved_messages as usize,
            msgs.len() - distinct.len().min(msgs.len())
        );
    }
}

/// Combined (sum) encoding produces per-destination sums.
#[test]
fn combined_sums_per_destination() {
    let mut r = SplitMix64::new(0x5035);
    for _ in 0..CASES {
        let msgs = batch(&mut r);
        let mut input: Vec<(VertexId, u64)> = msgs.iter().map(|(d, m)| (*d, *m as u64)).collect();
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut input, Some(&SumCombiner));
        let back: Vec<(VertexId, u64)> = decode_batch(BatchKind::Combined, &bytes).unwrap();
        let mut want: HashMap<u32, u64> = HashMap::new();
        for (d, m) in &msgs {
            *want.entry(d.0).or_insert(0) += *m as u64;
        }
        assert_eq!(back.len(), want.len());
        for (d, sum) in back {
            assert_eq!(want.get(&d.0).copied(), Some(sum));
        }
        assert_eq!(stats.wire_values as usize, want.len());
    }
}

/// Combined (min) is order-insensitive: shuffled input, same output.
#[test]
fn combined_min_order_insensitive() {
    let mut r = SplitMix64::new(0x0D3);
    for _ in 0..CASES {
        let msgs = batch(&mut r);
        let to_f = |v: &[(VertexId, u32)]| -> Vec<(VertexId, f32)> {
            v.iter().map(|(d, m)| (*d, *m as f32)).collect()
        };
        let mut a = to_f(&msgs);
        let mut b = to_f(&msgs);
        b.reverse();
        let (bytes_a, _) = encode_batch(BatchKind::Combined, &mut a, Some(&MinCombiner));
        let (bytes_b, _) = encode_batch(BatchKind::Combined, &mut b, Some(&MinCombiner));
        assert_eq!(bytes_a, bytes_b);
    }
}

/// Merging encodings never put MORE values on the wire than plain.
#[test]
fn merging_never_increases_values() {
    let mut r = SplitMix64::new(0x3E6);
    for _ in 0..CASES {
        let msgs = batch(&mut r);
        let mut a = msgs.clone();
        let mut b = msgs.clone();
        let (_, plain) = encode_batch(BatchKind::Plain, &mut a, None);
        let (_, comb) = encode_batch(BatchKind::Combined, &mut b, Some(&SumCombiner));
        assert!(comb.wire_values <= plain.wire_values);
        assert!(comb.wire_bytes <= plain.wire_bytes);
        assert_eq!(comb.raw_messages, plain.raw_messages);
    }
}

// ------------------------------------------------ oracle: sort, then walk

/// The grouping encodings as they were before grouping went by index: a
/// stable `sort_by_key` on the destination, then a walk over equal runs —
/// `Concatenated` cut into `cut`-message chunks of the sorted order first,
/// each chunk encoded on its own.
fn reference<M: Record>(
    kind: BatchKind,
    msgs: &[(VertexId, M)],
    combiner: Option<&dyn Combiner<M>>,
    cut: usize,
) -> Vec<(Vec<u8>, WireStats)> {
    let mut sorted = msgs.to_vec();
    sorted.sort_by_key(|(d, _)| *d);
    let chunks: Vec<&[(VertexId, M)]> = match kind {
        BatchKind::Concatenated => sorted.chunks(cut).collect(),
        _ if sorted.is_empty() => Vec::new(),
        _ => vec![&sorted],
    };
    let mut payloads = Vec::new();
    for chunk in chunks {
        let (mut out, mut values) = (Vec::new(), 0u64);
        let runs = chunk.chunk_by(|a, b| a.0 == b.0);
        let groups = runs.clone().count() as u64;
        for run in runs {
            run[0].0.append_to(&mut out);
            match combiner {
                Some(c) => {
                    let acc = run[1..]
                        .iter()
                        .fold(run[0].1.clone(), |acc, (_, m)| c.combine(&acc, m));
                    acc.append_to(&mut out);
                    values += 1;
                }
                None => {
                    (run.len() as u32).append_to(&mut out);
                    run.iter().for_each(|(_, m)| m.append_to(&mut out));
                    values += run.len() as u64;
                }
            }
        }
        let raw = chunk.len() as u64;
        let stats = WireStats {
            raw_messages: raw,
            wire_values: values,
            wire_bytes: out.len() as u64,
            saved_messages: raw - groups,
        };
        payloads.push((out, stats));
    }
    payloads
}

/// Destination-id shapes: dense, one destination, all distinct, empty,
/// and a handful of ids 4 billion apart (the comparison fallback).
fn destinations(r: &mut SplitMix64, shape: usize) -> Vec<u32> {
    let len = r.range_usize(1, 300);
    match shape {
        0 => (0..len).map(|_| 1000 + r.below_u32(40)).collect(),
        1 => vec![77; len],
        2 => {
            let mut ids: Vec<u32> = (0..len as u32).map(|i| 5 + 3 * i).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, r.range_usize(0, i + 1));
            }
            ids
        }
        3 => Vec::new(),
        _ => (0..len.min(9))
            .map(|_| [0, 1, u32::MAX - 1, u32::MAX][r.range_usize(0, 4)])
            .collect(),
    }
}

/// Checks both grouping encodings of `value`-filled batches, whole and
/// cut mid-group, against [`reference`] — bytes and statistics.
fn matches_reference<M: Record>(
    seed: u64,
    value: impl Fn(&mut SplitMix64) -> M,
    combiner: &dyn Combiner<M>,
) {
    let mut r = SplitMix64::new(seed);
    for case in 0..CASES {
        let shape = case % 5;
        let msgs: Vec<(VertexId, M)> = destinations(&mut r, shape)
            .into_iter()
            .map(|d| (VertexId(d), value(&mut r)))
            .collect();
        let records = encode_slice(&msgs);
        for cut in [usize::MAX, 50, 7, 1] {
            let got = owned(encode_payloads::<M>(
                BatchKind::Concatenated,
                &records,
                None,
                cut,
            ));
            let want = reference(BatchKind::Concatenated, &msgs, None, cut);
            assert_eq!(got, want, "seed {seed:#x} case {case} cut {cut}");
        }
        let got = owned(encode_payloads(
            BatchKind::Combined,
            &records,
            Some(combiner),
            50,
        ));
        let want = reference(BatchKind::Combined, &msgs, Some(combiner), 50);
        assert_eq!(got, want, "seed {seed:#x} case {case} combined");
        // The one-payload entry point is the uncut case.
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut msgs.clone(), Some(combiner));
        assert_eq!(want.first().cloned().unwrap_or_default(), (bytes, stats));
    }
}

/// Encoded payloads as owned bytes, to compare with [`reference`]'s.
fn owned(payloads: Vec<(Cow<'_, [u8]>, WireStats)>) -> Vec<(Vec<u8>, WireStats)> {
    payloads
        .into_iter()
        .map(|(payload, stats)| (payload.into_owned(), stats))
        .collect()
}

/// `f64` values whose sum depends on the order it is taken in: magnitudes
/// from 1e-300 to 1e300, both zeros, subnormals, and NaNs with payload
/// bits (compared as bytes, so a NaN must come out the NaN the left fold
/// in production order makes).
fn awkward_f64(r: &mut SplitMix64) -> f64 {
    match r.range_usize(0, 8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(r.next_u64() & 0x000f_ffff_ffff_ffff),
        3 => f64::from_bits(0x7ff8_0000_0000_0000 | (r.next_u64() & 0xffff)),
        4 => 1e300 * (r.below_u32(9) as f64 - 4.0),
        5 => 1e-300 * r.below_u32(100) as f64,
        _ => (r.below_u32(2_000_001) as f64 - 1e6) / 3.0,
    }
}

#[test]
fn f64_sums_match_the_sorted_walk_bit_for_bit() {
    matches_reference(0xF64, awkward_f64, &SumCombiner);
}

#[test]
fn f32_min_matches_the_sorted_walk() {
    let value = |r: &mut SplitMix64| r.below_u32(1000) as f32 / 7.0 - 50.0;
    matches_reference(0xF32, value, &MinCombiner);
}

#[test]
fn u32_sums_match_the_sorted_walk() {
    matches_reference(0x32, |r: &mut SplitMix64| r.next_u64() as u32, &SumCombiner);
}

/// Keeps the pair with the smaller distance; on a tie, the earlier one —
/// so the result names which message came first.
struct NearestParent;

impl Combiner<(u32, f64)> for NearestParent {
    fn combine(&self, a: &(u32, f64), b: &(u32, f64)) -> (u32, f64) {
        if b.1 < a.1 {
            *b
        } else {
            *a
        }
    }
}

#[test]
fn twelve_byte_messages_match_the_sorted_walk() {
    let value = |r: &mut SplitMix64| (r.below_u32(1 << 20), r.below_u32(4) as f64);
    matches_reference(0x12, value, &NearestParent);
}

/// Destination ids an accumulator can be reset over: shapes 0–3 as
/// [`destinations`] draws them, and — in place of ids scattered over the
/// whole `u32` space, which cannot size a table — ids near `u32::MAX`.
fn dense_destinations(r: &mut SplitMix64, shape: usize) -> Vec<u32> {
    match shape {
        4 => (0..r.range_usize(1, 300))
            .map(|_| u32::MAX - 1 - r.below_u32(40))
            .collect(),
        _ => destinations(r, shape),
    }
}

/// A range holding every id of `ids`, with slack on both sides.
fn covering(ids: impl Iterator<Item = u32> + Clone) -> std::ops::Range<u32> {
    let lo = ids.clone().min().unwrap_or(0);
    let hi = ids.max().unwrap_or(0);
    lo.saturating_sub(5)..hi.saturating_add(65)
}

/// Feeds one reused accumulator one message at a time, in production
/// order, and holds what it drains to [`reference`], bytes and statistics;
/// then folds 1–3 senders' combined payloads in slot order, as a receiver
/// stages them, and holds that to the reference folded in slot order.
fn accumulator_matches_reference<M: Record>(
    seed: u64,
    value: impl Fn(&mut SplitMix64) -> M,
    combiner: &dyn Combiner<M>,
) {
    // Which NaN payload `a + b` keeps is the compiler's choice per call
    // site, and an inlined site may commute the operands: kept opaque, the
    // accumulator and the reference both call the one compiled `combine`,
    // so only the operand order they pass can tell them apart.
    let combiner = std::hint::black_box(combiner);
    let combine = |a: &M, b: &M| combiner.combine(a, b);
    let mut r = SplitMix64::new(seed);
    let mut fold = FoldBuf::default();
    for case in 0..CASES {
        let shape = case % 5;
        let msgs: Vec<(VertexId, M)> = dense_destinations(&mut r, shape)
            .into_iter()
            .map(|d| (VertexId(d), value(&mut r)))
            .collect();
        let ids = covering(msgs.iter().map(|(d, _)| d.0));
        fold.reset(ids.clone());
        if case % 3 == 0 {
            // Added and never drained: the next reset forgets it.
            fold.add(ids.start, value(&mut r), combine);
            fold.reset(ids.clone());
        }
        for (dst, m) in &msgs {
            fold.add(dst.0, m.clone(), combine);
        }
        let want = reference(BatchKind::Combined, &msgs, Some(combiner), usize::MAX).pop();
        let got = combined_payload(&mut fold, msgs.len());
        assert_eq!(got, want, "seed {seed:#x} case {case}");

        // Senders by worker id, each sender's combined payload as sent.
        let senders = 1 + case % 3;
        let slots: Vec<Vec<u8>> = (0..senders)
            .map(|s| {
                let mut own: Vec<(VertexId, M)> =
                    msgs.iter().skip(s).step_by(senders).cloned().collect();
                encode_batch(BatchKind::Combined, &mut own, Some(combiner)).0
            })
            .collect();
        let staged = slots
            .iter()
            .flat_map(|payload| messages::<M>(BatchKind::Combined, payload));
        let in_slot_order: Vec<(VertexId, M)> =
            staged.clone().map(|(d, m)| (VertexId(d), m)).collect();
        let want = reference(
            BatchKind::Combined,
            &in_slot_order,
            Some(combiner),
            usize::MAX,
        );
        fold.reset(ids);
        for (dst, m) in staged {
            fold.add(dst, m, combine);
        }
        let mut got = Vec::new();
        for (dst, msgs) in fold.drain_inbox().iter() {
            assert_eq!(msgs.len(), 1, "one folded value per destination");
            dst.append_to(&mut got);
            msgs[0].append_to(&mut got);
        }
        let want = want.first().map_or(&[][..], |(bytes, _)| &bytes[..]);
        assert_eq!(got, want, "seed {seed:#x} case {case}: {senders} senders");
    }
}

#[test]
fn accumulated_f64_sums_match_the_sorted_walk_bit_for_bit() {
    accumulator_matches_reference(0xACF64, awkward_f64, &SumCombiner);
}

#[test]
fn accumulated_f32_min_matches_the_sorted_walk() {
    let value = |r: &mut SplitMix64| r.below_u32(1000) as f32 / 7.0 - 50.0;
    accumulator_matches_reference(0xACF32, value, &MinCombiner);
}

#[test]
fn accumulated_u32_sums_match_the_sorted_walk() {
    let value = |r: &mut SplitMix64| r.next_u64() as u32;
    accumulator_matches_reference(0xAC32, value, &SumCombiner);
}

#[test]
fn accumulated_twelve_byte_messages_match_the_sorted_walk() {
    let value = |r: &mut SplitMix64| (r.below_u32(1 << 20), r.below_u32(4) as f64);
    accumulator_matches_reference(0xAC12, value, &NearestParent);
}

/// The staged-order constructor is a stable sort by destination, and
/// folding in staged order meets each destination's earliest message
/// first.
#[test]
fn staged_order_is_a_stable_sort_by_destination() {
    let mut r = SplitMix64::new(0x57A6ED);
    let mut fold = FoldBuf::default();
    for case in 0..CASES {
        let staged: Vec<(u32, u32)> = destinations(&mut r, case % 5)
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, i as u32))
            .collect();
        let inbox = Inbox::from_staged(staged.iter().copied());
        let got: Vec<(u32, u32)> = inbox
            .iter()
            .flat_map(|(dst, msgs)| msgs.iter().map(move |m| (dst, *m)))
            .collect();
        let mut want = staged.clone();
        want.sort_by_key(|&(d, _)| d);
        assert_eq!(got, want, "case {case}");
        assert_eq!(inbox.messages(), staged.len());
        let mut distinct: Vec<u32> = staged.iter().map(|&(d, _)| d).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(inbox.destinations(), distinct.len());
        // Keeping the first of each destination keeps its earliest message.
        let mut records = Vec::new();
        let groups = fold.fold_records(staged.iter().copied(), |a, _| *a, &mut records);
        assert_eq!(groups, distinct.len());
        let firsts = decode_batch::<u32>(BatchKind::Combined, &records).unwrap();
        for (dst, first) in firsts {
            let earliest = staged.iter().find(|&&(d, _)| d == dst.0).unwrap().1;
            assert_eq!(first, earliest, "case {case}");
        }
    }
}

// ------------------------------------ oracle: buffers of pairs, encoded

/// What one send put on the wire: the peer, the payload and its stats.
type Sent = Vec<(WorkerId, Vec<u8>, WireStats)>;

/// The sending path as it was when a sending buffer held `(dst, message)`
/// pairs: a peer's pairs drained once `⌊threshold / (4 + M::BYTES)⌋` of
/// them (at least one) were in, every peer's rest drained in worker order
/// at the end, and each drained batch encoded on its own — `Plain` pair by
/// pair, the grouping kinds by [`reference`].
fn pair_sends<M: Record>(
    kind: BatchKind,
    msgs: &[(WorkerId, VertexId, M)],
    peers: usize,
    threshold: usize,
    combiner: Option<&dyn Combiner<M>>,
    cut: usize,
) -> Sent {
    let per_flush = (threshold / (4 + M::BYTES)).max(1);
    let mut bufs: Vec<Vec<(VertexId, M)>> = vec![Vec::new(); peers];
    let mut sent = Vec::new();
    let mut send = |peer: WorkerId, batch: Vec<(VertexId, M)>| {
        let payloads = match kind {
            BatchKind::Plain => {
                let mut out = Vec::new();
                for (dst, m) in &batch {
                    dst.append_to(&mut out);
                    m.append_to(&mut out);
                }
                let n = batch.len() as u64;
                let stats = WireStats {
                    raw_messages: n,
                    wire_values: n,
                    wire_bytes: out.len() as u64,
                    saved_messages: 0,
                };
                vec![(out, stats)]
            }
            _ => reference(kind, &batch, combiner, cut),
        };
        sent.extend(payloads.into_iter().map(|(p, s)| (peer, p, s)));
    };
    for (peer, dst, m) in msgs {
        let buf = &mut bufs[peer.index()];
        buf.push((*dst, m.clone()));
        if buf.len() >= per_flush {
            send(*peer, std::mem::take(buf));
        }
    }
    for (p, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            send(WorkerId::from(p), buf);
        }
    }
    sent
}

/// Feeds seeded messages for three peers through a [`ThresholdBuffer`]
/// and encodes every flush with [`encode_payloads`], under all three
/// kinds and cuts of 1, 3 and unbounded, at thresholds of one record,
/// a few records, a ragged byte count and the default: the payloads must
/// be [`pair_sends`]', byte for byte, stats included.
fn buffered_sends_match_pairs<M: Record>(
    seed: u64,
    value: impl Fn(&mut SplitMix64) -> M,
    combiner: &dyn Combiner<M>,
) {
    let combiner = std::hint::black_box(combiner);
    let width = 4 + M::BYTES;
    let mut r = SplitMix64::new(seed);
    for case in 0..CASES {
        let msgs: Vec<(WorkerId, VertexId, M)> = destinations(&mut r, case % 5)
            .into_iter()
            .map(|d| (WorkerId(r.below_u32(3) as u16), VertexId(d), value(&mut r)))
            .collect();
        let threshold = [1, 3 * width, 7 * width + 5, DEFAULT_SENDING_THRESHOLD][case % 4];
        for kind in [
            BatchKind::Plain,
            BatchKind::Concatenated,
            BatchKind::Combined,
        ] {
            let combiner = (kind == BatchKind::Combined).then_some(combiner);
            for cut in [1, 3, usize::MAX] {
                let mut got = Vec::new();
                let mut send = |peer: WorkerId, records: &[u8]| {
                    let payloads = encode_payloads(kind, records, combiner, cut);
                    got.extend(owned(payloads).into_iter().map(|(p, s)| (peer, p, s)));
                };
                let mut tbuf = ThresholdBuffer::<M>::new(3, threshold);
                for (peer, dst, m) in &msgs {
                    tbuf.push(*peer, *dst, m.clone(), |records| send(*peer, records));
                }
                tbuf.flush_all(&mut send);
                let want = pair_sends(kind, &msgs, 3, threshold, combiner, cut);
                let at = format!("seed {seed:#x} case {case} {kind:?} cut {cut} at {threshold}");
                assert_eq!(got, want, "{at}");
            }
        }
    }
}

#[test]
fn buffered_f64_sends_match_pair_encoding() {
    buffered_sends_match_pairs(0xB0F64, awkward_f64, &SumCombiner);
}

#[test]
fn buffered_u32_sends_match_pair_encoding() {
    let value = |r: &mut SplitMix64| r.next_u64() as u32;
    buffered_sends_match_pairs(0xB032, value, &MinCombiner);
}

#[test]
fn buffered_twelve_byte_sends_match_pair_encoding() {
    let value = |r: &mut SplitMix64| (r.below_u32(1 << 20), r.below_u32(4) as f64);
    buffered_sends_match_pairs(0xB012, value, &NearestParent);
}

/// Pull's ids are `()` records: a buffer of them flushes where the byte
/// buffer it replaced did — once `threshold` bytes were in — with the same
/// bytes, for every threshold that is at most 4 or a multiple of 4. Past
/// 4 and ragged it stops at `⌊threshold / 4⌋` ids, not `⌈threshold / 4⌉`:
/// at 6, one id per flush, not two.
#[test]
fn id_buffers_flush_where_byte_buffers_did() {
    for threshold in [1, 2, 3, 4, 6, 8, 600] {
        let mut ids = ThresholdBuffer::<()>::new(1, threshold);
        let (mut got, mut want, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..1000u32 {
            ids.push(WorkerId(0), VertexId(v), (), |r| got.push((v, r.to_vec())));
            bytes.extend_from_slice(&v.to_le_bytes());
            if bytes.len() >= threshold {
                want.push((v, std::mem::take(&mut bytes)));
            }
        }
        ids.flush_all(|_, r| got.push((u32::MAX, r.to_vec())));
        if !bytes.is_empty() {
            want.push((u32::MAX, bytes));
        }
        if threshold == 6 {
            assert_eq!((got.len(), want.len()), (1000, 500));
        } else {
            assert_eq!(got, want, "threshold {threshold}");
        }
    }
}
