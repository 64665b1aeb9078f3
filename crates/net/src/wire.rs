//! Message-batch wire encodings (paper §4.2, Fig. 5, Appendix E).
//!
//! Three encodings exist, matching the paper's communication analysis:
//!
//! * **Plain** — one `dst: u32 LE | value` record per message. What push
//!   uses: Giraph neither concatenates nor combines at the sender because
//!   partial buffers are flushed at the sending threshold.
//! * **Concatenated** — messages grouped by destination share one id:
//!   `(dst id, count, values…)`. What b-pull uses for non-commutative
//!   algorithms (LPA, SA).
//! * **Combined** — one `(dst id, value)` record per destination after
//!   running a [`Combiner`]. What b-pull uses for commutative algorithms
//!   (PageRank, SSSP).
//!
//! [`WireStats::saved_messages`] counts the messages merged away — the
//! quantity the paper calls `M_co`, which drives the `Q_t` switching
//! metric's network term.
//!
//! Every sending buffer ([`crate::flow::ThresholdBuffer`], b-pull's
//! concatenating responder) holds Plain records, and [`encode_payloads`]
//! is the one encoder over them: Plain records go out as they stand,
//! Concatenated ones are grouped through the one grouping pass of
//! [`hybridgraph_storage::inbox`], Combined ones folded in a [`FoldBuf`].
//! Pull's `Signals` and `GatherRequests` payloads are Plain records of
//! `()` messages — a vertex id each — read by [`check_batch`] and
//! [`messages`] like any other.
//!
//! A Vblock's messages are generated together, so they concatenate or
//! combine *fully* before they are sent — and a Vblock is a contiguous id
//! range, so finding a destination is an array index, not a sort. b-pull's
//! combining responder buffers no message at all: each one folds into its
//! destination's slot of a [`FoldBuf`] as `pullRes()` produces it, and the
//! response is [`combined_payload`].

use crate::combine::Combiner;
use hybridgraph_graph::VertexId;
use hybridgraph_storage::inbox::{FoldBuf, Inbox};
use hybridgraph_storage::record::encode_slice;
use hybridgraph_storage::Record;
use std::borrow::Cow;
use std::fmt::Debug;
use std::io;
use std::ops::RangeBounds;

/// Which encoding a batch uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BatchKind {
    /// `dst | value` records, no merging.
    Plain,
    /// Destination-grouped, id shared per group.
    Concatenated,
    /// One combined value per destination.
    Combined,
}

/// Statistics of one encoded batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Messages before any merging.
    pub raw_messages: u64,
    /// Values actually carried on the wire.
    pub wire_values: u64,
    /// Encoded payload bytes.
    pub wire_bytes: u64,
    /// Messages merged away by concatenation or combining (`M_co`).
    pub saved_messages: u64,
}

impl WireStats {
    /// Component-wise sum.
    pub fn plus(&self, other: &WireStats) -> WireStats {
        WireStats {
            raw_messages: self.raw_messages + other.raw_messages,
            wire_values: self.wire_values + other.wire_values,
            wire_bytes: self.wire_bytes + other.wire_bytes,
            saved_messages: self.saved_messages + other.saved_messages,
        }
    }

    /// The statistics of a payload holding `groups` destinations.
    fn of(payload: &[u8], raw: usize, values: usize, groups: usize) -> WireStats {
        WireStats {
            raw_messages: raw as u64,
            wire_values: values as u64,
            wire_bytes: payload.len() as u64,
            saved_messages: (raw - groups) as u64,
        }
    }
}

/// Encodes `msgs` with the given `kind` as one payload: their records,
/// through [`encode_payloads`] uncut.
///
/// `combiner` must be provided if `kind` is [`BatchKind::Combined`].
pub fn encode_batch<M: Record>(
    kind: BatchKind,
    msgs: &mut [(VertexId, M)],
    combiner: Option<&dyn Combiner<M>>,
) -> (Vec<u8>, WireStats) {
    let records = encode_slice(msgs);
    encode_payloads(kind, &records, combiner, usize::MAX)
        .pop()
        .map(|(payload, stats)| (payload.into_owned(), stats))
        .unwrap_or_default()
}

/// Encodes `records` — a sending buffer's `dst: u32 LE | M` records, in
/// production order — as the payloads of one send, none if there is
/// nothing to say. `Plain` sends the records as they stand; `Combined`
/// writes each destination's left fold in production order
/// ([`FoldBuf`]); `Concatenated` groups once ([`Inbox::from_staged`]: by
/// index, production order kept within a destination) and writes
/// `(dst, count, values…)` cut into a new payload every `cut` messages of
/// the grouped order — a destination's group may straddle two payloads.
pub fn encode_payloads<'a, M: Record>(
    kind: BatchKind,
    records: &'a [u8],
    combiner: Option<&dyn Combiner<M>>,
    cut: usize,
) -> Vec<(Cow<'a, [u8]>, WireStats)> {
    assert!(cut > 0, "a payload holds at least one message");
    debug_assert!(records.len().is_multiple_of(4 + M::BYTES), "whole records");
    if records.is_empty() {
        return Vec::new();
    }
    let raw = records.len() / (4 + M::BYTES);
    let staged = messages::<M>(BatchKind::Plain, records);
    match kind {
        BatchKind::Plain => vec![(records.into(), WireStats::of(records, raw, raw, raw))],
        BatchKind::Combined => {
            let combiner = combiner.expect("Combined encoding requires a combiner");
            let (out, groups) = combined_records(staged, combiner);
            let stats = WireStats::of(&out, raw, groups, groups);
            vec![(out.into(), stats)]
        }
        BatchKind::Concatenated => {
            let mut payloads = Vec::new();
            let (mut out, mut values, mut groups) = (Vec::new(), 0usize, 0usize);
            for (dst, mut group) in Inbox::from_staged(staged).iter() {
                while !group.is_empty() {
                    let (now, later) = group.split_at(group.len().min(cut - values));
                    dst.append_to(&mut out);
                    (now.len() as u32).append_to(&mut out);
                    for m in now {
                        m.append_to(&mut out);
                    }
                    values += now.len();
                    groups += 1;
                    group = later;
                    if values == cut {
                        let stats = WireStats::of(&out, values, values, groups);
                        payloads.push((std::mem::take(&mut out).into(), stats));
                        (values, groups) = (0, 0);
                    }
                }
            }
            if values > 0 {
                let stats = WireStats::of(&out, values, values, groups);
                payloads.push((out.into(), stats));
            }
            payloads
        }
    }
}

/// `staged` folded left to right per destination, in staged order, as
/// `dst | M` records ascending; and how many there are.
fn combined_records<M: Record>(
    staged: impl Iterator<Item = (u32, M)> + Clone,
    combiner: &dyn Combiner<M>,
) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    let groups = FoldBuf::default().fold_records(staged, |a, b| combiner.combine(a, b), &mut out);
    (out, groups)
}

/// Drains `fold` — the per-destination folds of `raw` messages — as one
/// combined payload; `None` if nothing was added since it was reset.
pub fn combined_payload<M: Record>(
    fold: &mut FoldBuf<M>,
    raw: usize,
) -> Option<(Vec<u8>, WireStats)> {
    let mut out = Vec::new();
    let groups = fold.drain_records(&mut out);
    (groups > 0).then(|| {
        let stats = WireStats::of(&out, raw, groups, groups);
        (out, stats)
    })
}

/// Folds a sender's `later` combined payload into its `first`: one
/// combined payload whose every value is `first`'s combined with
/// `later`'s, in that order. Both must have passed [`check_batch`].
pub fn fold_combined<M: Record>(first: &[u8], later: &[u8], combiner: &dyn Combiner<M>) -> Vec<u8> {
    let kind = BatchKind::Combined;
    combined_records(messages(kind, first).chain(messages(kind, later)), combiner).0
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Checks a received payload before it is staged or sunk as it stands: a
/// whole number of `dst: u32 LE | M` records ([`BatchKind::Plain`] and
/// [`BatchKind::Combined`] — the receive buffer's and the spill file's
/// format) or of non-empty `(dst, count, values…)` groups, every
/// destination inside `dsts` (the receiver's local range, or the Vblock a
/// b-pull response answers). A violation is `InvalidData`, never a panic
/// or a stray index; [`messages`] may walk whatever passed.
pub fn check_batch<M: Record>(
    kind: BatchKind,
    payload: &[u8],
    dsts: &(impl RangeBounds<u32> + Debug),
) -> io::Result<()> {
    let in_range = |dst: u32| {
        if dsts.contains(&dst) {
            Ok(())
        } else {
            Err(invalid(format!(
                "message for vertex {dst} routed to the owner of {dsts:?}"
            )))
        }
    };
    if kind != BatchKind::Concatenated {
        let width = 4 + M::BYTES;
        if !payload.len().is_multiple_of(width) {
            return Err(invalid(format!(
                "message batch of {} bytes is not a multiple of the {width}-byte record",
                payload.len()
            )));
        }
        return payload
            .chunks_exact(width)
            .try_for_each(|record| in_range(u32::read_from(&record[..4])));
    }
    let mut rest = payload;
    while !rest.is_empty() {
        let group = rest.split_at_checked(8).and_then(|(header, body)| {
            let count = u32::read_from(&header[4..]) as usize;
            let values = count.checked_mul(M::BYTES).filter(|_| count > 0)?;
            Some((u32::read_from(&header[..4]), body.get(values..)?))
        });
        let Some((dst, tail)) = group else {
            return Err(invalid(format!(
                "{} bytes do not start with a whole, non-empty message group",
                rest.len()
            )));
        };
        in_range(dst)?;
        rest = tail;
    }
    Ok(())
}

/// The `(destination, message)` pairs of a payload that passed
/// [`check_batch`], in wire order.
pub fn messages<M: Record>(
    kind: BatchKind,
    payload: &[u8],
) -> impl Iterator<Item = (u32, M)> + Clone + '_ {
    // A record is a group of one that spells no count.
    let header = if kind == BatchKind::Concatenated {
        8
    } else {
        4
    };
    let (mut rest, mut dst, mut left) = (payload, 0u32, 0u32);
    std::iter::from_fn(move || {
        if left == 0 {
            let head = rest.get(..header)?;
            dst = u32::read_from(&head[..4]);
            left = if header == 8 {
                u32::read_from(&head[4..])
            } else {
                1
            };
            rest = &rest[header..];
        }
        let (msg, tail) = rest.split_at(M::BYTES);
        (rest, left) = (tail, left - 1);
        Some((dst, M::read_from(msg)))
    })
}

/// Decodes a batch back into `(dst, value)` pairs; a malformed one is
/// `InvalidData`.
///
/// Concatenated batches expand to one pair per value; combined batches
/// yield one pair per destination.
pub fn decode_batch<M: Record>(kind: BatchKind, bytes: &[u8]) -> io::Result<Vec<(VertexId, M)>> {
    check_batch::<M>(kind, bytes, &(..))?;
    Ok(messages(kind, bytes)
        .map(|(dst, m)| (VertexId(dst), m))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{MinCombiner, SumCombiner};

    fn sample() -> Vec<(VertexId, f64)> {
        vec![
            (VertexId(2), 1.0),
            (VertexId(1), 2.0),
            (VertexId(2), 3.0),
            (VertexId(1), 4.0),
            (VertexId(3), 5.0),
        ]
    }

    #[test]
    fn plain_roundtrip() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Plain, &mut msgs, None);
        assert_eq!(stats.raw_messages, 5);
        assert_eq!(stats.wire_values, 5);
        assert_eq!(stats.saved_messages, 0);
        assert_eq!(stats.wire_bytes, 5 * 12);
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Plain, &bytes).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn concatenated_shares_ids() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Concatenated, &mut msgs, None);
        assert_eq!(stats.raw_messages, 5);
        // 3 groups: v1 (2 msgs), v2 (2 msgs), v3 (1 msg)
        assert_eq!(stats.saved_messages, 2);
        assert_eq!(stats.wire_bytes, 3 * 8 + 5 * 8);
        let mut back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Concatenated, &bytes).unwrap();
        back.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        let mut want = sample();
        want.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        assert_eq!(back, want);
    }

    #[test]
    fn combined_merges_values() {
        let mut msgs = sample();
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut msgs, Some(&SumCombiner));
        assert_eq!(stats.wire_values, 3);
        assert_eq!(stats.saved_messages, 2);
        assert_eq!(stats.wire_bytes, 3 * 12);
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Combined, &bytes).unwrap();
        assert_eq!(
            back,
            vec![(VertexId(1), 6.0), (VertexId(2), 4.0), (VertexId(3), 5.0)]
        );
    }

    #[test]
    fn combined_with_min() {
        let mut msgs = vec![
            (VertexId(0), 4.0f32),
            (VertexId(0), 2.0),
            (VertexId(0), 9.0),
        ];
        let (bytes, stats) = encode_batch(BatchKind::Combined, &mut msgs, Some(&MinCombiner));
        assert_eq!(stats.wire_values, 1);
        let back: Vec<(VertexId, f32)> = decode_batch(BatchKind::Combined, &bytes).unwrap();
        assert_eq!(back, vec![(VertexId(0), 2.0)]);
    }

    #[test]
    fn check_records_rejects_short_and_misrouted_payloads() {
        let mut msgs = vec![(VertexId(10), 1.5f64), (VertexId(19), -2.0)];
        for kind in [BatchKind::Plain, BatchKind::Concatenated] {
            let (bytes, _) = encode_batch(kind, &mut msgs, None);
            assert!(check_batch::<f64>(kind, &bytes, &(10..20)).is_ok());
            assert!(check_batch::<f64>(kind, &[], &(10..20)).is_ok());
            // One byte short: not a whole number of records or groups.
            let err = check_batch::<f64>(kind, &bytes[..bytes.len() - 1], &(10..20)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(decode_batch::<f64>(kind, &bytes[..bytes.len() - 1]).is_err());
            // Well-formed, but vertex 19 is not in 10..19 / vertex 10 not in 11..20.
            for local in [10..19, 11..20, 0..0] {
                let err = check_batch::<f64>(kind, &bytes, &local).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{local:?}");
            }
        }
    }

    /// A concatenated payload built by hand: `(dst, count, values…)`, the
    /// count as claimed.
    fn groups<M: Record>(groups: &[(u32, u32, &[M])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (dst, count, values) in groups {
            dst.append_to(&mut out);
            count.append_to(&mut out);
            values.iter().for_each(|v| v.append_to(&mut out));
        }
        out
    }

    #[test]
    fn malformed_groups_are_invalid_data_not_panics() {
        let kind = BatchKind::Concatenated;
        let good = groups::<u32>(&[(3, 2, &[7, 8]), (5, 1, &[9])]);
        let back = decode_batch::<u32>(kind, &good).unwrap();
        assert_eq!(back, [(VertexId(3), 7), (VertexId(3), 8), (VertexId(5), 9)]);
        let bad = [
            // A count that overruns the bytes left — by one value, by 4 billion.
            groups(&[(3, 3, &[7, 8])]),
            groups(&[(3, 2, &[7, 8]), (5, u32::MAX, &[9])]),
            // A group of nothing, and a header cut short.
            groups(&[(3, 0, &[]), (5, 1, &[9])]),
            good[..good.len() - 5].to_vec(),
            good[..4].to_vec(),
        ];
        for payload in &bad {
            let err = check_batch::<u32>(kind, payload, &(..)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}");
            assert!(decode_batch::<u32>(kind, payload).is_err());
        }
        // Records are not groups: the kind decides how bytes are read.
        let mut msgs = vec![(VertexId(1), 2u32), (VertexId(3), 4), (VertexId(5), 6)];
        let (plain, _) = encode_batch(BatchKind::Plain, &mut msgs, None);
        assert!(check_batch::<u32>(kind, &plain, &(..)).is_err());
    }

    #[test]
    fn concatenated_cut_straddles_groups() {
        // Grouped order: 1 → [2, 4], 2 → [1, 3], 3 → [5]; cut every 3.
        let records = encode_slice(&sample());
        let payloads = encode_payloads::<f64>(BatchKind::Concatenated, &records, None, 3);
        let want = [
            (groups(&[(1, 2, &[2.0, 4.0]), (2, 1, &[1.0])]), (3, 1)),
            (groups(&[(2, 1, &[3.0]), (3, 1, &[5.0])]), (2, 0)),
        ];
        assert_eq!(payloads.len(), want.len());
        for ((bytes, stats), (want_bytes, (raw, saved))) in payloads.iter().zip(&want) {
            assert_eq!(bytes, want_bytes);
            assert_eq!(stats.raw_messages, *raw);
            assert_eq!(stats.wire_values, *raw);
            assert_eq!(stats.wire_bytes, bytes.len() as u64);
            assert_eq!(stats.saved_messages, *saved);
        }
        assert!(encode_payloads::<f64>(BatchKind::Concatenated, &[], None, 3).is_empty());
    }

    #[test]
    fn later_combined_payloads_fold_into_the_first() {
        let mut first = vec![(VertexId(1), 1.0f64), (VertexId(4), 4.0)];
        let mut later = vec![(VertexId(4), 0.5f64), (VertexId(2), 2.0)];
        let (a, _) = encode_batch(BatchKind::Combined, &mut first, Some(&SumCombiner));
        let (b, _) = encode_batch(BatchKind::Combined, &mut later, Some(&SumCombiner));
        let folded = fold_combined::<f64>(&a, &b, &SumCombiner);
        let back = decode_batch::<f64>(BatchKind::Combined, &folded).unwrap();
        assert_eq!(
            back,
            [(VertexId(1), 1.0), (VertexId(2), 2.0), (VertexId(4), 4.5)]
        );
    }

    #[test]
    fn empty_batches() {
        for kind in [BatchKind::Plain, BatchKind::Concatenated] {
            let mut msgs: Vec<(VertexId, u32)> = Vec::new();
            let (bytes, stats) = encode_batch(kind, &mut msgs, None);
            assert!(bytes.is_empty());
            assert_eq!(stats, WireStats::default());
            assert!(decode_batch::<u32>(kind, &bytes).unwrap().is_empty());
        }
    }

    #[test]
    fn concatenation_wins_on_high_fan_in() {
        // Each group carries a 4-byte count, so sharing the id pays off
        // once a destination receives more than two messages — the regime
        // pull-based generation puts every high-in-degree vertex in.
        let mut batch: Vec<(VertexId, f64)> =
            (0..100).map(|i| (VertexId(i / 10), i as f64)).collect();
        let mut plain_batch = batch.clone();
        let (_, plain) = encode_batch(BatchKind::Plain, &mut plain_batch, None);
        let (_, conc) = encode_batch(BatchKind::Concatenated, &mut batch, None);
        assert!(conc.wire_bytes < plain.wire_bytes);
        assert_eq!(conc.saved_messages, 90);
    }

    #[test]
    fn wire_stats_plus() {
        let a = WireStats {
            raw_messages: 1,
            wire_values: 1,
            wire_bytes: 12,
            saved_messages: 0,
        };
        let b = WireStats {
            raw_messages: 3,
            wire_values: 2,
            wire_bytes: 20,
            saved_messages: 1,
        };
        let c = a.plus(&b);
        assert_eq!(c.raw_messages, 4);
        assert_eq!(c.wire_bytes, 32);
        assert_eq!(c.saved_messages, 1);
    }
}
