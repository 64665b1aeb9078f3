//! Message-batch wire encodings (paper §4.2, Fig. 5, Appendix E).
//!
//! Three encodings exist, matching the paper's communication analysis:
//!
//! * **Plain** — `(dst id, value)` per message. What push uses: Giraph
//!   neither concatenates nor combines at the sender because partial
//!   buffers are flushed at the sending threshold.
//! * **Concatenated** — messages grouped by destination share one id:
//!   `(dst id, count, values…)`. What b-pull uses for non-commutative
//!   algorithms (LPA, SA).
//! * **Combined** — one `(dst id, value)` per destination after running a
//!   [`Combiner`]. What b-pull uses for commutative algorithms
//!   (PageRank, SSSP).
//!
//! [`WireStats::saved_messages`] counts the messages merged away — the
//! quantity the paper calls `M_co`, which drives the `Q_t` switching
//! metric's network term.

use crate::combine::Combiner;
use hybridgraph_graph::VertexId;
use hybridgraph_storage::Record;
use std::io;
use std::ops::Range;

/// Which encoding a batch uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BatchKind {
    /// `(dst, value)` pairs, no merging.
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
}

/// Encodes `msgs` with the given `kind`.
///
/// `msgs` is sorted by destination in place for the grouping encodings.
/// `combiner` must be provided iff `kind` is [`BatchKind::Combined`].
pub fn encode_batch<M: Record>(
    kind: BatchKind,
    msgs: &mut [(VertexId, M)],
    combiner: Option<&dyn Combiner<M>>,
) -> (Vec<u8>, WireStats) {
    let raw = msgs.len() as u64;
    match kind {
        BatchKind::Plain => {
            let mut out = Vec::with_capacity(msgs.len() * (4 + M::BYTES));
            for (dst, m) in msgs.iter() {
                dst.append_to(&mut out);
                m.append_to(&mut out);
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: raw,
                wire_bytes: out.len() as u64,
                saved_messages: 0,
            };
            (out, stats)
        }
        BatchKind::Concatenated => {
            msgs.sort_by_key(|(d, _)| *d);
            let mut out = Vec::with_capacity(msgs.len() * M::BYTES + 16);
            let mut groups = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let dst = msgs[i].0;
                let mut end = i + 1;
                while end < msgs.len() && msgs[end].0 == dst {
                    end += 1;
                }
                dst.append_to(&mut out);
                ((end - i) as u32).append_to(&mut out);
                for (_, m) in &msgs[i..end] {
                    m.append_to(&mut out);
                }
                groups += 1;
                i = end;
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: raw,
                wire_bytes: out.len() as u64,
                saved_messages: raw.saturating_sub(groups),
            };
            (out, stats)
        }
        BatchKind::Combined => {
            let combiner = combiner.expect("Combined encoding requires a combiner");
            msgs.sort_by_key(|(d, _)| *d);
            let mut out = Vec::with_capacity(msgs.len() * (4 + M::BYTES));
            let mut groups = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let dst = msgs[i].0;
                let mut acc = msgs[i].1.clone();
                let mut end = i + 1;
                while end < msgs.len() && msgs[end].0 == dst {
                    acc = combiner.combine(&acc, &msgs[end].1);
                    end += 1;
                }
                dst.append_to(&mut out);
                acc.append_to(&mut out);
                groups += 1;
                i = end;
            }
            let stats = WireStats {
                raw_messages: raw,
                wire_values: groups,
                wire_bytes: out.len() as u64,
                saved_messages: raw.saturating_sub(groups),
            };
            (out, stats)
        }
    }
}

/// Checks a received [`BatchKind::Plain`] or [`BatchKind::Combined`]
/// payload before it is sunk as it stands (its `dst: u32 LE | M` records
/// are the receive buffer's and the spill file's format): a whole number
/// of records, every destination inside the receiver's `local` range.
/// A violation is `InvalidData`, never a panic or a stray index.
pub fn check_records<M: Record>(payload: &[u8], local: &Range<u32>) -> io::Result<()> {
    let width = 4 + M::BYTES;
    if !payload.len().is_multiple_of(width) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "message batch of {} bytes is not a multiple of the {width}-byte record",
                payload.len()
            ),
        ));
    }
    for record in payload.chunks_exact(width) {
        let dst = u32::read_from(&record[..4]);
        if !local.contains(&dst) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message for vertex {dst} routed to the worker owning {local:?}"),
            ));
        }
    }
    Ok(())
}

/// Decodes a batch back into `(dst, value)` pairs.
///
/// Concatenated batches expand to one pair per value; combined batches
/// yield one pair per destination.
pub fn decode_batch<M: Record>(kind: BatchKind, bytes: &[u8]) -> Vec<(VertexId, M)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    match kind {
        BatchKind::Plain | BatchKind::Combined => {
            let width = 4 + M::BYTES;
            assert_eq!(bytes.len() % width, 0, "batch length misaligned");
            while at < bytes.len() {
                let dst = VertexId::read_from(&bytes[at..at + 4]);
                let m = M::read_from(&bytes[at + 4..at + width]);
                out.push((dst, m));
                at += width;
            }
        }
        BatchKind::Concatenated => {
            while at < bytes.len() {
                let dst = VertexId::read_from(&bytes[at..at + 4]);
                let count = u32::read_from(&bytes[at + 4..at + 8]) as usize;
                at += 8;
                for _ in 0..count {
                    out.push((dst, M::read_from(&bytes[at..at + M::BYTES])));
                    at += M::BYTES;
                }
            }
        }
    }
    out
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
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Plain, &bytes);
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
        let mut back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Concatenated, &bytes);
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
        let back: Vec<(VertexId, f64)> = decode_batch(BatchKind::Combined, &bytes);
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
        let back: Vec<(VertexId, f32)> = decode_batch(BatchKind::Combined, &bytes);
        assert_eq!(back, vec![(VertexId(0), 2.0)]);
    }

    #[test]
    fn check_records_rejects_short_and_misrouted_payloads() {
        let mut msgs = vec![(VertexId(10), 1.5f64), (VertexId(19), -2.0)];
        let (bytes, _) = encode_batch(BatchKind::Plain, &mut msgs, None);
        assert!(check_records::<f64>(&bytes, &(10..20)).is_ok());
        assert!(check_records::<f64>(&[], &(10..20)).is_ok());
        // One byte short: not a whole number of 12-byte records.
        let err = check_records::<f64>(&bytes[..bytes.len() - 1], &(10..20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Well-formed, but vertex 19 is not in 10..19 / vertex 10 not in 11..20.
        for local in [10..19, 11..20, 0..0] {
            let err = check_records::<f64>(&bytes, &local).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{local:?}");
        }
    }

    #[test]
    fn empty_batches() {
        for kind in [BatchKind::Plain, BatchKind::Concatenated] {
            let mut msgs: Vec<(VertexId, u32)> = Vec::new();
            let (bytes, stats) = encode_batch(kind, &mut msgs, None);
            assert!(bytes.is_empty());
            assert_eq!(stats, WireStats::default());
            assert!(decode_batch::<u32>(kind, &bytes).is_empty());
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
