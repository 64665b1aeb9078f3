//! Sending-threshold buffering (paper Appendix E).
//!
//! Distributed systems buffer outgoing messages per destination worker and
//! flush when a sending threshold is reached, "to make full use of the
//! network idle time and reduce the overhead of building connections". The
//! threshold is the knob Fig. 26 sweeps from 1 MB to 32 MB: push's
//! combining is crippled by small thresholds (partial buffers flush before
//! merge partners arrive), while b-pull's savings are threshold-independent
//! because it generates all messages for a destination together.
//!
//! A peer's buffer holds the bytes it will put on the wire: one
//! `dst: u32 LE | M` record per message, the format of a
//! [`BatchKind::Plain`](crate::wire::BatchKind::Plain) payload, of the
//! receive store and of its spill file. A flush hands those records to the
//! sender as they stand ([`crate::wire::encode_payloads`] sends plain ones
//! as they are and groups or combines the others). Pull's signal and
//! gather-request ids are `()` messages: 4-byte records of a destination
//! alone. Buffers are kept, not reallocated, across a superstep's flushes.

use hybridgraph_graph::{VertexId, WorkerId};
use hybridgraph_storage::Record;
use std::marker::PhantomData;

/// The paper's default sending threshold (4 MB, chosen in Appendix E).
pub const DEFAULT_SENDING_THRESHOLD: usize = 4 * 1024 * 1024;

/// Per-destination-worker outgoing record buffers with threshold-triggered
/// flush.
pub struct ThresholdBuffer<M: Record> {
    per_peer: Vec<Vec<u8>>,
    /// Bytes of the records that fit under the threshold.
    flush_bytes: usize,
    /// Bytes buffered across all peers.
    buffered: usize,
    _message: PhantomData<M>,
}

impl<M: Record> ThresholdBuffer<M> {
    /// Bytes of one buffered message: its wire record.
    const RECORD_BYTES: usize = 4 + M::BYTES;

    /// Buffers for `peers` destination workers flushing at
    /// `threshold_bytes` of buffered payload.
    pub fn new(peers: usize, threshold_bytes: usize) -> Self {
        assert!(threshold_bytes > 0, "threshold must be positive");
        ThresholdBuffer {
            per_peer: vec![Vec::new(); peers],
            flush_bytes: Self::messages_per_flush(threshold_bytes) * Self::RECORD_BYTES,
            buffered: 0,
            _message: PhantomData,
        }
    }

    /// How many messages fit under a threshold of `threshold_bytes` (at
    /// least one).
    pub fn messages_per_flush(threshold_bytes: usize) -> usize {
        (threshold_bytes / Self::RECORD_BYTES).max(1)
    }

    /// Appends the record of a message for `dst` owned by worker `peer`;
    /// once the peer's buffer reaches the threshold, hands its records to
    /// `send` and empties it.
    #[inline]
    pub fn push(&mut self, peer: WorkerId, dst: VertexId, msg: M, send: impl FnOnce(&[u8])) {
        let buf = &mut self.per_peer[peer.index()];
        (dst, msg).append_to(buf);
        self.buffered += Self::RECORD_BYTES;
        if buf.len() >= self.flush_bytes {
            send(buf);
            self.buffered -= buf.len();
            buf.clear();
        }
    }

    /// In-memory footprint of the buffers (the paper's `BS_i` when used as
    /// b-pull's sending buffer).
    pub fn memory_bytes(&self) -> u64 {
        self.buffered as u64
    }

    /// Hands `peer`'s records, full or not, to `send` and empties its
    /// buffer; an empty buffer sends nothing.
    pub fn flush(&mut self, peer: WorkerId, send: impl FnOnce(&[u8])) {
        let buf = &mut self.per_peer[peer.index()];
        if !buf.is_empty() {
            send(buf);
            self.buffered -= buf.len();
            buf.clear();
        }
    }

    /// [`Self::flush`]es every peer, in worker-id order.
    pub fn flush_all(&mut self, mut send: impl FnMut(WorkerId, &[u8])) {
        for i in 0..self.per_peer.len() {
            let peer = WorkerId::from(i);
            self.flush(peer, |records| send(peer, records));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `msgs` as `(peer, dst, msg)`, collecting every flush.
    fn fill<M: Record>(
        b: &mut ThresholdBuffer<M>,
        msgs: &[(u16, u32, M)],
    ) -> Vec<(WorkerId, Vec<u8>)> {
        let mut sent = Vec::new();
        for (peer, dst, m) in msgs {
            let peer = WorkerId(*peer);
            b.push(peer, VertexId(*dst), m.clone(), |r| {
                sent.push((peer, r.to_vec()))
            });
        }
        sent
    }

    /// The records of `msgs`, in order.
    fn records<M: Record>(msgs: &[(u32, M)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (dst, m) in msgs {
            (VertexId(*dst), m.clone()).append_to(&mut out);
        }
        out
    }

    #[test]
    fn flushes_at_threshold() {
        // f64 messages: 12-byte records; threshold 36 bytes -> 3 per flush.
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(2, 36);
        assert_eq!(ThresholdBuffer::<f64>::messages_per_flush(36), 3);
        let sent = fill(
            &mut b,
            &[(0, 1, 1.0), (0, 2, 2.0), (1, 9, 9.0), (0, 3, 3.0)],
        );
        let want = records(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(sent, [(WorkerId(0), want)]);
        b.flush(WorkerId(0), |_| panic!("a flushed buffer is empty"));
        assert_eq!(b.memory_bytes(), 12);
    }

    #[test]
    fn peers_are_independent() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(3, 16);
        assert!(fill(&mut b, &[(0, 0, 0), (1, 1, 1)]).is_empty());
        assert_eq!(b.memory_bytes(), 2 * 8);
        let mut sent = Vec::new();
        b.flush(WorkerId(1), |r| sent = r.to_vec());
        assert_eq!(sent, records(&[(1, 1u32)]));
        b.flush(WorkerId(2), |_| panic!("peer 2 has nothing buffered"));
        assert_eq!(b.memory_bytes(), 8);
        b.flush(WorkerId(0), |r| sent = r.to_vec());
        assert_eq!(sent, records(&[(0, 0u32)]));
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn flush_all_drains() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(3, 1024);
        fill(&mut b, &[(2, 1, 1), (0, 0, 0), (2, 2, 2)]);
        let mut flushed = Vec::new();
        b.flush_all(|peer, r| flushed.push((peer, r.to_vec())));
        let want = [
            (WorkerId(0), records(&[(0, 0u32)])),
            (WorkerId(2), records(&[(1, 1u32), (2, 2)])),
        ];
        assert_eq!(flushed, want);
        assert_eq!(b.memory_bytes(), 0);
        b.flush_all(|_, _| panic!("everything was flushed"));
    }

    #[test]
    fn tiny_threshold_still_batches_one() {
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(1, 1);
        assert_eq!(ThresholdBuffer::<f64>::messages_per_flush(1), 1);
        assert_eq!(fill(&mut b, &[(0, 0, 0.0)]).len(), 1);
    }

    #[test]
    fn ids_are_four_byte_records() {
        let mut b: ThresholdBuffer<()> = ThresholdBuffer::new(1, 8);
        let sent = fill(&mut b, &[(0, 7, ()), (0, 0x0102_0304, ())]);
        assert_eq!(sent, [(WorkerId(0), vec![7, 0, 0, 0, 4, 3, 2, 1])]);
    }

    #[test]
    fn memory_bytes_tracks_content() {
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(1, 1024);
        fill(&mut b, &[(0, 0, 0.0), (0, 1, 1.0)]);
        assert_eq!(b.memory_bytes(), 24);
    }

    #[test]
    fn running_count_follows_threshold_flushes() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(2, 16);
        assert_eq!(fill(&mut b, &[(0, 0, 0), (1, 1, 1), (0, 2, 2)]).len(), 1);
        assert_eq!(b.memory_bytes(), 8);
        b.flush_all(|_, _| {});
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn default_threshold_is_4mb() {
        assert_eq!(DEFAULT_SENDING_THRESHOLD, 4 * 1024 * 1024);
    }
}
