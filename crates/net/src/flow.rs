//! Sending-threshold buffering (paper Appendix E).
//!
//! Distributed systems buffer outgoing messages per destination worker and
//! flush when a sending threshold is reached, "to make full use of the
//! network idle time and reduce the overhead of building connections". The
//! threshold is the knob Fig. 26 sweeps from 1 MB to 32 MB: push's
//! combining is crippled by small thresholds (partial buffers flush before
//! merge partners arrive), while b-pull's savings are threshold-independent
//! because it generates all messages for a destination together.

use hybridgraph_graph::{VertexId, WorkerId};
use hybridgraph_storage::Record;

/// The paper's default sending threshold (4 MB, chosen in Appendix E).
pub const DEFAULT_SENDING_THRESHOLD: usize = 4 * 1024 * 1024;

/// Per-destination-worker outgoing buffers with threshold-triggered flush.
pub struct ThresholdBuffer<M: Record> {
    per_peer: Vec<Vec<(VertexId, M)>>,
    /// How many messages fit under the threshold.
    per_flush: usize,
    /// Messages buffered across all peers.
    buffered: usize,
}

impl<M: Record> ThresholdBuffer<M> {
    /// Buffers for `peers` destination workers flushing at
    /// `threshold_bytes` of buffered payload.
    pub fn new(peers: usize, threshold_bytes: usize) -> Self {
        assert!(threshold_bytes > 0, "threshold must be positive");
        ThresholdBuffer {
            per_peer: (0..peers).map(|_| Vec::new()).collect(),
            per_flush: Self::messages_per_flush(threshold_bytes),
            buffered: 0,
        }
    }

    /// Bytes one buffered message will occupy on the wire (plain encoding).
    #[inline]
    fn message_bytes() -> usize {
        4 + M::BYTES
    }

    /// How many messages fit under a threshold of `threshold_bytes` (at
    /// least one).
    pub fn messages_per_flush(threshold_bytes: usize) -> usize {
        (threshold_bytes / Self::message_bytes()).max(1)
    }

    /// Appends a message for `dst` owned by worker `peer`; returns the
    /// drained batch if the peer's buffer reached the threshold.
    #[inline]
    pub fn push(&mut self, peer: WorkerId, dst: VertexId, msg: M) -> Option<Vec<(VertexId, M)>> {
        let buf = &mut self.per_peer[peer.index()];
        buf.push((dst, msg));
        self.buffered += 1;
        if buf.len() >= self.per_flush {
            self.buffered -= buf.len();
            Some(std::mem::take(buf))
        } else {
            None
        }
    }

    /// In-memory footprint of the buffers (the paper's `BS_i` when used as
    /// b-pull's sending buffer).
    pub fn memory_bytes(&self) -> u64 {
        self.buffered as u64 * Self::message_bytes() as u64
    }

    /// Drains `peer`'s buffer, full or not.
    pub fn flush(&mut self, peer: WorkerId) -> Vec<(VertexId, M)> {
        let batch = std::mem::take(&mut self.per_peer[peer.index()]);
        self.buffered -= batch.len();
        batch
    }

    /// Drains every non-empty buffer as `(peer, batch)` pairs.
    pub fn flush_all(&mut self) -> Vec<(WorkerId, Vec<(VertexId, M)>)> {
        self.buffered = 0;
        let mut out = Vec::new();
        for (i, buf) in self.per_peer.iter_mut().enumerate() {
            if !buf.is_empty() {
                out.push((WorkerId::from(i), std::mem::take(buf)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushes_at_threshold() {
        // f64 messages: 12 bytes each; threshold 36 bytes -> 3 per flush.
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(2, 36);
        assert_eq!(ThresholdBuffer::<f64>::messages_per_flush(36), 3);
        assert!(b.push(WorkerId(0), VertexId(1), 1.0).is_none());
        assert!(b.push(WorkerId(0), VertexId(2), 2.0).is_none());
        let batch = b.push(WorkerId(0), VertexId(3), 3.0).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(b.flush(WorkerId(0)).is_empty());
    }

    #[test]
    fn peers_are_independent() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(3, 16);
        b.push(WorkerId(0), VertexId(0), 0);
        b.push(WorkerId(1), VertexId(1), 1);
        assert_eq!(b.memory_bytes(), 2 * 8);
        assert_eq!(b.flush(WorkerId(1)), [(VertexId(1), 1)]);
        assert!(b.flush(WorkerId(2)).is_empty());
        assert_eq!(b.memory_bytes(), 8);
        assert_eq!(b.flush(WorkerId(0)), [(VertexId(0), 0)]);
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn flush_all_drains() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(3, 1024);
        b.push(WorkerId(0), VertexId(0), 0);
        b.push(WorkerId(2), VertexId(1), 1);
        b.push(WorkerId(2), VertexId(2), 2);
        let flushed = b.flush_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, WorkerId(0));
        assert_eq!(flushed[1].1.len(), 2);
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn tiny_threshold_still_batches_one() {
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(1, 1);
        assert_eq!(ThresholdBuffer::<f64>::messages_per_flush(1), 1);
        assert!(b.push(WorkerId(0), VertexId(0), 0.0).is_some());
    }

    #[test]
    fn memory_bytes_tracks_content() {
        let mut b: ThresholdBuffer<f64> = ThresholdBuffer::new(1, 1024);
        b.push(WorkerId(0), VertexId(0), 0.0);
        b.push(WorkerId(0), VertexId(1), 1.0);
        assert_eq!(b.memory_bytes(), 24);
    }

    #[test]
    fn running_count_follows_threshold_flushes() {
        let mut b: ThresholdBuffer<u32> = ThresholdBuffer::new(2, 16);
        b.push(WorkerId(0), VertexId(0), 0);
        b.push(WorkerId(1), VertexId(1), 1);
        assert!(b.push(WorkerId(0), VertexId(2), 2).is_some());
        assert_eq!(b.memory_bytes(), 8);
        b.flush_all();
        assert_eq!(b.memory_bytes(), 0);
    }

    #[test]
    fn default_threshold_is_4mb() {
        assert_eq!(DEFAULT_SENDING_THRESHOLD, 4 * 1024 * 1024);
    }
}
