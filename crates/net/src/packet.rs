//! Wire packets exchanged between workers.
//!
//! Four packet kinds cover both message-handling strategies:
//!
//! * [`Packet::PullRequest`] — b-pull's block-granular request: its entire
//!   payload is one Vblock identifier, which is the point of block-centric
//!   pulling ("the cost of pull requests is minimized to a Vblock
//!   identifier", §4.1).
//! * [`Packet::Messages`] — a batch of messages encoded by
//!   [`crate::wire::encode_batch`]; carries its [`WireStats`] so receivers
//!   account savings without re-parsing.
//! * [`Packet::EndOfResponses`] — b-pull: the sender has produced all
//!   messages for the requested block.
//! * [`Packet::DoneSending`] — push: the sender has flushed every message
//!   of the superstep (the barrier waits for one per peer).

use crate::wire::{BatchKind, WireStats};
use hybridgraph_graph::BlockId;
use hybridgraph_storage::{PayloadReader, PayloadWriter};
use std::sync::Arc;

/// Fixed header bytes per packet (tag + ids), charged on every packet.
pub const PACKET_HEADER_BYTES: u64 = 8;

/// One unit of network traffic.
#[derive(Clone, Debug)]
pub enum Packet {
    /// Request messages for all vertices of `block` (b-pull).
    PullRequest {
        /// The requested Vblock.
        block: BlockId,
    },
    /// A batch of messages.
    Messages {
        /// How `payload` is encoded.
        kind: BatchKind,
        /// Encoded batch (see [`crate::wire`]).
        payload: Arc<[u8]>,
        /// Encoding statistics (raw/wire counts, saved messages).
        stats: WireStats,
        /// For b-pull responses: which block the batch answers.
        for_block: Option<BlockId>,
    },
    /// All responses for `block` from this worker have been sent (b-pull).
    EndOfResponses {
        /// The answered Vblock.
        block: BlockId,
    },
    /// This worker has sent every message of the superstep (push).
    DoneSending,
    /// This worker has finished pulling and updating all its blocks or
    /// vertices for the superstep (b-pull / pull); it keeps serving
    /// requests until every peer has said the same.
    SuperstepDone,
    /// Per-vertex gather requests of the pull baseline: the encoded ids of
    /// destination vertices whose in-edges the receiver hosts.
    GatherRequests {
        /// Little-endian `u32` vertex ids, 4 bytes each.
        ids: Arc<[u8]>,
    },
    /// The pull baseline's sender has issued all gather requests of the
    /// superstep to this peer.
    DoneRequesting,
    /// All gather responses from this worker for the superstep have been
    /// sent to the peer this packet addresses.
    EndOfGather,
    /// Scatter signals of the pull baseline: encoded ids of destination
    /// vertices that must gather next superstep because an in-neighbor's
    /// value changed (PowerGraph's scatter-phase activation).
    Signals {
        /// Little-endian `u32` vertex ids, 4 bytes each.
        ids: Arc<[u8]>,
    },
    /// Out-of-band rollback order from the master's control plane: a peer
    /// failed mid-superstep, so every worker must abandon the current
    /// superstep immediately (stop computing, stop waiting for barriers)
    /// and await a rollback command. Injected by
    /// [`crate::fabric::ControlPlane`], never by workers, and therefore
    /// never accounted in [`crate::fabric::NetStats`].
    Abort,
}

impl Packet {
    /// Serializes the packet for the sender-side message log.
    ///
    /// The encoding is a 1-byte tag followed by the variant fields in
    /// declaration order, everything little-endian and `u32`-length-
    /// prefixed where variable. It exists for confined recovery — logged
    /// outbound packets must survive a process boundary — not for the
    /// in-process fabric, which moves [`Packet`] values directly.
    pub fn encode(&self, out: &mut PayloadWriter) {
        fn put_run(out: &mut PayloadWriter, b: &[u8]) {
            out.put_u32(b.len() as u32);
            out.put_raw(b);
        }
        match self {
            Packet::PullRequest { block } => {
                out.put_u8(0);
                out.put_u32(block.0);
            }
            Packet::Messages {
                kind,
                payload,
                stats,
                for_block,
            } => {
                out.put_u8(1);
                out.put_u8(match kind {
                    BatchKind::Plain => 0,
                    BatchKind::Concatenated => 1,
                    BatchKind::Combined => 2,
                });
                match for_block {
                    None => out.put_u8(0),
                    Some(b) => {
                        out.put_u8(1);
                        out.put_u32(b.0);
                    }
                }
                out.put_u64(stats.raw_messages);
                out.put_u64(stats.wire_values);
                out.put_u64(stats.wire_bytes);
                out.put_u64(stats.saved_messages);
                put_run(out, payload);
            }
            Packet::EndOfResponses { block } => {
                out.put_u8(2);
                out.put_u32(block.0);
            }
            Packet::DoneSending => out.put_u8(3),
            Packet::SuperstepDone => out.put_u8(4),
            Packet::GatherRequests { ids } => {
                out.put_u8(5);
                put_run(out, ids);
            }
            Packet::DoneRequesting => out.put_u8(6),
            Packet::EndOfGather => out.put_u8(7),
            Packet::Signals { ids } => {
                out.put_u8(8);
                put_run(out, ids);
            }
            Packet::Abort => out.put_u8(9),
        }
    }

    /// Deserializes one packet from `bytes`, returning it and the
    /// number of bytes consumed. Returns `None` on malformed input
    /// (truncated log segments must degrade gracefully, not panic).
    pub fn decode(bytes: &[u8]) -> Option<(Packet, usize)> {
        fn get_run(r: &mut PayloadReader<'_>) -> Option<Arc<[u8]>> {
            let len = r.get_u32().ok()? as usize;
            Some(r.take(len).ok()?.into())
        }
        let mut r = PayloadReader::new(bytes);
        let packet = match r.get_u8().ok()? {
            0 => Packet::PullRequest {
                block: BlockId(r.get_u32().ok()?),
            },
            1 => {
                let kind = match r.get_u8().ok()? {
                    0 => BatchKind::Plain,
                    1 => BatchKind::Concatenated,
                    2 => BatchKind::Combined,
                    _ => return None,
                };
                let for_block = match r.get_u8().ok()? {
                    0 => None,
                    1 => Some(BlockId(r.get_u32().ok()?)),
                    _ => return None,
                };
                let stats = WireStats {
                    raw_messages: r.get_u64().ok()?,
                    wire_values: r.get_u64().ok()?,
                    wire_bytes: r.get_u64().ok()?,
                    saved_messages: r.get_u64().ok()?,
                };
                Packet::Messages {
                    kind,
                    payload: get_run(&mut r)?,
                    stats,
                    for_block,
                }
            }
            2 => Packet::EndOfResponses {
                block: BlockId(r.get_u32().ok()?),
            },
            3 => Packet::DoneSending,
            4 => Packet::SuperstepDone,
            5 => Packet::GatherRequests {
                ids: get_run(&mut r)?,
            },
            6 => Packet::DoneRequesting,
            7 => Packet::EndOfGather,
            8 => Packet::Signals {
                ids: get_run(&mut r)?,
            },
            9 => Packet::Abort,
            _ => return None,
        };
        Some((packet, r.pos()))
    }

    /// Bytes this packet occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Packet::Messages { payload, .. } => PACKET_HEADER_BYTES + payload.len() as u64,
            Packet::GatherRequests { ids } | Packet::Signals { ids } => {
                PACKET_HEADER_BYTES + ids.len() as u64
            }
            _ => PACKET_HEADER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_packets_cost_header_only() {
        assert_eq!(
            Packet::PullRequest { block: BlockId(3) }.wire_bytes(),
            PACKET_HEADER_BYTES
        );
        assert_eq!(Packet::DoneSending.wire_bytes(), PACKET_HEADER_BYTES);
        assert_eq!(Packet::Abort.wire_bytes(), PACKET_HEADER_BYTES);
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        let packets = vec![
            Packet::PullRequest { block: BlockId(7) },
            Packet::Messages {
                kind: BatchKind::Combined,
                payload: vec![1u8, 2, 3, 4].into(),
                stats: WireStats {
                    raw_messages: 9,
                    wire_values: 4,
                    wire_bytes: 4,
                    saved_messages: 5,
                },
                for_block: Some(BlockId(3)),
            },
            Packet::Messages {
                kind: BatchKind::Plain,
                payload: Vec::new().into(),
                stats: WireStats::default(),
                for_block: None,
            },
            Packet::EndOfResponses { block: BlockId(1) },
            Packet::DoneSending,
            Packet::SuperstepDone,
            Packet::GatherRequests {
                ids: vec![5u8, 0, 0, 0].into(),
            },
            Packet::DoneRequesting,
            Packet::EndOfGather,
            Packet::Signals {
                ids: vec![9u8, 0, 0, 0].into(),
            },
            Packet::Abort,
        ];
        let mut blob = PayloadWriter::new();
        for p in &packets {
            p.encode(&mut blob);
        }
        let blob = blob.into_bytes();
        let mut at = 0;
        for want in &packets {
            let (got, used) = Packet::decode(&blob[at..]).expect("decode");
            at += used;
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        assert_eq!(at, blob.len());
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let mut blob = PayloadWriter::new();
        Packet::Messages {
            kind: BatchKind::Plain,
            payload: vec![0u8; 64].into(),
            stats: WireStats::default(),
            for_block: None,
        }
        .encode(&mut blob);
        let blob = blob.into_bytes();
        for cut in 0..blob.len() {
            assert!(Packet::decode(&blob[..cut]).is_none(), "cut at {cut}");
        }
        assert!(Packet::decode(&[]).is_none());
        assert!(Packet::decode(&[200]).is_none());
    }

    #[test]
    fn message_packets_add_payload() {
        let p = Packet::Messages {
            kind: BatchKind::Plain,
            payload: vec![0u8; 100].into(),
            stats: WireStats::default(),
            for_block: None,
        };
        assert_eq!(p.wire_bytes(), PACKET_HEADER_BYTES + 100);
    }
}
