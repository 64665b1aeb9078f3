//! Wire packets exchanged between workers.
//!
//! Four packet kinds cover both message-handling strategies:
//!
//! * [`Packet::PullRequest`] — b-pull's block-granular request: its entire
//!   payload is one Vblock identifier, which is the point of block-centric
//!   pulling ("the cost of pull requests is minimized to a Vblock
//!   identifier", §4.1).
//! * [`Packet::Messages`] — a batch of messages encoded by
//!   [`crate::wire::encode_payloads`]; carries its [`WireStats`] so receivers
//!   account savings without re-parsing.
//! * [`Packet::EndOfResponses`] — b-pull: the sender has produced all
//!   messages for the requested block.
//! * [`Packet::DoneSending`] — push: the sender has flushed every message
//!   of the superstep (the barrier waits for one per peer).

use crate::wire::{BatchKind, WireStats};
use hybridgraph_graph::BlockId;
use hybridgraph_storage::frame::{AsU32, Len32};
use hybridgraph_storage::{record, tagged};
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

// The sender-side message log's layout: a tag byte, then the variant's
// fields, with `u32` ids and `u32`-length runs. It exists for confined
// recovery — logged outbound packets must survive a process boundary —
// not for the in-process fabric, which moves `Packet` values directly.
tagged! { Packet {
    0 => PullRequest { block via AsU32 },
    1 => Messages { kind, for_block via Option<AsU32>, stats, payload via Len32 },
    2 => EndOfResponses { block via AsU32 },
    3 => DoneSending,
    4 => SuperstepDone,
    5 => GatherRequests { ids via Len32 },
    6 => DoneRequesting,
    7 => EndOfGather,
    8 => Signals { ids via Len32 },
    9 => Abort,
} }
tagged! { BatchKind { 0 => Plain, 1 => Concatenated, 2 => Combined } }
record! { WireStats { raw_messages, wire_values, wire_bytes, saved_messages } }

impl Packet {
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
    use hybridgraph_storage::frame::{Field, PayloadReader, PayloadWriter};

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
            p.put(&mut blob);
        }
        let blob = blob.into_bytes();
        let mut r = PayloadReader::new(&blob);
        for want in &packets {
            let got = Packet::get(&mut r).expect("decode");
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        assert!(r.done());
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
