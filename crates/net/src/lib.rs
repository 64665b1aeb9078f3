//! Simulated network substrate for HybridGraph.
//!
//! The paper's cluster connects computational nodes over Gigabit Ethernet;
//! its analysis needs only the *bytes* each strategy moves (`C_net` in
//! Eq. 4, `M_co · Byte_m / s_net` in Eq. 11) and the message/request
//! counts. This crate reproduces the network as a channel mesh
//! with full byte accounting:
//!
//! * [`packet`] — wire formats and their serialized sizes,
//! * [`wire`] — message-batch encodings: plain (push), concatenated and
//!   combined (b-pull), with per-batch savings statistics,
//! * [`combine`] — the `Combiner` abstraction (paper §4.2, Appendix E),
//! * [`flow`] — sending-threshold buffering (Appendix E's knob) of wire
//!   records,
//! * [`fabric`] — the worker-to-worker channel mesh and [`NetStats`],
//! * [`netfault`] — seeded drop/duplicate/delay schedules for the wire.
//!
//! Delivery is reliable and ordered per sender-receiver pair, matching
//! the TCP transport of the original system — but the wire underneath
//! may be lossy: a seeded [`NetFaultPlan`] drops, duplicates, and delays
//! data frames, and the endpoints mask it with sequence numbers,
//! cumulative acks, and timed retransmission (see [`fabric`]). Transport
//! overhead (retransmissions, duplicate drops, acks) is accounted apart
//! from logical traffic so the paper's byte counts stay exact. The
//! paper's receiver-paced one-outstanding-package flow control exists to
//! bound receive-buffer memory; this reproduction sizes buffers analytically
//! (Eqs. 5–6) and accounts package counts instead of blocking senders,
//! which preserves every byte and message count the figures report.

pub mod combine;
pub mod fabric;
pub mod flow;
pub mod netfault;
pub mod packet;
pub mod wire;

pub use combine::Combiner;
pub use fabric::{ControlPlane, Endpoint, Fabric, NetOverhead, NetSnapshot, NetStats};
pub use netfault::{LinkFault, NetFaultPlan};
pub use packet::Packet;
pub use wire::{decode_batch, encode_batch, BatchKind, WireStats};
