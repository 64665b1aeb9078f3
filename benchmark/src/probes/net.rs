//! Probes of `net`: wire batch encoding and decoding, and the in-process
//! fabric with its reliable-delivery layer on and no faults injected.

use super::storage::edge_messages;
use super::ProbeCtx;
use hybridgraph::graph::WorkerId;
use hybridgraph::net::combine::SumCombiner;
use hybridgraph::net::{decode_batch, encode_batch, BatchKind, Endpoint, Fabric, Packet};

/// Messages per encoded batch.
const BATCH_MESSAGES: usize = 200_000;
/// Packets per timed one-way burst, and round trips per timed ping-pong.
const BURST_PACKETS: usize = 20_000;
const ROUND_TRIPS: usize = 2_000;
/// The sender lets the endpoint process acks this often; without it the
/// unacknowledged window would grow with the burst.
const SERVICE_EVERY: usize = 64;

pub fn run(ctx: &mut ProbeCtx<'_>) {
    ctx.span("net.wire", wire);
    ctx.span("net.fabric", fabric);
}

fn wire(ctx: &mut ProbeCtx<'_>) {
    let msgs = edge_messages(ctx.graph, BATCH_MESSAGES);
    let mmsgs = msgs.len() as f64 / 1e6;
    // `encode_batch` sorts in place, so every call gets its own copy.
    let secs = ctx.sample_with(
        || msgs.clone(),
        |mut m| {
            std::hint::black_box(encode_batch(BatchKind::Plain, &mut m, None));
        },
    );
    ctx.rate("net.encode_plain_mmsg_s", mmsgs, &secs);
    let secs = ctx.sample_with(
        || msgs.clone(),
        |mut m| {
            std::hint::black_box(encode_batch(
                BatchKind::Combined,
                &mut m,
                Some(&SumCombiner),
            ));
        },
    );
    ctx.rate("net.encode_combined_mmsg_s", mmsgs, &secs);
    let (bytes, _) = encode_batch(BatchKind::Plain, &mut msgs.clone(), None);
    let secs = ctx.sample(|| {
        std::hint::black_box(decode_batch::<f64>(BatchKind::Plain, &bytes));
    });
    ctx.rate("net.decode_mmsg_s", mmsgs, &secs);
}

/// Two endpoints of a mesh, one thread each. `DoneSending` is the
/// smallest data packet, so these are per-packet costs, not bandwidth.
fn fabric(ctx: &mut ProbeCtx<'_>) {
    let (mut endpoints, _stats) = Fabric::mesh(2);
    let b = endpoints.pop().expect("two endpoints");
    let a = endpoints.pop().expect("two endpoints");
    let (a_id, b_id) = (a.id(), b.id());
    let (mut burst_secs, mut rtt_secs) = (Vec::new(), Vec::new());
    // The peer cannot know how many rounds the time budget allows, so
    // each round opens with a packet that names its kind.
    std::thread::scope(|s| {
        s.spawn(move || peer(&b, a_id));
        burst_secs = ctx.sample(|| {
            a.send(b_id, Packet::SuperstepDone);
            for i in 0..BURST_PACKETS {
                a.send(b_id, Packet::DoneSending);
                if i % SERVICE_EVERY == 0 {
                    a.service();
                }
            }
            a.recv();
        });
        rtt_secs = ctx.sample(|| {
            a.send(b_id, Packet::DoneRequesting);
            for _ in 0..ROUND_TRIPS {
                a.send(b_id, Packet::DoneSending);
                a.recv();
            }
        });
        a.send(b_id, Packet::EndOfGather);
    });
    ctx.rate("net.fabric_msgs_s", BURST_PACKETS as f64, &burst_secs);
    ctx.latency("net.fabric_rtt_us", 1e6, ROUND_TRIPS as f64, &rtt_secs);
}

/// The far end of [`fabric`]: `SuperstepDone` announces a burst to
/// swallow and acknowledge once, `DoneRequesting` a ping-pong to echo,
/// `EndOfGather` the end.
fn peer(me: &Endpoint, driver: WorkerId) {
    loop {
        match me.recv().packet {
            Packet::SuperstepDone => {
                for _ in 0..BURST_PACKETS {
                    me.recv();
                }
                me.send(driver, Packet::DoneSending);
            }
            Packet::DoneRequesting => {
                for _ in 0..ROUND_TRIPS {
                    me.recv();
                    me.send(driver, Packet::DoneSending);
                }
            }
            Packet::EndOfGather => return,
            other => panic!("fabric probe peer got {other:?}"),
        }
    }
}
