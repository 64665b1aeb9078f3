//! Push-based supersteps: Giraph-style `push` and MOCgraph-style `pushM`.
//!
//! One superstep is `load()` (drain the messages received last superstep,
//! reading back any spilled to disk), `update()` per active vertex (block
//! by block, with the vertex's adjacency run read for every computed
//! vertex — the paper's `IO(Ē^t)` follows the *active* set), `pushRes()`
//! for responders (plain-encoded batches flushed at the sending
//! threshold), then an exchange phase that sinks incoming batches into
//! the receive buffer, spilling past `B_i`.
//!
//! `pushM` differs only at the receiver: messages for hot (memory-
//! resident, high-in-degree) vertices are combined online into an
//! accumulator and never touch disk; cold messages spill as in push.
//!
//! With `send = false` this executor is the push half of the
//! push → b-pull switch superstep (Fig. 6): `load()` + `update()` only,
//! leaving the responding flags for `pullRes()` to pick up next superstep.

use super::send_batch;
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::{OutEdges, Worker};
use hybridgraph_graph::VertexId;
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::{check_batch, BatchKind};
use hybridgraph_storage::inbox::Inbox;
use hybridgraph_storage::{AccessClass, Record};
use std::io;
use std::sync::Arc;

/// Runs one push-family superstep.
///
/// * `send` — run `pushRes()` (false for the push → b-pull switch step).
/// * `online` — MOCgraph message online computing (requires a combiner).
pub(crate) fn run_push_step<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    send: bool,
    online: bool,
) -> io::Result<()> {
    let work = load_inbox(w, rep)?;
    w.trace_phase("load");

    // update() + pushRes(), block by block. Nothing the compute phase
    // does changes the standing footprint: the receive store fills in
    // the exchange phase.
    let standing = w.standing_memory_bytes();
    let mut tbuf: ThresholdBuffer<P::Message> =
        ThresholdBuffer::new(w.cfg.workers, w.cfg.sending_threshold);
    let mut edges = OutEdges::default();
    let mut br = 0..0u32;
    let mut vals: Vec<P::Value> = Vec::new();
    for (vg, msgs) in work.iter() {
        let v = VertexId(vg);
        if vg >= br.end {
            if !br.is_empty() {
                rep.sem.value_update_bytes += vals.len() as u64 * P::Value::BYTES as u64;
                w.values.write_range(br, &vals)?;
            }
            br = w.layout.block_range(w.layout.block_of(v));
            vals = w.values.read_range(br.clone())?;
            w.note_value_preimage(br.start, &vals);
            rep.sem.value_update_bytes += vals.len() as u64 * P::Value::BYTES as u64;
        }
        let idx = (vg - br.start) as usize;
        let upd = w.update_vertex(v, &vals[idx], msgs, rep);
        if send {
            // The vertex object is loaded with its edges for every
            // computed vertex (Giraph), whether or not it responds. The
            // read goes through the cross-job shared cache when the job
            // has one; a miss charges the physical bytes (== logical
            // without a codec) to `IO(Ē^t)`, a hit charges nothing.
            let out = w.read_out_edges(v, AccessClass::SeqRead, rep, &mut edges)?;
            if upd.respond {
                w.push_res(v, &upd.value, out, |_| true, &mut tbuf, rep);
            }
        }
        vals[idx] = upd.value;
        let mem = tbuf.memory_bytes() + (br.len() * P::Value::BYTES) as u64;
        w.note_memory(mem + standing);
    }
    if !br.is_empty() {
        rep.sem.value_update_bytes += vals.len() as u64 * P::Value::BYTES as u64;
        w.values.write_range(br, &vals)?;
    }
    w.trace_phase(if send { "compute+pushRes" } else { "compute" });

    if send {
        exchange(w, tbuf, online, rep)?;
        w.trace_phase("exchange");
    }
    Ok(())
}

/// The exchange phase of a push or async superstep: flushes the sending
/// buffers, announces the end of this worker's sends, and receives until
/// every peer has done the same.
///
/// Batches are staged per sender — as the payloads they arrived in — and
/// sunk in worker-id order afterwards: arrival interleaving across
/// senders is scheduling-dependent, and sinking in slot order makes the
/// spill file's *content* (not just its byte count) a pure function of
/// the superstep — coded spill frames compress to the same bytes run to
/// run, and `load()`'s staged-order inbox, with the float sums over it,
/// repeats bit for bit: the spill-side twin of the pull family's
/// `staged_inbox`.
pub(crate) fn exchange<P: VertexProgram>(
    w: &mut Worker<P>,
    mut tbuf: ThresholdBuffer<P::Message>,
    online: bool,
    rep: &mut StepReport,
) -> io::Result<()> {
    let workers = w.cfg.workers;
    for (peer, batch) in tbuf.flush_all() {
        send_batch(w, peer, w.push_kind(), None, &batch);
    }
    w.ep.broadcast(Packet::DoneSending);
    let mut inbound: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); workers];
    let mut done = 0usize;
    while done < workers {
        let env = w.recv_timed();
        match env.packet {
            Packet::Messages { kind, payload, .. } => {
                debug_assert_ne!(kind, BatchKind::Concatenated, "push never concatenates");
                inbound[env.from.index()].push(payload);
            }
            Packet::DoneSending => done += 1,
            Packet::Abort => return Err(super::abort_error()),
            other => return Err(super::unexpected(&other, "push exchange")),
        }
    }
    sink_payloads(w, &inbound, online, rep)
}

/// Sinks staged plain payloads, sender by sender, into the receive
/// store. A payload's records are the store's own format, so after one
/// validating pass each payload goes in as a single run: resident up to
/// `B_i`, spilled past it. In pushM (`online`) records for hot vertices
/// are combined into their accumulators instead and only the cold rest
/// of each payload is sunk.
pub(crate) fn sink_payloads<P: VertexProgram>(
    w: &mut Worker<P>,
    inbound: &[Vec<Arc<[u8]>>],
    online: bool,
    rep: &mut StepReport,
) -> io::Result<()> {
    let program = Arc::clone(&w.program);
    let base = w.range.start;
    let spill = w.spill.as_mut().expect("push needs a spill buffer");
    let spill_before = spill.spilled_bytes();
    let mut cold: Vec<u8> = Vec::new();
    for payload in inbound.iter().flatten() {
        check_batch::<P::Message>(BatchKind::Plain, payload, &w.range)?;
        if !online {
            spill.push_encoded(payload)?;
            continue;
        }
        let combiner = program
            .combiner()
            .expect("pushM requires a combiner (message online computing)");
        let hot = w.hotset.as_mut().expect("pushM requires the hot set");
        cold.clear();
        for record in payload.chunks_exact(4 + P::Message::BYTES) {
            let dst = u32::read_from(&record[..4]);
            if hot.hot.get((dst - base) as usize) {
                let m = P::Message::read_from(&record[4..]);
                hot.acc.add(dst, m, |a, b| combiner.combine(a, b));
            } else {
                cold.extend_from_slice(record);
            }
        }
        spill.push_encoded(&cold)?;
    }
    rep.sem.msg_spill_bytes += spill.spilled_bytes() - spill_before;
    Ok(())
}

/// `load()`: the superstep's input — last superstep's messages (hot
/// accumulators + receive store) grouped by destination, or in superstep
/// 1 every initially-active vertex with no messages.
pub(crate) fn load_inbox<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
) -> io::Result<Inbox<P::Message>> {
    if w.superstep == 1 {
        let mut inbox = Inbox::new();
        for v in w.range.clone() {
            if w.program.initially_active(VertexId(v), &w.info) {
                inbox.extend(v, []);
            }
        }
        return Ok(inbox);
    }
    // Online accumulators never entered the receive store; they join
    // after its records, so a hot vertex's accumulator follows anything
    // buffered for it.
    let mut hot: Vec<u8> = Vec::new();
    if let Some(h) = w.hotset.as_mut() {
        h.acc.drain_records(&mut hot);
    }
    let spill = w.spill.as_mut().expect("push needs a spill buffer");
    let inbox = spill.drain_with(&hot)?;
    rep.delivered_raw = inbox.messages() as u64;
    rep.delivered_distinct = inbox.destinations() as u64;
    Ok(inbox)
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{worker, Sum};
    use super::*;
    use crate::config::{JobConfig, Mode};
    use hybridgraph_storage::record::encode_slice;

    /// Worker 1 of 2 (vertices 20..40) of a pushM job whose hot set holds
    /// 4 vertices and whose receive buffer holds 4 messages.
    fn pushm_worker() -> Worker<Sum> {
        worker(JobConfig::new(Mode::PushM, 2).with_buffer(4)).0
    }

    fn payload(msgs: &[(u32, f64)]) -> Vec<Vec<Arc<[u8]>>> {
        let records: Vec<(VertexId, f64)> = msgs.iter().map(|&(d, m)| (VertexId(d), m)).collect();
        vec![vec![encode_slice(&records).into()], Vec::new()]
    }

    #[test]
    fn sunk_payloads_come_back_grouped_hot_and_cold() {
        let mut w = pushm_worker();
        let hot: Vec<u32> = (20..40)
            .filter(|v| w.hotset.as_ref().unwrap().hot.get((v - 20) as usize))
            .collect();
        let cold: Vec<u32> = (20..40).filter(|v| !hot.contains(v)).collect();
        assert_eq!(hot.len(), 4);
        let mut msgs = Vec::new();
        for round in 0..3 {
            for &v in hot.iter().chain(&cold[..6]) {
                msgs.push((v, f64::from(round) - 0.5));
            }
        }
        let mut rep = StepReport::default();
        w.superstep = 2;
        for online in [false, true] {
            sink_payloads(&mut w, &payload(&msgs), online, &mut rep).unwrap();
            let pending = w.spill.as_ref().unwrap().total();
            assert_eq!(pending, if online { 18 } else { 30 });
            let inbox = load_inbox(&mut w, &mut rep).unwrap();
            assert_eq!(rep.delivered_distinct, 10);
            assert_eq!(rep.delivered_raw, if online { 18 + 4 } else { 30 });
            for (v, got) in inbox.iter() {
                let want: &[f64] = if online && hot.contains(&v) {
                    &[1.5] // -0.5 + 0.5 + 1.5, combined on arrival
                } else {
                    &[-0.5, 0.5, 1.5]
                };
                // Staged order: the rounds as they were sent.
                assert_eq!(got, want, "vertex {v} online {online}");
            }
        }
        assert!(rep.sem.msg_spill_bytes > 0);
    }

    #[test]
    fn malformed_payloads_are_invalid_data_not_panics() {
        let mut w = pushm_worker();
        let mut rep = StepReport::default();
        // Vertex 19 lives on worker 0; vertex 40 does not exist.
        for stray in [19, 40, u32::MAX] {
            for online in [false, true] {
                let err = sink_payloads(
                    &mut w,
                    &payload(&[(25, 1.0), (stray, 2.0)]),
                    online,
                    &mut rep,
                )
                .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{stray}/{online}");
            }
        }
        // One byte short of two records.
        let mut short = payload(&[(25, 1.0), (26, 2.0)]);
        short[0][0] = short[0][0][..23].into();
        let err = sink_payloads(&mut w, &short, false, &mut rep).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Nothing of a rejected payload was sunk.
        assert_eq!(w.spill.as_ref().unwrap().total(), 0);
        assert_eq!(w.hotset.as_ref().unwrap().acc.groups(), 0);
    }
}
