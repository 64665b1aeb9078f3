//! Block-centric pulling (paper §4, Algorithms 1–2).
//!
//! Superstep protocol per worker:
//!
//! 1. **Pull-Request** — broadcast `PullRequest{b}` for each local Vblock
//!    (two in flight when pre-pulling, §4.3).
//! 2. **Serve** — on receiving a request for block `i`, scan every local
//!    Eblock `g_{j,i}` whose metadata passes the `res` + bitmap check,
//!    read the svertex value for each *responding* fragment (random read),
//!    generate messages via `pullRes`, reply with message batches and an
//!    `EndOfResponses{i}` marker. Combinable messages fold by index into
//!    one slot per vertex of block `i` as they are produced (the sending
//!    buffer of Eq. 5, a [`FoldBuf`]), so the response is built without
//!    holding a message; others are collected and concatenated.
//! 3. **Update** — once all `T` peers have ended a block's responses,
//!    run `update()` for its message destinations; new values are staged
//!    and flushed only after every peer has finished the superstep, so
//!    concurrent serving always reads superstep-`t−1` values (BSP).
//! 4. A worker that has updated all its blocks broadcasts
//!    `SuperstepDone` but keeps serving until all peers have too.
//!
//! With `also_push` this executor is the b-pull → push switch superstep
//! (Fig. 6): after each block's `update()`, `pushRes()` immediately pushes
//! messages from the new values into the peers' receive/spill buffers.

use super::push::sink_payloads;
use super::{init_updates, send_batch, send_payloads, stage_response, staged_inbox};
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::Worker;
use hybridgraph_graph::{BlockId, VertexId, WorkerId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::{self, BatchKind};
use hybridgraph_storage::adjacency::EdgeScratch;
use hybridgraph_storage::inbox::{FoldBuf, Inbox};
use hybridgraph_storage::veblock::EblockScratch;
use hybridgraph_storage::{AccessClass, Record};
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::sync::Arc;

struct Inflight {
    block: BlockId,
    ends: usize,
    /// The response payloads as they arrived, per sending peer. Responses
    /// arrive in whatever order the fabric interleaves them; the inbox is
    /// built from the slots in worker order once the block completes.
    staged: Vec<Vec<Arc<[u8]>>>,
}

/// What the fused switch step adds to `update()`: push's sending buffers
/// and the scratch `pushRes()` reads out-edges into.
struct FusedPush<M: Record> {
    tbuf: ThresholdBuffer<M>,
    edges: EdgeScratch,
}

/// A response or end marker names a block this worker is not pulling:
/// nothing a live peer sends, but a message-log segment read back from
/// disk during confined recovery can say anything.
fn not_in_flight(block: BlockId) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("response for Vblock {} that is not in flight", block.0),
    )
}

/// Runs one b-pull superstep (`also_push` makes it the fused
/// b-pull → push switch superstep).
pub(crate) fn run_bpull_step<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    also_push: bool,
) -> io::Result<()> {
    if w.superstep == 1 {
        init_updates(w, rep)?;
        w.trace_phase("init");
        return Ok(());
    }
    let workers = w.cfg.workers;

    let mut pending: VecDeque<BlockId> = w.layout.blocks_of_worker(w.id).collect();
    // During a confined-recovery replay, survivors re-serve their logged
    // responses without flow control (the whole superstep's packets arrive
    // up front), so every block must already be in flight when they land.
    let pipeline = if w.ep.replaying() {
        pending.len().max(1)
    } else if w.batch_kind() == BatchKind::Combined && w.cfg.pre_pull {
        2
    } else {
        1
    };
    let mut inflight: Vec<Inflight> = Vec::new();
    let mut resp = std::mem::take(&mut w.responder);
    let mut fold = std::mem::take(&mut w.fold);
    let mut push = also_push.then(|| FusedPush {
        tbuf: ThresholdBuffer::new(workers, w.cfg.sending_threshold),
        edges: EdgeScratch::default(),
    });

    // `staged` is empty slots: fresh for the first `pipeline` blocks, then
    // those of the block that just completed.
    let issue = |w: &Worker<P>, b: BlockId, staged, inflight: &mut Vec<Inflight>| {
        w.ep.broadcast(Packet::PullRequest { block: b });
        inflight.push(Inflight {
            block: b,
            ends: 0,
            staged,
        });
    };
    for _ in 0..pipeline {
        if let Some(b) = pending.pop_front() {
            issue(w, b, vec![Vec::new(); workers], &mut inflight);
        }
    }
    w.trace_phase("Pull-Request");

    let mut my_done = false;
    let mut done_peers = 0usize;
    let mut push_inbound: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); workers];
    // Values staged for the last `pipeline` blocks to complete.
    let mut window: VecDeque<u64> = VecDeque::new();
    loop {
        if inflight.is_empty() && pending.is_empty() && !my_done {
            my_done = true;
            if let Some(push) = &mut push {
                let kind = w.push_kind();
                push.tbuf
                    .flush_all(|peer, records| send_batch(w, peer, kind, None, records));
            }
            w.ep.broadcast(Packet::SuperstepDone);
        }
        if my_done && done_peers == workers {
            break;
        }
        let env = w.recv_timed();
        match env.packet {
            Packet::PullRequest { block } => {
                serve_pull(w, env.from, block, &mut resp, &mut fold, rep)?
            }
            Packet::Messages {
                kind,
                payload,
                for_block: Some(b),
                ..
            } => {
                let fl = inflight.iter_mut().find(|f| f.block == b);
                let slot = &mut fl.ok_or_else(|| not_in_flight(b))?.staged[env.from.index()];
                stage_response(w, slot, kind, payload, &w.layout.block_range(b))?;
            }
            Packet::Messages {
                payload,
                for_block: None,
                ..
            } => {
                // Push messages arriving during the fused switch step:
                // staged per sender, sunk in worker-id order after the
                // loop so the spill file's content, and the staged-order
                // inbox next superstep, stay deterministic (see the push
                // executor's exchange phase).
                push_inbound[env.from.index()].push(payload);
            }
            Packet::EndOfResponses { block } => {
                let pos = inflight.iter().position(|f| f.block == block);
                let pos = pos.ok_or_else(|| not_in_flight(block))?;
                inflight[pos].ends += 1;
                if inflight[pos].ends == workers {
                    let mut staged = inflight.swap_remove(pos).staged;
                    let br = w.layout.block_range(block);
                    let (inbox, values) = staged_inbox(w, &mut fold, &staged, &br);
                    // Blocks complete in request order (FIFO links), so
                    // the footprint is taken from complete inboxes only:
                    // this block's beside the `pipeline − 1` before it —
                    // the double buffer at its fullest — never from what
                    // happens to have arrived of the block pre-pulled.
                    if window.len() == pipeline {
                        window.pop_front();
                    }
                    window.push_back(values);
                    let held = window.iter().sum::<u64>() * (4 + P::Message::BYTES as u64);
                    w.note_memory(held + w.standing_memory_bytes());
                    update_block(w, rep, block, &inbox, push.as_mut())?;
                    if let Some(nb) = pending.pop_front() {
                        staged.iter_mut().for_each(Vec::clear);
                        issue(w, nb, staged, &mut inflight);
                    }
                }
            }
            Packet::SuperstepDone => done_peers += 1,
            Packet::Abort => return Err(super::abort_error()),
            other => return Err(super::unexpected(&other, "b-pull step")),
        }
    }

    if also_push {
        sink_payloads(w, &push_inbound, false, rep)?;
    }

    w.responder = resp;
    w.fold = fold;
    w.trace_phase("Pull-Respond+update");
    w.flush_staged()?;
    w.trace_phase("flush");
    Ok(())
}

/// What Pull-Respond reuses from request to request (and the worker from
/// superstep to superstep): the buffers each Eblock is decoded into and,
/// for a concatenated response, the `dst | M` records of the response
/// being built. A combined response holds no message: each one folds into
/// the worker's [`FoldBuf`] as it is produced.
#[derive(Default)]
pub(crate) struct Responder {
    scan: EblockScratch,
    out: Vec<u8>,
}

/// Eblock `g_{j,i}` names vertex `v`, as `what`, outside `range`.
fn corrupt_eblock(
    j: BlockId,
    i: BlockId,
    what: &str,
    v: VertexId,
    range: &Range<u32>,
) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("Eblock g_{{{},{}}}: {what} {v} outside {range:?}", j.0, i.0),
    )
}

/// Pull-Respond (Algorithm 2): answers a request for Vblock `block`. A
/// combined response is each destination's left fold in production order,
/// folded by index over the Vblock's range as `pullRes()` produces it; a
/// concatenated one is the messages themselves, grouped when sent. An
/// Eblock whose svertex lies outside its block, or whose edge leaves the
/// requested Vblock, is `InvalidData`; so is a request for a Vblock the
/// layout does not have, which a message-log segment read back in confined
/// recovery could hold.
fn serve_pull<P: VertexProgram>(
    w: &Worker<P>,
    from: WorkerId,
    block: BlockId,
    resp: &mut Responder,
    fold: &mut FoldBuf<P::Message>,
    rep: &mut StepReport,
) -> io::Result<()> {
    if block.index() >= w.layout.num_blocks() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("pull request for Vblock {}, not in the layout", block.0),
        ));
    }
    let ve = w
        .veblock
        .as_ref()
        .expect("b-pull requires the VE-BLOCK store");
    let program = Arc::clone(&w.program);
    let kind = w.batch_kind();
    let combiner = program.combiner().filter(|_| kind == BatchKind::Combined);
    let dsts = w.layout.block_range(block);
    fold.reset(dsts.clone());
    resp.out.clear();
    let produced = rep.messages_produced;
    for (jidx, j) in w.layout.blocks_of_worker(w.id).enumerate() {
        // X_j.res and bitmap short-circuit: skip blocks with no responders
        // or no edges into the requested block.
        if !w.respond.block_has(jidx) || !ve.meta(j).has_edges_to(block) {
            continue;
        }
        ve.scan_eblock_into(j, block, &mut resp.scan)?;
        let frags = resp.scan.fragments();
        // Physical stored bytes (== logical without a codec), split
        // proportionally into edge and fragment-auxiliary shares.
        let (stored_edge, stored_aux) = ve.eblock_info(j, block).stored_split(frags.len());
        rep.sem.bpull_edge_bytes += stored_edge;
        rep.sem.fragment_aux_bytes += stored_aux;
        let srcs = w.layout.block_range(j);
        for (src, edges) in frags {
            if !srcs.contains(&src.0) {
                return Err(corrupt_eblock(j, block, "svertex", src, &srcs));
            }
            let local = w.local(src);
            if !w.respond.responds(local) {
                continue;
            }
            let val = w.values.read_one(src)?;
            rep.sem.svertex_rand_bytes += P::Value::BYTES as u64;
            let outd = w.out_degrees[local];
            for e in edges {
                if !dsts.contains(&e.dst.0) {
                    return Err(corrupt_eblock(j, block, "edge to", e.dst, &dsts));
                }
                if let Some(m) = program.message(src, &val, outd, &e) {
                    rep.messages_produced += 1;
                    match combiner {
                        Some(c) => fold.add(e.dst.0, m, |a, b| c.combine(a, b)),
                        None => (e.dst, m).append_to(&mut resp.out),
                    }
                }
            }
        }
    }
    if combiner.is_some() {
        let raw = (rep.messages_produced - produced) as usize;
        send_payloads(
            w,
            from,
            kind,
            Some(block),
            wire::combined_payload(fold, raw),
        );
    } else {
        send_batch(w, from, kind, Some(block), &resp.out);
    }
    w.ep.send(from, Packet::EndOfResponses { block });
    Ok(())
}

/// Pull-Request's update half (Algorithm 1 lines 7–9), plus the fused
/// `pushRes` when switching to push.
fn update_block<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    block: BlockId,
    inbox: &Inbox<P::Message>,
    mut push: Option<&mut FusedPush<P::Message>>,
) -> io::Result<()> {
    if inbox.is_empty() {
        return Ok(());
    }
    let br = w.layout.block_range(block);
    let vals = w.values.read_range(br.clone())?;
    w.note_value_preimage(br.start, &vals);
    rep.sem.value_update_bytes += vals.len() as u64 * P::Value::BYTES as u64;
    // Staging checked every destination against the block's range.
    for (vg, msgs) in inbox.iter() {
        let v = VertexId(vg);
        let upd = w.update_vertex(v, &vals[(vg - br.start) as usize], msgs, rep);
        if let (true, Some(push)) = (upd.respond, &mut push) {
            let adj = w
                .adjacency
                .as_ref()
                .expect("hybrid keeps the adjacency store");
            let edges = adj.read_edges(v, AccessClass::SeqRead, &mut push.edges)?;
            rep.sem.push_edge_bytes += adj.stored_bytes_of(v);
            w.push_res(v, &upd.value, edges, |_| true, &mut push.tbuf, rep);
        }
        // Staged: flushed after every peer stops reading this superstep.
        w.staged.push((vg, upd.value));
        rep.sem.value_update_bytes += P::Value::BYTES as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{worker, Sum};
    use super::*;
    use crate::config::{JobConfig, Mode};
    use crate::metrics::StepKind;
    use crate::runner::control::run_step_kind;
    use hybridgraph_net::wire::encode_batch;

    /// Worker 1 of 2 of a b-pull job (Vblocks 2 = 20..30 and 3 = 30..40),
    /// responses combined or — with `combining` off — concatenated.
    fn bpull_worker(combining: bool) -> (Worker<Sum>, hybridgraph_net::Endpoint) {
        let mut cfg = JobConfig::new(Mode::BPull, 2);
        cfg.combining = combining;
        worker(cfg)
    }

    fn payload(w: &Worker<Sum>, msgs: &[(u32, f64)]) -> Arc<[u8]> {
        let mut msgs: Vec<(VertexId, f64)> = msgs.iter().map(|&(d, m)| (VertexId(d), m)).collect();
        encode_batch(
            w.batch_kind(),
            &mut msgs,
            w.program.combiner().filter(|_| w.cfg.combining),
        )
        .0
        .into()
    }

    /// Stages `batches` as `(sender, messages)` in the order given — the
    /// arrival order — and builds the inbox.
    fn staged(w: &Worker<Sum>, batches: &[(usize, &[(u32, f64)])]) -> (Inbox<f64>, u64) {
        let mut slots = vec![Vec::new(); 2];
        for &(from, msgs) in batches {
            stage_response(
                w,
                &mut slots[from],
                w.batch_kind(),
                payload(w, msgs),
                &(20..30),
            )
            .expect("well-formed response");
        }
        staged_inbox(w, &mut FoldBuf::default(), &slots, &(20..30))
    }

    #[test]
    fn combined_responses_fold_per_sender_then_in_worker_order() {
        let (w, _peer) = bpull_worker(true);
        // Worker 0 ships two batches; worker 1's lands between them.
        let (inbox, values) = staged(
            &w,
            &[
                (0, &[(25, 1e16), (26, 1.0)]),
                (1, &[(25, -1e16), (26, 3.0)]),
                (0, &[(25, 1.0), (27, 2.0)]),
            ],
        );
        // (1e16 + 1.0) + -1e16, not (1e16 + -1e16) + 1.0: one combined
        // value per destination, whatever the arrival order.
        let groups: Vec<(u32, &[f64])> = inbox.iter().collect();
        assert_eq!(groups, [(25, &[0.0][..]), (26, &[4.0]), (27, &[2.0])]);
        // Worker 0's two batches were folded into three distinct values.
        assert_eq!(values, 3 + 2);
    }

    #[test]
    fn concatenated_responses_keep_sender_then_send_order() {
        let (w, _peer) = bpull_worker(false);
        let (inbox, values) = staged(
            &w,
            &[
                (1, &[(25, 7.0), (24, 5.0)]),
                (0, &[(25, 1.0)]),
                (0, &[(25, 2.0), (24, 3.0)]),
            ],
        );
        let groups: Vec<(u32, &[f64])> = inbox.iter().collect();
        assert_eq!(groups, [(24, &[3.0, 5.0][..]), (25, &[1.0, 2.0, 7.0])]);
        assert_eq!(values, 5);
    }

    #[test]
    fn malformed_responses_are_invalid_data_and_stage_nothing() {
        for combining in [true, false] {
            let (w, _peer) = bpull_worker(combining);
            let kind = w.batch_kind();
            let good = payload(&w, &[(25, 1.0), (29, 2.0)]);
            let mut slot = Vec::new();
            let mut rejected = |kind, payload: Arc<[u8]>, dsts: std::ops::Range<u32>| {
                let err = stage_response(&w, &mut slot, kind, payload, &dsts).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?} {dsts:?}");
                assert!(slot.is_empty(), "nothing of a rejected payload is staged");
            };
            // Vertex 29 is not in 20..29, vertex 25 not in 26..30; the
            // other Vblock and the other worker are not the one answered.
            for dsts in [20..29, 26..30, 30..40, 0..20] {
                rejected(kind, Arc::clone(&good), dsts);
            }
            // One byte short of a whole record or group.
            rejected(kind, good[..good.len() - 1].into(), 20..30);
            // An encoding this job's responders do not use.
            for other in [
                BatchKind::Plain,
                BatchKind::Combined,
                BatchKind::Concatenated,
            ] {
                if other != kind {
                    rejected(other, Arc::clone(&good), 20..30);
                }
            }
        }
        // A concatenated group that claims more values than were sent.
        let (w, _peer) = bpull_worker(false);
        let mut overrun = payload(&w, &[(25, 1.0), (25, 2.0)]).to_vec();
        overrun[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = stage_response(
            &w,
            &mut Vec::new(),
            BatchKind::Concatenated,
            overrun.into(),
            &(20..30),
        );
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_corrupt_eblock_fails_the_step_and_never_panics() {
        // Raw extents carry ids as plain u32s: flip the high bit of Eblock
        // g_{2,2}'s first svertex (byte 3), or of its first edge's `dst`
        // (byte 11). Serving this worker's own request for Vblock 2 reads it.
        for (combining, byte) in [(true, 3), (false, 3), (true, 11), (false, 11)] {
            let (mut w, _peer) = bpull_worker(combining);
            for local in 0..20 {
                w.respond.set_next(local, true);
            }
            w.respond.advance();
            let ve = w.veblock.as_ref().expect("b-pull builds VE-BLOCK");
            let at = ve.eblock_info(BlockId(2), BlockId(2)).offset + byte;
            let file = w.vfs.open("eblk_2").expect("Eblock file");
            let mut b = [0u8];
            file.read_at(AccessClass::RandRead, at, &mut b).unwrap();
            file.write_at(AccessClass::RandWrite, at, &[b[0] ^ 0x80])
                .unwrap();
            let err = run_step_kind(&mut w, StepKind::BPull, 2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{combining} {byte}");
        }
    }

    #[test]
    fn packets_about_a_block_not_in_flight_fail_the_superstep() {
        // Vblock 0 is worker 0's: worker 1 never pulls it. Vblock 2 is
        // in flight, but vertex 35 lies in Vblock 3.
        let stray = |w: &Worker<Sum>, block: u32, dst: u32| Packet::Messages {
            kind: w.batch_kind(),
            payload: payload(w, &[(dst, 1.0)]),
            stats: Default::default(),
            for_block: Some(BlockId(block)),
        };
        for case in 0..3 {
            let (mut w, peer) = bpull_worker(true);
            let packet = match case {
                0 => Packet::EndOfResponses { block: BlockId(0) },
                1 => stray(&w, 0, 5),
                _ => stray(&w, 2, 35),
            };
            peer.send(WorkerId(1), packet);
            let err = run_step_kind(&mut w, StepKind::BPull, 2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {case}");
        }
        // A stray end marker per executor, or an id no peer would send —
        // as a message log read back in confined recovery could hold: an
        // error too, not a panic. Worker 1 owns vertices 20..40 and
        // Vblocks 2 and 3 of the layout's 4; the peer, worker 0, requests
        // gathers for its own 0..20 only. Past a stray id the peer ends
        // its part of the superstep, so a step that lets it through
        // returns instead of waiting.
        let ids = |ids: &[u32]| -> Arc<[u8]> { ids.iter().flat_map(|v| v.to_le_bytes()).collect() };
        // A whole id, then one byte of the next.
        let ragged = |id: u32| -> Arc<[u8]> { [&id.to_le_bytes()[..], &[0]].concat().into() };
        let signals = |ids| vec![Packet::Signals { ids }, Packet::SuperstepDone];
        let gather = |ids| {
            vec![
                Packet::GatherRequests { ids },
                Packet::DoneRequesting,
                Packet::EndOfGather,
                Packet::SuperstepDone,
            ]
        };
        let end = Packet::EndOfResponses { block: BlockId(2) };
        let request = Packet::PullRequest { block: BlockId(99) };
        let strays = [
            (StepKind::BPull, 2, vec![Packet::DoneSending]),
            (StepKind::Push, 2, vec![Packet::EndOfGather]),
            (StepKind::Pull, 1, vec![Packet::DoneSending]),
            (StepKind::Pull, 2, vec![end]),
            (StepKind::BPull, 2, vec![request]),
            (StepKind::Pull, 1, signals(ids(&[5]))),
            (StepKind::Pull, 1, signals(ids(&[25, 41]))),
            (StepKind::Pull, 1, signals(ragged(25))),
            (StepKind::Pull, 2, gather(ids(&[5, 25]))),
            (StepKind::Pull, 2, gather(ids(&[41]))),
            (StepKind::Pull, 2, gather(ragged(5))),
        ];
        for (kind, superstep, packets) in strays {
            let (mut w, peer) = worker(JobConfig::new(kind.mode(), 2));
            for packet in &packets {
                peer.send(WorkerId(1), packet.clone());
            }
            let err = run_step_kind(&mut w, kind, superstep).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{kind:?} {packets:?}"
            );
        }
    }
}
