//! Block-centric pulling (paper §4, Algorithms 1–2).
//!
//! Superstep protocol per worker:
//!
//! 1. **Pull-Request** — broadcast `PullRequest{b}` for each local Vblock
//!    (two in flight when pre-pulling, §4.3).
//! 2. **Serve** — on receiving a request for block `i`, scan every local
//!    Eblock `g_{j,i}` whose metadata passes the `res` + bitmap check,
//!    read the svertex value for each *responding* fragment (random read),
//!    generate messages via `pullRes`, concatenate/combine, reply with
//!    message batches and an `EndOfResponses{i}` marker.
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
use super::{run_init_step, send_plain};
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::{MsgAccumulator, Worker};
use hybridgraph_graph::{BlockId, VertexId, WorkerId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_net::wire::{decode_batch, encode_batch, BatchKind};
use hybridgraph_storage::{AccessClass, Record};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Instant;

struct Inflight<M> {
    block: BlockId,
    ends: usize,
    /// One accumulator per sending peer. Responses arrive in whatever
    /// order the fabric interleaves them; keeping per-sender partials and
    /// merging them in worker order at completion makes non-commutative
    /// float combining bit-identical run to run (and across a recovery
    /// replay).
    inboxes: Vec<MsgAccumulator<M>>,
}

/// Runs one b-pull superstep (`also_push` makes it the fused
/// b-pull → push switch superstep).
pub fn run_bpull_step<P: VertexProgram>(
    w: &mut Worker<P>,
    superstep: u64,
    also_push: bool,
) -> io::Result<StepReport> {
    let t0 = Instant::now();
    w.begin_superstep(superstep);
    if superstep == 1 {
        return run_init_step(w);
    }
    let mut rep = StepReport::default();
    let mut blocking = 0.0;
    let workers = w.cfg.workers;
    let combinable = w.combinable();

    let mut pending: VecDeque<BlockId> = w.layout.blocks_of_worker(w.id).collect();
    // During a confined-recovery replay, survivors re-serve their logged
    // responses without flow control (the whole superstep's packets arrive
    // up front), so every block must already be in flight when they land.
    let pipeline = if w.replay {
        pending.len().max(1)
    } else if combinable && w.cfg.pre_pull {
        2
    } else {
        1
    };
    let mut inflight: Vec<Inflight<P::Message>> = Vec::new();
    let mut tbuf: ThresholdBuffer<P::Message> =
        ThresholdBuffer::new(workers, w.cfg.sending_threshold);

    let issue = |w: &Worker<P>, b: BlockId, inflight: &mut Vec<Inflight<P::Message>>| {
        for p in 0..workers {
            w.ep.send(WorkerId::from(p), Packet::PullRequest { block: b });
        }
        inflight.push(Inflight {
            block: b,
            ends: 0,
            inboxes: (0..workers)
                .map(|_| MsgAccumulator::new(combinable))
                .collect(),
        });
    };
    for _ in 0..pipeline {
        if let Some(b) = pending.pop_front() {
            issue(w, b, &mut inflight);
        }
    }
    w.trace_phase("Pull-Request");

    let mut my_done = false;
    let mut done_peers = 0usize;
    let mut push_inbound: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); workers];
    loop {
        if inflight.is_empty() && pending.is_empty() && !my_done {
            my_done = true;
            if also_push {
                for (peer, batch) in tbuf.flush_all() {
                    send_plain(w, peer, batch);
                }
            }
            for p in 0..workers {
                w.ep.send(WorkerId::from(p), Packet::SuperstepDone);
            }
        }
        if my_done && done_peers == workers {
            break;
        }
        let env = w.recv_timed(&mut blocking);
        match env.packet {
            Packet::PullRequest { block } => serve_pull(w, env.from, block, &mut rep)?,
            Packet::Messages {
                kind,
                payload,
                for_block: Some(b),
                ..
            } => {
                let pairs = decode_batch::<P::Message>(kind, &payload);
                let program = Arc::clone(&w.program);
                let fl = inflight
                    .iter_mut()
                    .find(|f| f.block == b)
                    .expect("response for a block not in flight");
                fl.inboxes[env.from.index()].accept(pairs, program.combiner());
            }
            Packet::Messages {
                payload,
                for_block: None,
                ..
            } => {
                // Push messages arriving during the fused switch step:
                // staged per sender, sunk in worker-id order after the
                // loop so the spill file's content stays deterministic
                // (see the push executor's exchange phase).
                push_inbound[env.from.index()].push(payload);
            }
            Packet::EndOfResponses { block } => {
                let pos = inflight
                    .iter()
                    .position(|f| f.block == block)
                    .expect("end-of-responses for a block not in flight");
                inflight[pos].ends += 1;
                if inflight[pos].ends == workers {
                    let fl = inflight.swap_remove(pos);
                    let inbox_mem = |f: &Inflight<P::Message>| -> u64 {
                        f.inboxes.iter().map(|i| i.memory_bytes()).sum()
                    };
                    let mem: u64 = inflight.iter().map(inbox_mem).sum::<u64>() + inbox_mem(&fl);
                    w.note_memory(mem + w.standing_memory_bytes());
                    let program = Arc::clone(&w.program);
                    let inbox = MsgAccumulator::merge_in_order(fl.inboxes, program.combiner());
                    update_block(
                        w, &mut rep, superstep, fl.block, inbox, also_push, &mut tbuf,
                    )?;
                    if let Some(nb) = pending.pop_front() {
                        issue(w, nb, &mut inflight);
                    }
                }
            }
            Packet::SuperstepDone => done_peers += 1,
            Packet::Abort => return Err(super::abort_error()),
            other => unreachable!("unexpected packet in b-pull step: {other:?}"),
        }
    }

    if also_push {
        sink_payloads(w, &push_inbound, false, &mut rep)?;
    }

    w.trace_phase("Pull-Respond+update");
    w.flush_staged()?;
    w.trace_phase("flush");
    w.finish_superstep(&mut rep);
    rep.wall_secs = t0.elapsed().as_secs_f64();
    rep.blocking_secs = blocking;
    Ok(rep)
}

/// Pull-Respond (Algorithm 2): answers a request for Vblock `block`.
fn serve_pull<P: VertexProgram>(
    w: &Worker<P>,
    from: WorkerId,
    block: BlockId,
    rep: &mut StepReport,
) -> io::Result<()> {
    let ve = w
        .veblock
        .as_ref()
        .expect("b-pull requires the VE-BLOCK store");
    let program = Arc::clone(&w.program);
    let mut out: Vec<(VertexId, P::Message)> = Vec::new();
    for (jidx, j) in w.layout.blocks_of_worker(w.id).enumerate() {
        // X_j.res and bitmap short-circuit: skip blocks with no responders
        // or no edges into the requested block.
        if !w.block_res[jidx] || !ve.meta(j).has_edges_to(block) {
            continue;
        }
        let frags = ve.scan_eblock(j, block)?;
        // Physical stored bytes (== logical without a codec), split
        // proportionally into edge and fragment-auxiliary shares.
        let (stored_edge, stored_aux) = ve.eblock_info(j, block).stored_split(frags.len());
        rep.sem.bpull_edge_bytes += stored_edge;
        rep.sem.fragment_aux_bytes += stored_aux;
        for frag in frags {
            let local = w.local(frag.src);
            if !w.respond.get(local) {
                continue;
            }
            let val = w.values.read_one(frag.src)?;
            rep.sem.svertex_rand_bytes += P::Value::BYTES as u64;
            let outd = w.out_degrees[local];
            for e in &frag.edges {
                if let Some(m) = program.message(frag.src, &val, outd, e) {
                    rep.messages_produced += 1;
                    out.push((e.dst, m));
                }
            }
        }
    }
    send_response(w, from, block, out);
    w.ep.send(from, Packet::EndOfResponses { block });
    Ok(())
}

/// Sends a block's response, concatenated or fully combined.
///
/// Combined responses are buffered whole before sending ("messages in a
/// sub-buffer will not be sent until all messages are produced", §4.3);
/// concatenate-only responses flush in sending-threshold chunks.
fn send_response<P: VertexProgram>(
    w: &Worker<P>,
    to: WorkerId,
    block: BlockId,
    mut out: Vec<(VertexId, P::Message)>,
) {
    if out.is_empty() {
        return;
    }
    let kind = w.batch_kind();
    match kind {
        BatchKind::Combined => {
            let (payload, stats) = encode_batch(kind, &mut out, w.program.combiner());
            w.ep.send(
                to,
                Packet::Messages {
                    kind,
                    payload: payload.into(),
                    stats,
                    for_block: Some(block),
                },
            );
        }
        _ => {
            out.sort_by_key(|(d, _)| *d);
            let per = (w.cfg.sending_threshold / (4 + P::Message::BYTES)).max(1);
            for chunk in out.chunks(per) {
                let mut chunk = chunk.to_vec();
                let (payload, stats) = encode_batch(BatchKind::Concatenated, &mut chunk, None);
                w.ep.send(
                    to,
                    Packet::Messages {
                        kind: BatchKind::Concatenated,
                        payload: payload.into(),
                        stats,
                        for_block: Some(block),
                    },
                );
            }
        }
    }
}

/// Pull-Request's update half (Algorithm 1 lines 7–9), plus the fused
/// `pushRes` when switching to push.
fn update_block<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    superstep: u64,
    block: BlockId,
    inbox: MsgAccumulator<P::Message>,
    also_push: bool,
    tbuf: &mut ThresholdBuffer<P::Message>,
) -> io::Result<()> {
    let inbox = inbox.into_inbox();
    if inbox.is_empty() {
        return Ok(());
    }
    let program = Arc::clone(&w.program);
    let info = w.info;
    let track_residual = program.tolerance().is_some();
    let br = w.layout.block_range(block);
    let vals = w.values.read_range(br.clone())?;
    w.note_value_preimage(br.start, &vals);
    rep.sem.value_update_bytes += vals.len() as u64 * P::Value::BYTES as u64;
    for (vg, msgs) in inbox.iter() {
        let v = VertexId(vg);
        debug_assert!(br.contains(&vg), "message for vertex outside block");
        let idx = (vg - br.start) as usize;
        let upd = program.update(v, &info, superstep, &vals[idx], msgs);
        if track_residual {
            rep.max_residual = rep
                .max_residual
                .max(program.residual(&vals[idx], &upd.value));
        }
        rep.updated += 1;
        rep.messages_consumed += msgs.len() as u64;
        let local = w.local(v);
        if upd.respond {
            w.respond_next.set(local);
            if also_push {
                let adj = w
                    .adjacency
                    .as_ref()
                    .expect("hybrid keeps the adjacency store");
                let edges = adj.edges_of(v, AccessClass::SeqRead)?;
                rep.sem.push_edge_bytes += adj.stored_bytes_of(v);
                let outd = w.out_degrees[local];
                for e in &edges {
                    if let Some(m) = program.message(v, &upd.value, outd, e) {
                        rep.messages_produced += 1;
                        let peer = w.partition.worker_of(e.dst);
                        if let Some(batch) = tbuf.push(peer, e.dst, m) {
                            send_plain(w, peer, batch);
                        }
                    }
                }
            }
        }
        // Staged: flushed after every peer stops reading this superstep.
        w.staged.push((vg, upd.value));
        rep.sem.value_update_bytes += P::Value::BYTES as u64;
    }
    Ok(())
}
