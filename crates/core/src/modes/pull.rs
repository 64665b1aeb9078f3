//! Per-vertex pulling — the disk-extended GraphLab PowerGraph analogue.
//!
//! Every superstep, each destination vertex with in-edges pulls from every
//! worker hosting one of its in-edges (its "mirrors"): requests are
//! per-vertex (batched into id-list packets), the responder reads the
//! vertex's in-edge fragment from the destination-grouped [`GatherStore`]
//! (a random read), and reads each *responding* source vertex's value
//! through the bounded LRU cache (a random read per miss). Updates also go
//! through the cache, with dirty evictions writing values back.
//!
//! This reproduces the cost structure the paper attributes to existing
//! pull systems on disk-resident data: per-vertex requests ("up to
//! `|V|·T` times"), and frequent random access to svertices that LRU can
//! only partially absorb (Table 5's `ext-edge-v2.5` collapse, Fig. 10's
//! `pull` bars).

use super::{init_updates, send_batch, stage_response, staged_inbox};
use crate::metrics::StepReport;
use crate::program::VertexProgram;
use crate::worker::{OutEdges, Worker};
use hybridgraph_graph::{Edge, VertexId, WorkerId};
use hybridgraph_net::flow::ThresholdBuffer;
use hybridgraph_net::packet::Packet;
use hybridgraph_storage::gather::InEdgeScratch;
use hybridgraph_storage::inbox::Inbox;
use hybridgraph_storage::stats::{scattered_cost, seek_pad};
use hybridgraph_storage::{AccessClass, Record};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Runs one pull (gather) superstep.
pub fn run_pull_step<P: VertexProgram>(
    w: &mut Worker<P>,
    superstep: u64,
) -> io::Result<StepReport> {
    let t0 = Instant::now();
    w.begin_superstep(superstep);
    let workers = w.cfg.workers;
    if superstep == 1 {
        // Local init, then scatter activation signals from the
        // responders so superstep 2 knows who must gather.
        let mut rep = StepReport::default();
        let mut blocking = 0.0;
        init_updates(w, &mut rep)?;
        scatter_signals(w, &mut rep)?;
        for p in 0..workers {
            w.ep.send(WorkerId::from(p), Packet::SuperstepDone);
        }
        let mut done_peers = 0usize;
        while done_peers < workers {
            let env = w.recv_timed(&mut blocking);
            match env.packet {
                Packet::Signals { ids } => accept_signals(w, &ids),
                Packet::SuperstepDone => done_peers += 1,
                Packet::Abort => return Err(super::abort_error()),
                other => return Err(super::unexpected(&other, "pull init")),
            }
        }
        w.signaled.clear_all();
        w.signaled.swap(&mut w.signaled_next);
        w.trace_phase("init+scatter");
        w.finish_superstep(&mut rep);
        rep.wall_secs = t0.elapsed().as_secs_f64();
        rep.blocking_secs = blocking;
        return Ok(rep);
    }
    let mut rep = StepReport::default();
    let mut blocking = 0.0;

    // Request phase: every *signaled* local vertex pulls from each of its
    // mirror workers (including itself, over loopback) — PowerGraph's
    // scatter-driven activation.
    let mut req_bufs: Vec<Vec<u8>> = vec![Vec::new(); workers];
    let signaled: Vec<usize> = w.signaled.ones().collect();
    for i in signaled {
        let mask = w.mirror_peers[i];
        if mask == 0 {
            continue;
        }
        let v = w.range.start + i as u32;
        for (p, buf) in req_bufs.iter_mut().enumerate() {
            if (mask >> p) & 1 == 1 {
                buf.extend_from_slice(&v.to_le_bytes());
                if buf.len() >= w.cfg.sending_threshold {
                    let ids = std::mem::take(buf);
                    w.ep.send(
                        WorkerId::from(p),
                        Packet::GatherRequests { ids: ids.into() },
                    );
                }
            }
        }
    }
    for (p, buf) in req_bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            w.ep.send(
                WorkerId::from(p),
                Packet::GatherRequests { ids: buf.into() },
            );
        }
    }
    for p in 0..workers {
        w.ep.send(WorkerId::from(p), Packet::DoneRequesting);
    }
    w.trace_phase("request");

    // Event loop: stage requests and responses per sender as they
    // arrive, serve once every peer is done requesting, update when both
    // directions have quiesced.
    let mut requests: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); workers];
    let mut in_edges = InEdgeScratch::default();
    let mut staged: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); workers];
    let mut tbuf: ThresholdBuffer<P::Message> =
        ThresholdBuffer::new(workers, w.cfg.sending_threshold);
    let (mut done_requesting, mut got_ends, mut done_peers) = (0usize, 0usize, 0usize);
    let (mut served, mut my_done) = (false, false);
    loop {
        if done_requesting == workers && !served {
            // Sender by sender in worker-id order, so the LRU and the
            // gather store's cursor see the same request sequence whatever
            // order the fabric delivered it in. Every peer has sent all its
            // requests already, so none of them waits on these responses.
            for (p, payloads) in std::mem::take(&mut requests).into_iter().enumerate() {
                let from = WorkerId::from(p);
                for ids in payloads {
                    for chunk in ids.chunks_exact(4) {
                        let v = VertexId(u32::from_le_bytes(chunk.try_into().unwrap()));
                        serve_gather(w, v, from, &mut tbuf, &mut in_edges, &mut rep)?;
                    }
                }
                send_batch(w, from, w.batch_kind(), None, &tbuf.flush(from));
                w.ep.send(from, Packet::EndOfGather);
            }
            served = true;
        }
        if got_ends == workers && served && !my_done {
            let mut fold = std::mem::take(&mut w.fold);
            let (inbox, values) = staged_inbox(w, &mut fold, &staged, &w.range);
            w.fold = fold;
            staged.iter_mut().for_each(Vec::clear);
            let held = values * (4 + P::Message::BYTES as u64);
            w.note_memory(held + w.standing_memory_bytes());
            update_cached(w, &mut rep, superstep, &inbox)?;
            // Scatter: responders signal their out-neighbors to gather
            // next superstep.
            scatter_signals(w, &mut rep)?;
            my_done = true;
            for p in 0..workers {
                w.ep.send(WorkerId::from(p), Packet::SuperstepDone);
            }
        }
        if my_done && done_peers == workers {
            break;
        }
        let env = w.recv_timed(&mut blocking);
        match env.packet {
            Packet::GatherRequests { ids } => requests[env.from.index()].push(ids),
            // FIFO per pair: all of this peer's requests are staged.
            Packet::DoneRequesting => done_requesting += 1,
            Packet::Messages { kind, payload, .. } => {
                stage_response(w, &mut staged[env.from.index()], kind, payload, &w.range)?;
            }
            Packet::EndOfGather => got_ends += 1,
            Packet::Signals { ids } => accept_signals(w, &ids),
            Packet::SuperstepDone => done_peers += 1,
            Packet::Abort => return Err(super::abort_error()),
            other => return Err(super::unexpected(&other, "pull step")),
        }
    }

    w.signaled.clear_all();
    w.signaled.swap(&mut w.signaled_next);
    w.trace_phase("gather+update");
    w.finish_superstep(&mut rep);
    rep.wall_secs = t0.elapsed().as_secs_f64();
    rep.blocking_secs = blocking;
    Ok(rep)
}

/// PowerGraph-style scatter: every responder reads its out-edges from the
/// adjacency store and signals each destination's owner that the vertex
/// must gather next superstep.
fn scatter_signals<P: VertexProgram>(w: &mut Worker<P>, rep: &mut StepReport) -> io::Result<()> {
    let workers = w.cfg.workers;
    let responders: Vec<usize> = w.respond_next.ones().collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); workers];
    let mut out_edges = OutEdges::default();
    for i in responders {
        let v = VertexId(w.range.start + i as u32);
        let edges = w.read_out_edges(v, AccessClass::SeqRead, rep, &mut out_edges)?;
        for e in edges {
            let p = w.partition.worker_of(e.dst).index();
            bufs[p].extend_from_slice(&e.dst.0.to_le_bytes());
            if bufs[p].len() >= w.cfg.sending_threshold {
                let ids = std::mem::take(&mut bufs[p]);
                w.ep.send(WorkerId::from(p), Packet::Signals { ids: ids.into() });
            }
        }
    }
    for (p, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            w.ep.send(WorkerId::from(p), Packet::Signals { ids: buf.into() });
        }
    }
    Ok(())
}

/// Marks locally-owned signal targets for the next superstep.
fn accept_signals<P: VertexProgram>(w: &mut Worker<P>, ids: &[u8]) {
    for chunk in ids.chunks_exact(4) {
        let v = VertexId(u32::from_le_bytes(chunk.try_into().unwrap()));
        let local = w.local(v);
        w.signaled_next.set(local);
    }
}

/// Reads a local vertex value through the LRU cache; misses hit the value
/// store randomly, dirty evictions write back. Both are scattered
/// accesses (request order has no locality), so each one is charged at
/// sector granularity — the cost the paper's Table 5 observes collapsing
/// the disk-extended GraphLab.
pub(crate) fn cached_value<P: VertexProgram>(
    w: &mut Worker<P>,
    v: VertexId,
    rep: &mut StepReport,
) -> io::Result<P::Value> {
    if let Some(val) = w.lru.as_mut().expect("pull needs the LRU").get(&v.0) {
        return Ok(val.clone());
    }
    let val = w.values.read_one(v)?;
    let width = P::Value::BYTES as u64;
    w.vfs.stats().record(AccessClass::RandRead, seek_pad(width));
    rep.sem.svertex_rand_bytes += scattered_cost(width);
    let evicted = w.lru.as_mut().unwrap().insert_weighted(
        v.0,
        val.clone(),
        false,
        Worker::<P>::lru_entry_weight(),
    );
    for (k, old, dirty) in evicted {
        if dirty {
            write_back(w, VertexId(k), &old)?;
        }
    }
    Ok(val)
}

/// Writes an evicted dirty value back (scattered random write).
fn write_back<P: VertexProgram>(w: &Worker<P>, v: VertexId, value: &P::Value) -> io::Result<()> {
    w.values.write_one(v, value)?;
    w.vfs
        .stats()
        .record(AccessClass::RandWrite, seek_pad(P::Value::BYTES as u64));
    Ok(())
}

/// Serves one gather request: read `v`'s local in-edge fragment (into
/// `scratch`, reused request after request), then each responding source's
/// value, generating messages.
fn serve_gather<P: VertexProgram>(
    w: &mut Worker<P>,
    v: VertexId,
    from: WorkerId,
    tbuf: &mut ThresholdBuffer<P::Message>,
    scratch: &mut InEdgeScratch,
    rep: &mut StepReport,
) -> io::Result<()> {
    let in_edges = w
        .gather
        .as_ref()
        .expect("pull needs the gather store")
        .read_in_edges(v, scratch)?;
    let program = Arc::clone(&w.program);
    for ie in in_edges {
        let local = w.local(ie.src);
        if !w.respond.get(local) {
            continue;
        }
        let val = cached_value(w, ie.src, rep)?;
        let outd = w.out_degrees[local];
        let edge = Edge::weighted(v, ie.weight);
        if let Some(m) = program.message(ie.src, &val, outd, &edge) {
            rep.messages_produced += 1;
            if let Some(batch) = tbuf.push(from, v, m) {
                send_batch(w, from, w.batch_kind(), None, &batch);
            }
        }
    }
    Ok(())
}

/// Applies the superstep's gathered messages through the LRU cache.
fn update_cached<P: VertexProgram>(
    w: &mut Worker<P>,
    rep: &mut StepReport,
    superstep: u64,
    inbox: &Inbox<P::Message>,
) -> io::Result<()> {
    let program = Arc::clone(&w.program);
    let info = w.info;
    let track_residual = program.tolerance().is_some();
    for (vg, msgs) in inbox.iter() {
        let v = VertexId(vg);
        let current = cached_value(w, v, rep)?;
        let upd = program.update(v, &info, superstep, &current, msgs);
        if track_residual {
            rep.max_residual = rep.max_residual.max(program.residual(&current, &upd.value));
        }
        rep.updated += 1;
        rep.messages_consumed += msgs.len() as u64;
        if upd.respond {
            let local = w.local(v);
            w.respond_next.set(local);
        }
        let evicted = w.lru.as_mut().unwrap().insert_weighted(
            vg,
            upd.value,
            true,
            Worker::<P>::lru_entry_weight(),
        );
        for (k, old, dirty) in evicted {
            if dirty {
                write_back(w, VertexId(k), &old)?;
            }
        }
    }
    Ok(())
}
